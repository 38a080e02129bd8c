"""Count the lines of each ``src/ctcsim`` module.

Prints, per module and in total, every line of the file and its lines of
code: the lines that hold a token of a statement other than a docstring,
found with ``tokenize``. Comments and blank lines hold none. A docstring
here is any string that is a statement of its own.

Usage: python scripts/src_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctcsim"
# Tokens that are layout, not code.
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}


def count(path: Path) -> tuple[int, int]:
    """Every line of ``path`` and its lines of code."""
    text = path.read_bytes()
    code, statement = set(), []
    for token in tokenize.tokenize(io.BytesIO(text).readline):
        if token.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if token.type not in _LAYOUT:
                statement.append(token)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            code.update(line for t in statement for line in range(t.start[0], t.end[0] + 1))
        statement = []
    return len(text.splitlines()), len(code)


def main() -> int:
    rows = [(path.name, *count(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
