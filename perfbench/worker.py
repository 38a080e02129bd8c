"""One benchmark repeat in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC_JSON`` where the spec names the
checkout's ``src`` directory, the workload argv, the mode (``setup``,
``plain`` or ``traced``) and where to put the result. ``run.py`` starts it;
it is not meant to be run by hand.

Timed regions, all with ``time.perf_counter``:

- ``import_s``: cold ``import ctcsim.cli`` (numpy included);
- ``setup_s``: ``import_s`` plus argument parsing and the config load
  (``sim run``) or the case-spec build (``exp all``), done once before and
  apart from ``main``;
- ``wall_s``: ``ctcsim.cli.main(argv)`` from call to return, by which point
  every output file has been written and closed.

``peak_rss_mb`` is this process's ``VmHWM`` (peak resident set) after
``main`` returns. ``ru_maxrss`` would not do: Linux carries the parent's
high-water mark over ``exec``, so it would read ``run.py``'s memory too.

In ``plain`` mode a ``calibrate.HostProbe`` runs short kernel slices at the
start, every quarter second and at the end of ``main``. Their time is taken
out of ``wall_s`` and their mean is reported as ``kernel_s``, so that
``run.py`` can scale ``wall_s`` by the host's speed during the repeat.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(argv: list[str]) -> None:
    import ctcsim.cli
    import ctcsim.experiments
    import ctcsim.sim

    args = ctcsim.cli.build_parser().parse_args(argv)
    if args.command == "sim":
        ctcsim.sim.load_config(args.config)
    else:
        for case_id in ctcsim.experiments.CASE_IDS:
            ctcsim.experiments.case_spec(case_id)


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    result: dict = {"ok": False}

    t0 = time.perf_counter()
    import ctcsim.cli

    import_s = time.perf_counter() - t0
    if not Path(ctcsim.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {ctcsim.cli.__file__}, not the checkout's {src}")
    t1 = time.perf_counter()
    _setup(spec["argv"])
    result["import_s"] = import_s
    result["setup_s"] = import_s + time.perf_counter() - t1

    if spec["mode"] != "setup":
        # Imported only now, so that numpy's import stays in ``import_s``.
        from calibrate import HostProbe

        tracer = None
        if spec["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            if tracer is None:
                probe = HostProbe()
                start = time.perf_counter()
                with probe:
                    code = ctcsim.cli.main(spec["argv"])
                result["wall_s"] = time.perf_counter() - start - probe.spent_s
                result["kernel_s"] = sum(probe.slices) / len(probe.slices)
            else:
                start = time.perf_counter()
                code = tracer.call("cli.main", ctcsim.cli.main, spec["argv"])
                result["wall_s"] = time.perf_counter() - start
        except Exception:
            result["error"] = traceback.format_exc()
            code = None
        result["peak_rss_mb"] = _peak_rss_mb()
        result["exit_code"] = code
        if tracer is not None and code == 0:
            result["layers"] = tracer.layer_metrics(import_s)
            result["unwrapped"] = tracer.missing
            tracer.write(spec["spans_path"])
        result["ok"] = code == 0
    else:
        result["ok"] = True
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
