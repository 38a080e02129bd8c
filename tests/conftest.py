"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ctcsim import experiments, sim


@pytest.fixture
def binomial_calls(monkeypatch):
    """The size of the counts of each ``binomial`` call on a generator that ``_seeded`` hands out.

    numpy's ``Generator`` is an immutable type, so the spy is a subclass
    that wraps each seeded generator's bit generator.
    """
    calls = []

    class CountingGenerator(np.random.Generator):
        def binomial(self, n, p, size=None):
            calls.append(np.size(n))
            return super().binomial(n, p, size)

    real_seeded = sim._seeded

    def counting_seeded(seeds):
        return [(CountingGenerator(generator.bit_generator), seeded) for generator, seeded in real_seeded(seeds)]

    monkeypatch.setattr(sim, "_seeded", counting_seeded)
    monkeypatch.setattr(experiments, "_seeded", counting_seeded)
    return calls
