"""The package namespace re-exports each module's public names."""

import pytest

import ctcsim
from ctcsim import errors, experiments, model, report, sim, utilization


@pytest.mark.parametrize("module", [model, utilization, sim, experiments, report], ids=lambda m: m.__name__)
def test_package_exports_every_name_in_each_module_all(module):
    for name in module.__all__:
        assert getattr(ctcsim, name) is getattr(module, name), f"ctcsim.{name} is not {module.__name__}.{name}"


def test_package_exports_every_error_type():
    pending = [errors.CtcSimError, errors.InvariantError]
    while pending:
        error = pending.pop()
        assert getattr(ctcsim, error.__name__) is error
        pending += error.__subclasses__()
