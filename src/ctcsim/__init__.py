"""Deterministic packet-forwarding simulator and analytical forwarding model.

Layout:

- :mod:`ctcsim.model` - closed-form probabilities, time split, throughput.
- :mod:`ctcsim.utilization` - node-power rates and utilization sums.
- :mod:`ctcsim.sim` - the epoch-driven simulator (cooperative time-split
  policy vs an energy-gated self-first baseline).
- :mod:`ctcsim.experiments` - case definitions, sweeps, derived curves.
- :mod:`ctcsim.report` - CSV and figure-series emission.
- :mod:`ctcsim.cli` - the ``ctcsim`` command.

The package re-exports every module's ``__all__``, and the error types of
:mod:`ctcsim.errors`. ``cli`` is not re-exported, nor is
:mod:`ctcsim.phases`, the clock of each command's phases.
"""

from .errors import *
from .model import *
from .utilization import *
from .sim import *
from .experiments import *
from .report import *

__version__ = "0.1.0"
