"""fflsim: a deterministic simulator for communication-adaptive federated
SGD with unbiased atomic-decomposition gradient compression.

`import fflsim` loads no submodule: each exported name imports its module
on first use (PEP 562), so a caller that needs only fflsim.selftest never
compiles the config and federation stack.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "load_config", "Experiment", "run_experiment", "__version__"]

_HOMES = {"ExperimentConfig": "config", "load_config": "config",
          "Experiment": "federation", "run_experiment": "federation"}


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
