"""Experiment configuration: one flat JSON object, fully validated.

ExperimentConfig is the one place a setting is declared, defaulted and
validated; netsim and data read their settings from it.  Each field's
annotation declares its type and, where it has one, the rule for its accepted
values, e.g. `eta: Annotated[float, _above(0)]`; a list setting's rule holds
for each item, and None is exempt.  Every rule is written so that NaN fails
it, and a float setting's rule also fails +-inf (stop="rounds" is the way to
run without a time budget).  Unknown keys and keys given twice in the file
are rejected, every value is checked against its type and then its rule,
then the few rules that tie two settings together are checked, and every
validation error names the offending key, so a bad config fails fast with an
actionable message.  The effective config (defaults filled in) is echoed into
summary.json; loading that echo reproduces the run exactly.  A link's rate
has one form, uplink_rate_bps in bits per second (one value, or one per
worker, never null), and no other setting derives it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Annotated

from .compress import BASIS_KINDS
from .data import PARTITION_MODES
from .errors import ConfigError
from .nn import ACTIVATIONS

SCHEMES = ("ffl", "adacomm_like", "atomo_like", "fixed", "vanilla")
DATASETS = ("synthetic", "mnist")
STOPS = ("time", "rounds")


class _Rule(typing.NamedTuple):
    """The values a setting accepts: `text` completes "<key> must be ...",
    and `ok` is false for every other value, NaN included."""

    text: str
    ok: typing.Callable[[object], bool]


def _above(lo) -> _Rule:
    return _Rule(f"> {lo}", lambda v: v > lo)


def _at_least(lo) -> _Rule:
    return _Rule(f">= {lo}", lambda v: v >= lo)


def _one_of(choices: tuple[str, ...]) -> _Rule:
    return _Rule(f"one of {choices}", lambda v: v in choices)


_FRACTION = _Rule("in [0, 1)", lambda v: 0 <= v < 1)
_PROBABILITY = _Rule("in [0, 1]", lambda v: 0 <= v <= 1)


@dataclass
class ExperimentConfig:
    seed: Annotated[int, _at_least(0)] = 0
    scheme: Annotated[str, _one_of(SCHEMES)] = "ffl"
    output_dir: str = "out"

    # schedule anchors and bounds
    tau0: Annotated[int, _at_least(1)] = 30
    tau_ub: Annotated[int, _at_least(1)] = 30
    s0: Annotated[float, _at_least(1)] = 5.0
    s_ub: Annotated[float, _at_least(1)] = 9.0
    loss_smoothing: Annotated[float, _FRACTION] = 0.3

    # optimization
    eta: Annotated[float, _above(0)] = 0.01
    server_momentum: Annotated[float, _FRACTION] = 0.9
    batch_size: Annotated[int, _at_least(1)] = 64
    hidden_layers: Annotated[list[int], _at_least(1)] = field(default_factory=lambda: [32])
    activation: Annotated[str, _one_of(ACTIVATIONS)] = "relu"
    basis: Annotated[str, _one_of(BASIS_KINDS)] = "elementwise"

    # run control
    workers: Annotated[int, _at_least(1)] = 8
    stop: Annotated[str, _one_of(STOPS)] = "time"
    T_budget_s: Annotated[float, _above(0)] = 600.0
    round_cap: Annotated[int, _at_least(1)] = 20000
    target_accuracy: Annotated[float, _Rule("in (0, 1]", lambda v: 0 < v <= 1)] = 0.9
    eval_stride: Annotated[int, _at_least(1)] = 1

    # dataset
    dataset: Annotated[str, _one_of(DATASETS)] = "synthetic"
    synthetic_classes: Annotated[int, _at_least(2)] = 4
    synthetic_per_class: Annotated[int, _at_least(1)] = 1000
    synthetic_test_per_class: Annotated[int, _at_least(1)] = 250
    synthetic_dim: Annotated[int, _at_least(1)] = 16
    synthetic_spread: Annotated[float, _at_least(0)] = 0.35
    mnist_dir: str | None = None
    subset_n: Annotated[int, _at_least(1)] = 2000
    test_subset_n: Annotated[int, _at_least(1)] = 1000
    partition_mode: Annotated[str, _one_of(PARTITION_MODES)] = "iid"
    classes_per_worker: Annotated[int | None, _at_least(1)] = None

    # channel
    uplink_rate_bps: Annotated[float | list[float], _above(0)] = 1e5
    downlink_rate_bps: Annotated[float, _above(0)] = 1e5
    packet_failure_prob: Annotated[float, _PROBABILITY] = 0.0
    sec_per_local_step: Annotated[float, _above(0)] = 5e-3

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        for name, (kind, fits, rule) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not fits(value):
                raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
            if rule is not None and value is not None and not all(
                map(rule.ok, value if isinstance(value, list) else (value,))
            ):
                raise ConfigError(f"{name} must be {rule.text}, got {value!r}")
        if self.tau0 > self.tau_ub:
            raise ConfigError(f"tau0 must be <= tau_ub, got tau0={self.tau0}, tau_ub={self.tau_ub}")
        if self.s0 > self.s_ub:
            raise ConfigError(f"s0 must be <= s_ub, got s0={self.s0}, s_ub={self.s_ub}")
        if self.dataset == "mnist" and not self.mnist_dir:
            raise ConfigError("mnist_dir must point at the IDX files when dataset='mnist'")
        if self.partition_mode == "by_class" and self.classes_per_worker is None:
            raise ConfigError("classes_per_worker must be >= 1 when partition_mode='by_class'")
        rates = self.uplink_rate_bps
        if isinstance(rates, list) and len(rates) != self.workers:
            raise ConfigError(f"uplink_rate_bps lists one value per worker: got {len(rates)} for"
                              f" {self.workers} workers")


def _fits(annotation) -> typing.Callable[[object], bool]:
    """Whether a value fits `annotation`: an int fits float, a bool fits no
    number, and a list fits only if every item does."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        options = [_fits(arg) for arg in typing.get_args(annotation)]
        return lambda value: any(fits(value) for fits in options)
    if typing.get_origin(annotation) is list:
        (item,) = typing.get_args(annotation)
        fits_item = _fits(item)
        return lambda value: isinstance(value, list) and all(map(fits_item, value))
    accepted = (int, float) if annotation is float else annotation
    return lambda value: isinstance(value, accepted) and not isinstance(value, bool)


def _finite(rule: _Rule) -> _Rule:
    """`rule`, held only by finite values: the rule of a float setting."""
    return _Rule(f"finite and {rule.text}", lambda v: -math.inf < v < math.inf and rule.ok(v))


def _field_check(hint) -> tuple[str, typing.Callable[[object], bool], _Rule | None]:
    """A field's type as written, a check of a value against that type, and
    the field's rule (None if it declares none), finite-only if the type
    admits a float."""
    kind, rule = typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint, None)
    if rule is not None and (kind is float or float in typing.get_args(kind)):
        rule = _finite(rule)
    return (kind.__name__ if isinstance(kind, type) else str(kind)), _fits(kind), rule


# resolved once, at import: typing.get_type_hints costs far more than the checks
_FIELD_CHECKS = {
    name: _field_check(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig, include_extras=True).items()
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, rejecting a key given twice, which
    json.load would otherwise resolve silently to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} is given more than once")
        obj[key] = value
    return obj


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read as UTF-8 text: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return ExperimentConfig.from_dict(raw)
