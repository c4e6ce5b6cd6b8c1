"""Experiment configuration: one flat JSON object, fully validated.

Unknown keys are rejected and every validation error names the offending
key, so a bad config fails fast with an actionable message.  The effective
config (defaults filled in) is echoed into summary.json; loading that echo
reproduces the run exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .compress import BASIS_KINDS
from .data import PARTITION_MODES
from .errors import ConfigError
from .netsim import ChannelConfig
from .nn import ACTIVATIONS

SCHEMES = ("ffl", "adacomm_like", "atomo_like", "fixed", "vanilla")
DATASETS = ("synthetic", "mnist")
STOPS = ("time", "rounds")


@dataclass
class ExperimentConfig:
    seed: int = 0
    scheme: str = "ffl"
    output_dir: str = "out"

    # schedule anchors and bounds
    tau0: int = 30
    tau_ub: int = 30
    s0: float = 5.0
    s_ub: float = 9.0
    loss_smoothing: float = 0.3

    # optimization
    eta: float = 0.01
    server_momentum: float = 0.9
    batch_size: int = 64
    hidden_layers: list[int] = field(default_factory=lambda: [32])
    activation: str = "relu"
    basis: str = "elementwise"

    # run control
    workers: int = 8
    stop: str = "time"
    T_budget_s: float = 600.0
    round_cap: int = 20000
    target_accuracy: float = 0.9
    eval_stride: int = 1

    # dataset
    dataset: str = "synthetic"
    synthetic_classes: int = 4
    synthetic_per_class: int = 1000
    synthetic_test_per_class: int = 250
    synthetic_dim: int = 16
    synthetic_spread: float = 0.35
    mnist_dir: str | None = None
    subset_n: int = 2000
    test_subset_n: int = 1000
    partition_mode: str = "iid"
    classes_per_worker: int | None = None

    # channel
    bandwidth_hz: float = 1e6
    snr: float | list[float] | None = None
    uplink_rate_bps: float | list[float] | None = 1e5
    downlink_rate_bps: float = 1e5
    packet_failure_prob: float = 0.0
    sec_per_local_step: float = 5e-3

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
        data = dict(raw)
        if "snr" in data and "uplink_rate_bps" not in data:
            data["uplink_rate_bps"] = None  # snr replaces the default rate override
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.tau_ub < 1 or not 1 <= self.tau0 <= self.tau_ub:
            raise ConfigError(
                f"tau0/tau_ub must satisfy 1 <= tau0 <= tau_ub, got {self.tau0}/{self.tau_ub}"
            )
        if self.s_ub < 1 or not 1 <= self.s0 <= self.s_ub:
            raise ConfigError(f"s0/s_ub must satisfy 1 <= s0 <= s_ub, got {self.s0}/{self.s_ub}")
        if not 0.0 <= self.loss_smoothing < 1.0:
            raise ConfigError(f"loss_smoothing must be in [0, 1), got {self.loss_smoothing}")
        if self.eta <= 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.server_momentum < 1.0:
            raise ConfigError(f"server_momentum must be in [0, 1), got {self.server_momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden_layers entries must be >= 1, got {self.hidden_layers}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.basis not in BASIS_KINDS:
            raise ConfigError(f"basis must be one of {BASIS_KINDS}, got {self.basis!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.stop not in STOPS:
            raise ConfigError(f"stop must be one of {STOPS}, got {self.stop!r}")
        if self.T_budget_s <= 0:
            raise ConfigError(f"T_budget_s must be > 0, got {self.T_budget_s}")
        if self.round_cap < 1:
            raise ConfigError(f"round_cap must be >= 1, got {self.round_cap}")
        if not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigError(f"target_accuracy must be in (0, 1], got {self.target_accuracy}")
        if self.eval_stride < 1:
            raise ConfigError(f"eval_stride must be >= 1, got {self.eval_stride}")
        if self.dataset not in DATASETS:
            raise ConfigError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.dataset == "mnist" and not self.mnist_dir:
            raise ConfigError("mnist_dir must point at the IDX files when dataset='mnist'")
        if self.dataset == "synthetic":
            if self.synthetic_classes < 2:
                raise ConfigError(f"synthetic_classes must be >= 2, got {self.synthetic_classes}")
            if self.synthetic_per_class < 1 or self.synthetic_test_per_class < 1:
                raise ConfigError(
                    "synthetic_per_class and synthetic_test_per_class must be >= 1, got "
                    f"{self.synthetic_per_class}/{self.synthetic_test_per_class}"
                )
            if self.synthetic_dim < 1:
                raise ConfigError(f"synthetic_dim must be >= 1, got {self.synthetic_dim}")
            if self.synthetic_spread < 0:
                raise ConfigError(f"synthetic_spread must be >= 0, got {self.synthetic_spread}")
        if self.subset_n < 1 or self.test_subset_n < 1:
            raise ConfigError(
                f"subset_n and test_subset_n must be >= 1, got {self.subset_n}/{self.test_subset_n}"
            )
        if self.partition_mode not in PARTITION_MODES:
            raise ConfigError(
                f"partition_mode must be one of {PARTITION_MODES}, got {self.partition_mode!r}"
            )
        if self.partition_mode == "by_class" and (
            self.classes_per_worker is None or self.classes_per_worker < 1
        ):
            raise ConfigError("classes_per_worker must be >= 1 when partition_mode='by_class'")
        self.channel().validate(self.workers)

    def channel(self) -> ChannelConfig:
        return ChannelConfig(
            bandwidth_hz=self.bandwidth_hz,
            snr=self.snr,
            uplink_rate_bps=self.uplink_rate_bps,
            downlink_rate_bps=self.downlink_rate_bps,
            packet_failure_prob=self.packet_failure_prob,
            sec_per_local_step=self.sec_per_local_step,
        )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return ExperimentConfig.from_dict(raw)
