"""Simulated wireless links and round timing.

Uplink rates follow the Shannon capacity W * log2(1 + snr), with snr a
ratio, unless a direct bit-rate override is configured; both accept
per-worker lists.  An upload costs its size in bits over the worker's
rate: compress.payload_bits for a compressed payload, DENSE_BITS_PER_VALUE
per value for a dense vector.  The downlink is charged the same way, its
bits over its rate; the server broadcasts the dense model.  A round costs
the slowest worker's compute + uplink time plus one shared downlink, and
uplink payloads lose their packet independently with a fixed probability;
survival is drawn only when that probability is strictly between 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import substream

DENSE_BITS_PER_VALUE = 64  # the model is held, broadcast and sent dense as float64


@dataclass
class ChannelConfig:
    bandwidth_hz: float = 1e6
    snr: float | list[float] | None = None
    uplink_rate_bps: float | list[float] | None = 1e5
    downlink_rate_bps: float = 1e5
    packet_failure_prob: float = 0.0
    sec_per_local_step: float = 5e-3

    def validate(self, workers: int) -> None:
        if self.bandwidth_hz <= 0:
            raise ConfigError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if (self.snr is None) == (self.uplink_rate_bps is None):
            raise ConfigError("exactly one of snr and uplink_rate_bps must be set")
        for name, value in (("snr", self.snr), ("uplink_rate_bps", self.uplink_rate_bps)):
            if value is None:
                continue
            values = value if isinstance(value, (list, tuple)) else [value]
            if isinstance(value, (list, tuple)) and len(value) != workers:
                raise ConfigError(
                    f"{name} lists one value per worker: got {len(value)} for {workers} workers"
                )
            if any(v <= 0 for v in values):
                raise ConfigError(f"{name} entries must be > 0, got {value}")
        if self.downlink_rate_bps <= 0:
            raise ConfigError(f"downlink_rate_bps must be > 0, got {self.downlink_rate_bps}")
        if not 0.0 <= self.packet_failure_prob <= 1.0:
            raise ConfigError(
                f"packet_failure_prob must be in [0, 1], got {self.packet_failure_prob}"
            )
        if self.sec_per_local_step <= 0:
            raise ConfigError(f"sec_per_local_step must be > 0, got {self.sec_per_local_step}")


def _per_worker(value, worker_id: int) -> float:
    if isinstance(value, (list, tuple)):
        return float(value[worker_id])
    return float(value)


def link_rate(cfg: ChannelConfig, worker_id: int) -> float:
    """Uplink bit rate for one worker: the override if set, else Shannon."""
    if cfg.uplink_rate_bps is not None:
        return _per_worker(cfg.uplink_rate_bps, worker_id)
    snr = _per_worker(cfg.snr, worker_id)
    return cfg.bandwidth_hz * math.log2(1.0 + snr)


def uplink_time(bits: int, cfg: ChannelConfig, worker_id: int) -> float:
    """Seconds to push a payload of `bits` bits."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    return bits / link_rate(cfg, worker_id)


def downlink_time(bits: int, cfg: ChannelConfig) -> float:
    """Seconds to broadcast `bits` bits to every worker at once."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    return bits / cfg.downlink_rate_bps


def round_time(compute_s: list[float], uplink_s: list[float], downlink_s: float) -> float:
    """Straggler round time: max_j (compute_j + uplink_j) plus the downlink."""
    if len(compute_s) != len(uplink_s) or not compute_s:
        raise ValueError("compute_s and uplink_s must be equal-length, non-empty lists")
    total = max(y + u for y, u in zip(compute_s, uplink_s)) + downlink_s
    if not total > 0:
        raise ValueError(f"round time must be > 0 s, got {total}")
    return total


def packet_survives(rng: np.random.Generator, cfg: ChannelConfig) -> bool:
    """One Bernoulli survival draw; False with probability packet_failure_prob."""
    return float(rng.random()) >= cfg.packet_failure_prob



def packets_survive(cfg: ChannelConfig, seed: int, round_index: int, worker_ids) -> np.ndarray:
    """Which of a round's uplink packets arrive, one per worker.

    At packet_failure_prob 0 every packet survives and at 1 none does, so no
    draw is made.  Otherwise worker j's packet gets one packet_survives draw
    on substream(seed, "net", j, round_index).
    """
    p = cfg.packet_failure_prob
    if p in (0.0, 1.0):
        return np.full(len(worker_ids), p == 0.0)
    return np.array(
        [packet_survives(substream(seed, "net", j, round_index), cfg) for j in worker_ids],
        dtype=bool,
    )
