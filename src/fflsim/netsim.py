"""Simulated wireless links and round timing.

Uplink rates follow the Shannon capacity W * log2(1 + snr), with snr a
ratio, unless a direct bit-rate override is configured; both accept
per-worker lists.  The rates are fixed at set-up: uplink_rates builds all M
of them once, as an (M,) array that the experiment holds, and a round
charges every upload with one division, its size in bits over its worker's
rate: compress.payload_bits for a compressed payload, DENSE_BITS_PER_VALUE
per value for a dense vector.  The downlink is charged the same way, its
bits over its rate; the server broadcasts the dense model.  Every worker
runs the round's tau local steps at the same speed, so a round costs that
one compute time, the slowest uplink and one shared downlink; uplink
payloads lose their packet independently with a fixed probability;
survival is drawn only when that probability is strictly between 0 and 1,
from a generator the caller owns, so netsim holds no randomness of its own.
The channel settings are read by name from the ExperimentConfig.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotation only: netsim needs nothing of config at run time
    from .config import ExperimentConfig

DENSE_BITS_PER_VALUE = 64  # the model is held, broadcast and sent dense as float64


def uplink_rates(cfg: ExperimentConfig) -> np.ndarray:
    """Every worker's uplink bit rate, an (M,) array: the override if set,
    else Shannon.  A scalar setting gives every worker the same rate."""
    rates = cfg.uplink_rate_bps
    if rates is None:
        rates = [cfg.bandwidth_hz * math.log2(1.0 + snr)
                 for snr in np.full(cfg.workers, cfg.snr).tolist()]
    return np.full(cfg.workers, rates, dtype=np.float64)


def uplink_time(bits: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Seconds to push each worker's payload: bits[j] bits at rates[j]."""
    if (bits < 0).any():
        raise ValueError(f"bits must be >= 0, got {bits}")
    return bits / rates


def downlink_time(bits: int, cfg: ExperimentConfig) -> float:
    """Seconds to broadcast `bits` bits to every worker at once."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    return bits / cfg.downlink_rate_bps


def round_time(compute_s: float, uplink_s: list[float], downlink_s: float) -> float:
    """Straggler round time: the workers' shared compute time plus the
    slowest uplink, plus the downlink.  Rounding is monotone, so this is
    max_j (compute_s + uplink_s[j]) + downlink_s to the bit."""
    if not uplink_s:
        raise ValueError("uplink_s must be a non-empty list")
    total = compute_s + max(uplink_s) + downlink_s
    if not total > 0:
        raise ValueError(f"round time must be > 0 s, got {total}")
    return total


def packets_survive(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Which of a round's uplink packets arrive, one per worker, in worker
    order over cfg.workers; each is lost with probability packet_failure_prob.

    At packet_failure_prob 0 every packet survives and at 1 none does, so no
    draw is made.  Otherwise the round takes cfg.workers uniforms from `rng`.
    """
    p = cfg.packet_failure_prob
    if p in (0.0, 1.0):
        return np.full(cfg.workers, p == 0.0)
    return rng.random(cfg.workers) >= p
