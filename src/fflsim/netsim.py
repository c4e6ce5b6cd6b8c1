"""Simulated wireless links and round timing.

Uplink rates follow the Shannon capacity W * log2(1 + snr), with snr a
ratio, unless a direct bit-rate override is configured; both accept
per-worker lists.  The rates are fixed at set-up: uplink_rates builds all M
of them once, as an (M,) array that the experiment holds.  round_cost is
the clock's one cost model, and the only reader of sec_per_local_step and
downlink_rate_bps: from tau, each worker's upload bits
(compress.payload_bits for a compressed payload, DENSE_BITS_PER_VALUE per
value for a dense vector) and the broadcast bits (the dense model), it
returns a round's compute, slowest-uplink, downlink and total seconds.
Each upload costs its bits over its worker's rate, the broadcast its bits
over the downlink rate, and every worker runs the round's tau local steps
at the same speed, so a round costs that one compute time, the slowest
uplink and one shared downlink.  Uplink payloads lose their packet
independently with a fixed probability; survival is drawn only when that
probability is strictly between 0 and 1, from a generator the caller owns,
so netsim holds no randomness of its own.
The channel settings are read by name from the ExperimentConfig.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

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


class RoundCost(NamedTuple):
    """A round's simulated seconds, named like the RoundRecord columns."""

    compute_max_s: float
    uplink_max_s: float
    downlink_s: float
    round_time_s: float


def round_cost(cfg: ExperimentConfig, rates: np.ndarray, tau: int,
               upload_bits: np.ndarray, broadcast_bits: int) -> RoundCost:
    """What a round of tau local steps costs: upload_bits[j] pushed at
    rates[j] by each worker and broadcast_bits sent to all at once.

    Straggler timing: the workers' shared compute time plus the slowest
    uplink, plus the downlink.  Rounding is monotone, so the total is
    max_j (compute + uplink_j) + downlink to the bit."""
    if not ((upload_bits >= 0).all() and broadcast_bits >= 0):
        raise ValueError(f"bits must be >= 0, got {upload_bits} and {broadcast_bits}")
    if not upload_bits.size:
        raise ValueError("upload_bits must be non-empty: a round has workers")
    compute = tau * cfg.sec_per_local_step
    uplink = float((upload_bits / rates).max())
    downlink = broadcast_bits / cfg.downlink_rate_bps
    total = compute + uplink + downlink
    if not total > 0:
        raise ValueError(f"round time must be > 0 s, got {total}")
    return RoundCost(compute, uplink, downlink, total)


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
