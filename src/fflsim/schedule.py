"""Round planning: picking local steps tau_k and sparsity budget s_k.

The paper's per-round error bound is

    psi(tau, s) = A * (Y + alpha * s / tau) + (B + C * (tau - 1)) * (sigma1 / s + sigma2)

with A = 2 * (F_k - F_inf) / (eta * T), B = eta * L / M and C = (eta * L)^2.
`optimal_full` is the exact minimizer of psi (for every integer tau it takes
the exact minimizer over s, which psi's convexity in s gives in closed form,
and keeps the best pair); acceptance criterion 07 checks it against a grid.
Runs plan with `plan_next`, the constant-free cube-root schedule
tau_k ~ F_k^(1/3), s_k ~ F_k^(-1/3) driven by the smoothed training loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class BoundParams:
    """Constants of the per-round error bound.

    Y_k is the computation time per local update in seconds; alpha the
    transmission seconds per atom; T_k the wall-clock budget the bound is
    evaluated over.  Every field must be finite; sigma2 has no other rule.
    """

    eta: float
    L: float
    sigma1: float
    sigma2: float
    alpha: float
    M: int
    T_k: float
    Y_k: float
    F_inf: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.L > 0:
            raise ValueError(f"L must be > 0, got {self.L}")
        if not self.sigma1 >= 0:
            raise ValueError(f"sigma1 must be >= 0, got {self.sigma1}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.M >= 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not self.T_k > 0:
            raise ValueError(f"T_k must be > 0, got {self.T_k}")
        if not self.Y_k >= 0:
            raise ValueError(f"Y_k must be >= 0, got {self.Y_k}")
        if not self.F_inf >= 0:
            raise ValueError(f"F_inf must be >= 0, got {self.F_inf}")


@dataclass
class RoundPlan:
    tau_k: int
    s_k: float

    def __post_init__(self) -> None:
        if not self.tau_k >= 1:
            raise ValueError(f"tau_k must be >= 1, got {self.tau_k}")
        if not self.s_k >= 1:
            raise ValueError(f"s_k must be >= 1, got {self.s_k}")


@dataclass
class SchedulerState:
    """Mutable schedule state: anchors (tau0, s0, F0), bounds, and the
    exponentially smoothed loss.  loss_smoothing is the weight kept on the
    previous smoothed value (0 disables smoothing)."""

    tau0: int
    s0: float
    tau_ub: int
    s_ub: float
    loss_smoothing: float = 0.3
    F0: float | None = None
    smoothed: float | None = None

    def __post_init__(self) -> None:
        if self.tau_ub < 1 or not 1 <= self.tau0 <= self.tau_ub:
            raise ValueError(
                f"need 1 <= tau0 <= tau_ub, got tau0={self.tau0}, tau_ub={self.tau_ub}"
            )
        if self.s_ub < 1 or not 1 <= self.s0 <= self.s_ub:
            raise ValueError(f"need 1 <= s0 <= s_ub, got s0={self.s0}, s_ub={self.s_ub}")
        if not 0.0 <= self.loss_smoothing < 1.0:
            raise ValueError(f"loss_smoothing must be in [0, 1), got {self.loss_smoothing}")
        if self.F0 is not None and not self.F0 > 0:
            raise ValueError(f"F0 must be > 0, got {self.F0}")


def _abc(p: BoundParams, F_k: float) -> tuple[float, float, float]:
    a = 2.0 * (F_k - p.F_inf) / (p.eta * p.T_k)
    b = p.eta * p.L / p.M
    c = (p.eta * p.L) ** 2
    return a, b, c


def psi(tau: float, s: float, p: BoundParams, F_k: float) -> float:
    """The per-round error bound at real-valued (tau, s)."""
    if not (tau >= 1 and s >= 1):
        raise ValueError(f"psi needs tau >= 1 and s >= 1, got tau={tau}, s={s}")
    if not F_k >= p.F_inf:
        raise ValueError(f"F_k={F_k} below F_inf={p.F_inf}")
    a, b, c = _abc(p, F_k)
    noise = p.sigma1 / s + p.sigma2
    return a * (p.Y_k + p.alpha * s / tau) + b * noise + c * noise * (tau - 1.0)


def hessian_check(tau: float, s: float, p: BoundParams, F_k: float) -> tuple[bool, np.ndarray]:
    """(is positive semidefinite, the exact 2x2 Hessian of psi in (tau, s));
    PSD means both diagonal entries are non-negative and the determinant
    is >= -1e-12."""
    a, b, c = _abc(p, F_k)
    h_tt = 2.0 * a * p.alpha * s / tau**3
    h_ts = -a * p.alpha / tau**2 - c * p.sigma1 / s**2
    h_ss = 2.0 * b * p.sigma1 / s**3 + 2.0 * c * (tau - 1.0) * p.sigma1 / s**3
    det = h_tt * h_ss - h_ts * h_ts
    psd = h_tt >= 0.0 and h_ss >= 0.0 and det >= -1e-12
    return psd, np.array([[h_tt, h_ts], [h_ts, h_ss]])


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _exact_s_given_tau(tau: float, p: BoundParams, F_k: float, s_ub: float) -> float:
    """Unique minimizer of psi over s in [1, s_ub] for a fixed tau.

    psi is convex in s (d2psi/ds2 = 2 (B + C (tau-1)) sigma1 / s^3 >= 0), so
    the clamped stationary point sqrt((B + C (tau-1)) sigma1 tau / (A alpha))
    is the constrained optimum.
    """
    a, b, c = _abc(p, F_k)
    if p.sigma1 == 0.0:
        return 1.0  # psi is increasing in s once the 1/s term vanishes
    if a <= 0.0:
        return s_ub  # no s-cost left, push the variance term down
    s_star = math.sqrt((b + c * (tau - 1.0)) * p.sigma1 * tau / (a * p.alpha))
    return _clamp(s_star, 1.0, s_ub)


def optimal_full(p: BoundParams, F_k: float, tau_ub: int, s_ub: float) -> RoundPlan:
    """Exact minimizer of psi over {1..tau_ub} x [1, s_ub]: the exact optimal
    s for every integer tau, and the pair with the smallest psi."""
    if not F_k >= p.F_inf:
        raise ValueError(f"F_k={F_k} below F_inf={p.F_inf}")
    if not (tau_ub >= 1 and s_ub >= 1):
        raise ValueError(f"need tau_ub >= 1 and s_ub >= 1, got {tau_ub}, {s_ub}")
    candidates = [(t, _exact_s_given_tau(float(t), p, F_k, s_ub)) for t in range(1, tau_ub + 1)]
    best = min(candidates, key=lambda c: psi(c[0], c[1], p, F_k))
    return RoundPlan(best[0], float(best[1]))


def observe_loss(state: SchedulerState, F_k: float) -> float:
    """Fold a fresh loss observation into the smoothed loss; anchors F0 on
    the first observation if it was not preset.  Returns the smoothed loss."""
    if not math.isfinite(F_k) or F_k <= 0:
        raise ValueError(f"loss observation must be finite and > 0, got {F_k}")
    if state.smoothed is None:
        state.smoothed = float(F_k)
    else:
        c = state.loss_smoothing
        state.smoothed = c * state.smoothed + (1.0 - c) * float(F_k)
    if state.F0 is None:
        state.F0 = state.smoothed
    return state.smoothed


def conclusive_raw(F_hat: float, F0: float, tau0: float, s0: float) -> tuple[float, float]:
    """Pre-clamp, pre-rounding cube-root schedule values:
    tau = (F_hat / F0)^(1/3) * tau0 and s = (F0 / F_hat)^(1/3) * s0."""
    if not (F_hat > 0 and F0 > 0):
        raise ValueError(f"losses must be > 0, got F_hat={F_hat}, F0={F0}")
    ratio = (F_hat / F0) ** (1.0 / 3.0)
    return ratio * tau0, s0 / ratio


def plan_next(state: SchedulerState, F_k: float) -> RoundPlan:
    """Cube-root schedule step: smooth the loss, scale (tau0, s0) by the
    smoothed-loss ratio, round tau to the nearest integer (ties to even) and
    clamp both to their bounds."""
    f_hat = observe_loss(state, F_k)
    raw_tau, raw_s = conclusive_raw(f_hat, state.F0, state.tau0, state.s0)
    tau = int(_clamp(round(raw_tau), 1, state.tau_ub))
    s = _clamp(raw_s, 1.0, state.s_ub)
    return RoundPlan(tau, s)
