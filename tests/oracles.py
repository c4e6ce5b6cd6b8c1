"""Independent oracles used by the test suite.

Everything here re-derives expected values through a different route than
the library: one-sided Jacobi rotations instead of the LAPACK SVD, central
finite differences instead of backprop, projected gradient descent instead
of the closed-form probabilities, a row-by-row budget clip instead of the
one that clips every row at once, and straight-line formula transcriptions
instead of the shared implementations.  The projected-gradient minimizer
and its exact budget-box projection are the ones `fflsim selftest` runs,
shared rather than copied; their earlier np.clip / np.sum / np.searchsorted
form is kept here as the reference that the selftest's loop over Python
floats, with its sum in np.add.reduce's order and its bisection over the
knots, must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from fflsim import selftest
from fflsim.selftest import project_budget_box  # noqa: F401


def jacobi_singular_values(mat: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """All singular values, descending, via one-sided Jacobi rotations."""
    a = np.asarray(mat, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    u = a.copy()
    n = u.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(u[:, p] @ u[:, p])
                aqq = float(u[:, q] @ u[:, q])
                apq = float(u[:, p] @ u[:, q])
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
        if not rotated:
            break
    values = np.sqrt((u * u).sum(axis=0))
    return np.sort(values)[::-1]


def finite_diff_gradient(loss_fn, flat: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = loss_fn(bumped)
        bumped[i] -= 2.0 * h
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def minimize_variance_numeric(lam: np.ndarray, s: float, iters: int = 2000) -> float:
    """The selftest's projected-gradient minimum of sum_i lambda_i^2 / p_i
    over the budget box, at 2000 iterations."""
    return selftest.minimize_variance_numeric(lam, s, iters)


def project_budget_box_reference(p: np.ndarray, s: float, lo: float = 1e-12) -> np.ndarray:
    """The selftest's budget-box projection written with np.clip, np.sum
    and np.searchsorted."""
    knots = np.sort(np.concatenate((p - 1.0, p - lo)))
    totals = np.clip(p - knots[:, None], lo, 1.0).sum(axis=1)
    j = int(np.searchsorted(-totals, -s))
    if j == 0:
        return np.ones_like(p)
    if j == knots.size:
        return np.full_like(p, lo)
    k0, k1, t0, t1 = knots[j - 1], knots[j], totals[j - 1], totals[j]
    return np.clip(p - (k0 + (t0 - s) * (k1 - k0) / (t0 - t1)), lo, 1.0)


def minimize_variance_reference(lam: np.ndarray, s: float, iters: int = 4000) -> float:
    """The selftest's projected-gradient minimum written with np.clip and
    np.sum, through project_budget_box_reference."""
    lam2 = lam**2
    p = project_budget_box_reference(np.full(lam.size, s / lam.size), s)
    best = float(np.sum(lam2 / p))
    step = 0.1 / max(1.0, lam2.max())
    for it in range(iters):
        grad = -lam2 / p**2
        p = project_budget_box_reference(p - step * grad / (1.0 + it / 50.0), s)
        best = min(best, float(np.sum(lam2 / p)))
    return best


def clipped_reference(lam: np.ndarray, s: float) -> np.ndarray:
    """Keep probabilities of one row's |coefficients| lam under budget
    s < lam.size, clipped one row at a time: each round sums the row's
    active coefficients, clips every atom with lam * budget > l1 to p = 1
    and takes the clipped atoms out of the budget."""
    n = lam.size
    p = np.ones(n)
    active = np.ones(n, dtype=bool)
    budget = float(s)
    while True:
        l1 = lam[active].sum()
        oversized = active & (lam * budget > l1)
        if not oversized.any():
            break
        budget -= int(oversized.sum())
        active &= ~oversized
        if not active.any():
            break
    if active.any():
        l1 = lam[active].sum()
        p[active] = lam[active] * (budget / l1)
    return p


def probabilities_reference(counts, coeffs: np.ndarray, s: float) -> np.ndarray:
    """Keep probabilities of rows of `counts` atoms each, their coefficients
    row after row, through clipped_reference row by row; a row with at most
    s atoms keeps them all."""
    lam = np.abs(coeffs)
    p = np.ones(lam.size)
    bounds = [0, *np.cumsum(counts).tolist()]
    for lo, hi in zip(bounds, bounds[1:]):
        if s < hi - lo:
            p[lo:hi] = clipped_reference(lam[lo:hi], s)
    return p


def mlp_forward_reference(weights, biases, activation: str, x: np.ndarray) -> np.ndarray:
    """Straight-line re-implementation of the MLP forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(weights) - 1):
        z = h @ weights[i] + biases[i]
        h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
    return h @ weights[-1] + biases[-1]


def cross_entropy_reference(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy computed the naive way."""
    total = 0.0
    for row, y in zip(logits, labels):
        shifted = row - row.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        total += -np.log(probs[y])
    return total / len(labels)


def psi_reference(tau, s, eta, L, sigma1, sigma2, alpha, M, T, F, F_inf, Y) -> float:
    """Straight-line transcription of the per-round error bound."""
    first = 2.0 * (F - F_inf) / (eta * T) * (Y + alpha * s / tau)
    second = eta * L * (sigma1 / s + sigma2) / M
    third = eta**2 * L**2 * (sigma1 / s + sigma2) * (tau - 1.0)
    return first + second + third


def draw_smooth_regime(rng):
    """One random parameter draw inside the smooth-regime assumptions the
    error-bound curvature analysis relies on:

      - at least two local steps (tau >= 2),
      - small step size (eta*L*tau*M <= 1.6, which also keeps eta^5 ~ 0 and
        eta*L*(tau-1) well under 1),
      - communication cost small enough that 2*eta^2*L*T*sigma1*tau is at
        least twice alpha*M*s^2*(F - F_inf) (a 2x slack on the stated
        inequality, absorbing the quartic cross term of the determinant).

    Returns (kwargs-for-bound-params, tau, s, F) with F_inf = 0; alpha is set
    from the slack condition so every draw satisfies it by construction.
    """
    while True:
        eta = float(rng.uniform(0.002, 0.02))
        L = float(rng.uniform(0.1, 1.0))
        M = int(rng.integers(4, 17))
        tau = int(rng.integers(2, 21))
        if eta * L * tau * M <= 1.6:
            break
    T = float(rng.uniform(50.0, 1000.0))
    sigma1 = float(rng.uniform(0.5, 50.0))
    s = float(rng.uniform(1.0, 9.0))
    s_ub = 9.0
    sigma2 = float(rng.uniform(-0.9, 0.5)) * sigma1 / s_ub
    F = float(rng.uniform(0.05, 5.0))
    Y = float(rng.uniform(0.0, 0.05))
    alpha = 2.0 * eta**2 * L * T * sigma1 * tau / (2.0 * M * s**2 * F)
    params = dict(eta=eta, L=L, sigma1=sigma1, sigma2=sigma2, alpha=alpha,
                  M=M, T_k=T, Y_k=Y, F_inf=0.0)
    return params, tau, s, F
