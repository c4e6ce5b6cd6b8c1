"""Fast self-checks of the statistical and analytic properties.

Each check re-verifies one load-bearing claim with an independent method:
Monte Carlo for the estimator moments, a projected-gradient minimizer for
the selection probabilities, central finite differences for backprop, and
direct ratio arithmetic for the schedule.  The full test suite runs larger
versions of the same checks; this subset is sized to finish in seconds.
The projected-gradient loop calls ufuncs directly, since np.clip/np.sum's
dispatch outweighs its few-value arithmetic; the results match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import compress, nn, schedule
from .data import MiniBatch

_CHUNK = 10_000  # Monte Carlo rows reconstructed per call


def project_budget_box(p: np.ndarray, s: float, lo: float = 1e-12) -> np.ndarray:
    """Euclidean projection onto {sum x = s, lo <= x <= 1}: clip(p - shift, lo, 1)
    for the Lagrange shift whose clipped sum is s.

    The clipped sum is piecewise linear and non-increasing in the shift, with
    knots at p - 1 and p - lo.  It is evaluated at every knot; the shift is
    interpolated on the segment whose end sums bracket s.
    """
    knots = np.concatenate((p - 1.0, p - lo))
    knots.sort()
    # non-increasing as computed too: each clipped entry is, and rounding keeps order
    totals = np.add.reduce(np.minimum(np.maximum(p - knots[:, None], lo), 1.0), axis=1)
    j = int((-totals).searchsorted(-s))  # first knot whose sum is <= s
    if j == 0:  # s >= n: every entry at its cap
        return np.ones_like(p)
    if j == knots.size:  # s <= n * lo: every entry at its floor
        return np.full_like(p, lo)
    # totals[j - 1] > s >= totals[j], so the segment is not flat
    k0, k1 = knots[j - 1 : j + 1].tolist()
    t0, t1 = totals[j - 1 : j + 1].tolist()
    return np.minimum(np.maximum(p - (k0 + (t0 - s) * (k1 - k0) / (t0 - t1)), lo), 1.0)


def minimize_variance_numeric(lam: np.ndarray, s: float, iters: int = 4000) -> float:
    """Projected-gradient minimum of sum lambda_i^2 / p_i over the budget box."""
    lam2 = lam**2
    neg_lam2 = -lam2
    p = project_budget_box(np.full(lam.size, s / lam.size), s)
    best = float(np.add.reduce(lam2 / p))
    step = 0.1 / max(1.0, float(lam2.max()))
    for it in range(iters):
        # the gradient -lambda^2 / p^2, scaled by a step that decays with it
        p = project_budget_box(p - step * (neg_lam2 / (p * p)) / (1.0 + it / 50.0), s)
        value = float(np.add.reduce(lam2 / p))
        if value < best:
            best = value
    return best


def _check_unbiasedness() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    g = rng.standard_normal(24) * np.exp(rng.standard_normal(24))
    decomp = compress.decompose_elementwise(g)
    probs = compress.probabilities(decomp, 6.0)
    n = 20000
    total = np.zeros(decomp.dim)
    total_sq = np.zeros(decomp.dim)
    masks = rng.random((n, decomp.n_atoms)) < probs.probs
    for start in range(0, n, _CHUNK):
        vecs = compress.reconstruct_rows(decomp, probs, masks[start : start + _CHUNK])
        total += vecs.sum(axis=0)
        total_sq += (vecs**2).sum(axis=0)
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0)
    stderr = np.sqrt(var / n)
    gap = np.abs(mean - decomp.reconstruct_full())
    ok = bool(np.all(gap <= 3.0 * stderr + 1e-9))
    return ok, f"max |mean - g| = {gap.max():.2e}"


def _check_variance_law() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        size = int(rng.integers(5, 20))
        g = rng.standard_normal(size) * np.exp(rng.standard_normal(size))
        decomp = compress.decompose_elementwise(g)
        s = float(rng.uniform(1.0, size))
        probs = compress.probabilities(decomp, s)
        closed = compress.variance_closed_form(decomp, probs)
        n = 50000
        dense = decomp.reconstruct_full()
        acc = 0.0
        masks = rng.random((n, decomp.n_atoms)) < probs.probs
        for start in range(0, n, _CHUNK):
            diff = compress.reconstruct_rows(decomp, probs, masks[start : start + _CHUNK]) - dense
            acc += float(np.sum(diff * diff))
        emp = acc / n
        if closed > 0:
            worst = max(worst, abs(emp - closed) / closed)
    ok = worst <= 0.08
    return ok, f"worst relative variance gap = {worst:.3f}"


def _check_probability_optimality() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = -np.inf
    for trial in range(10):
        size = int(rng.integers(2, 7))
        lam = np.exp(rng.standard_normal(size))
        if trial < 3:  # force clipping cases too
            lam[0] *= 20.0
        s = float(rng.uniform(1.0, size))
        decomp = compress.decompose_elementwise(lam)
        probs = compress.probabilities(decomp, s)
        closed = float(np.sum(lam**2 / probs.probs))
        numeric = minimize_variance_numeric(lam, s)
        worst = max(worst, closed - numeric)
    ok = worst <= 1e-6
    return ok, f"max closed-form excess over numeric minimum = {worst:.2e}"


def _check_gradient() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    worst = 0.0
    for sizes in ((4, 6, 3), (5, 4, 4, 2)):
        spec = nn.MlpSpec(sizes, "tanh")
        params = nn.init_params(spec, rng)
        batch = MiniBatch(rng.standard_normal((6, sizes[0])), rng.integers(0, sizes[-1], 6))
        _, grad = nn.loss_and_grad(params, batch)
        flat = params.flatten()
        gflat = grad.flatten()
        h = 1e-5
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += h
            up, _ = nn.loss_and_grad(params.from_flat(bumped), batch)
            bumped[i] -= 2 * h
            down, _ = nn.loss_and_grad(params.from_flat(bumped), batch)
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
    ok = worst < 1e-4
    return ok, f"max relative gradient error = {worst:.2e}"


def _check_schedule() -> tuple[bool, str]:
    state = schedule.SchedulerState(tau0=30, s0=5.0, tau_ub=30, s_ub=9.0, loss_smoothing=0.0, F0=2.0)
    plan = schedule.plan_next(state, 0.25)
    if (plan.tau_k, plan.s_k) != (15, 9.0):
        return False, f"expected (15, 9.0), got {(plan.tau_k, plan.s_k)}"
    fa, fb = 1.7, 0.23
    tau_a, s_a = schedule.conclusive_raw(fa, 2.0, 30, 5.0)
    tau_b, s_b = schedule.conclusive_raw(fb, 2.0, 30, 5.0)
    ratio = (fa / fb) ** (1.0 / 3.0)
    if abs(tau_a / tau_b - ratio) > 1e-12 or abs(s_b / s_a - ratio) > 1e-12:
        return False, "cube-root ratio law violated"
    losses = np.linspace(2.0, 0.05, 40)
    raw = [schedule.conclusive_raw(f, 2.0, 30, 5.0) for f in losses]
    taus = [r[0] for r in raw]
    esses = [r[1] for r in raw]
    monotone = all(a >= b for a, b in zip(taus, taus[1:])) and all(
        a <= b for a, b in zip(esses, esses[1:])
    )
    return monotone, "identity, ratio law, and monotonicity hold"


def run_selftest() -> bool:
    checks = [
        ("compression unbiasedness", _check_unbiasedness),
        ("compression variance law", _check_variance_law),
        ("selection probability optimality", _check_probability_optimality),
        ("backprop gradient check", _check_gradient),
        ("cube-root schedule", _check_schedule),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
