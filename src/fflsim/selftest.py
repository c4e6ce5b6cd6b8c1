"""Fast self-checks of the statistical and analytic properties.

Each check re-verifies one load-bearing claim with an independent method:
Monte Carlo for the estimator moments, a projected-gradient minimizer for
the selection probabilities, central finite differences for backprop, and
direct ratio arithmetic for the schedule.  The full test suite runs larger
versions of the same checks; this subset is sized to finish in seconds.
The projected-gradient loop works on a few values at a time, so it runs on
lists of Python floats, where numpy's per-call dispatch would outweigh the
arithmetic.  It sums in np.add.reduce's order and finds the projection's knot
by bisection; its results match the np.clip / np.sum / np.searchsorted form
bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import compress, nn, schedule
from .data import MiniBatch

_CHUNK = 10_000  # Monte Carlo rows reconstructed per call
_LO = 1e-12  # the budget box's floor


def _reduce_sum(xs: list[float]) -> float:
    """Sum of floats, rounded as np.add.reduce rounds a contiguous float64
    vector: fewer than 8 values in sequence, up to 128 in 8 pairwise lanes,
    more as two halves cut at a multiple of 8."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in xs[tail:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _reduce_sum(xs[:half]) + _reduce_sum(xs[half:])


def _shifted_clip(p: list[float], shift: float, lo: float) -> list[float]:
    """min(max(x - shift, lo), 1.0) for each x in p, written as comparisons,
    which give the same floats faster."""
    return [lo if (y := x - shift) < lo else 1.0 if y > 1.0 else y for x in p]


def _project(p: list[float], s: float, lo: float) -> list[float]:
    """project_budget_box on a list of floats."""
    knots = [x - 1.0 for x in p] + [x - lo for x in p]
    knots.sort()
    # bisect for the first knot whose sum is <= s; the sums are non-increasing
    # as computed too: each clipped entry is, and rounding keeps order
    j, end = 0, len(knots)
    t0 = t1 = 0.0  # the sums at knots j - 1 and end, once computed
    while j < end:
        mid = (j + end) // 2
        t = _reduce_sum(_shifted_clip(p, knots[mid], lo))
        if t <= s:
            end, t1 = mid, t
        else:
            j, t0 = mid + 1, t
    if j == 0:  # s >= n: every entry at its cap
        return [1.0] * len(p)
    if j == len(knots):  # s <= n * lo: every entry at its floor
        return [lo] * len(p)
    # t0 > s >= t1, so the segment is not flat
    k0, k1 = knots[j - 1], knots[j]
    shift = k0 + (t0 - s) * (k1 - k0) / (t0 - t1)
    return _shifted_clip(p, shift, lo)


def project_budget_box(p: np.ndarray, s: float, lo: float = _LO) -> np.ndarray:
    """Euclidean projection onto {sum x = s, lo <= x <= 1}: clip(p - shift, lo, 1)
    for the Lagrange shift whose clipped sum is s.

    The clipped sum is piecewise linear and non-increasing in the shift, with
    knots at p - 1 and p - lo.  A bisection over the sorted knots finds the
    segment whose end sums bracket s, and the shift is interpolated on it.
    """
    return np.array(_project(p.tolist(), s, lo), dtype=np.float64)


def minimize_variance_numeric(lam: np.ndarray, s: float, iters: int = 4000) -> float:
    """Projected-gradient minimum of sum lambda_i^2 / p_i over the budget box."""
    lam2 = [x * x for x in lam.tolist()]
    neg_lam2 = [-a for a in lam2]
    p = _project([s / lam.size] * lam.size, s, _LO)
    best = _reduce_sum([a / b for a, b in zip(lam2, p)])
    step = 0.1 / max(1.0, max(lam2))
    for it in range(iters):
        # the gradient -lambda^2 / p^2, scaled by a step that decays with it
        decay = 1.0 + it / 50.0
        p = _project([x - step * (a / (x * x)) / decay for a, x in zip(neg_lam2, p)], s, _LO)
        value = _reduce_sum([a / b for a, b in zip(lam2, p)])
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
