"""Fast self-checks of the statistical and analytic properties.

Each check re-verifies one load-bearing claim with an independent method:
Monte Carlo for the estimator moments, a Lagrange-dual certificate for the
selection probabilities, central finite differences for backprop, and
direct ratio arithmetic for the schedule.  Each Monte Carlo check
reconstructs all its draws in one compress.reconstruct_rows call, an array
of at most about 8 MB.  The full test suite runs larger versions of the
same checks; this subset is sized to finish in seconds.

The projected-gradient oracle here is not a selftest check: criterion 03
and the benchmark's selftest_oracle workload run it, and
tests/oracles.py shares it and builds its budget-box projection on
_project.  It takes 1-7 values, where numpy's per-call
dispatch would outweigh the arithmetic, so it runs on lists of Python
floats.  numpy adds fewer than 8 values in sequence, so adding each sum in
order as its terms are made gives np.sum's bits.  Every projection is one
_project call, given the index of the knot that bracketed the budget in the
previous iteration: a small step rarely moves it, so one pass over the
values sums at that knot and the one before, and a second builds the
projection and the objective.  Only a cold start or a moved bracket
bisects all the sorted knots.  The results match the np.clip / np.sum /
np.searchsorted form bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import compress, nn, schedule
from .data import MiniBatch

_LO = 1e-12  # the budget box's floor


def _values(x: np.ndarray, s: float) -> list[float]:
    """x as a list of Python floats, refused unless it holds 1-7 of them
    (from 8 values on, numpy no longer adds in the order _project does) and
    n values in [_LO, 1] can sum to the budget s: s must lie between the
    sums _project reaches at its two ends, n floors added in order and n
    ones."""
    n = x.size
    if not 1 <= n <= 7:
        raise ValueError(f"the selftest oracle takes 1-7 values, got {n}")
    low = 0.0
    for _ in range(n):
        low += _LO
    if not low <= s <= n:
        raise ValueError(f"budget s = {s} is outside [{low}, {n}], the sums of "
                         f"{n} values in [{_LO}, 1]")
    return x.tolist()


def _clipped_sum(q: list[float], shift: float, lo: float) -> float:
    """The sum of min(max(x - shift, lo), 1.0) over q, added in order; the
    comparisons give the same floats as min and max, faster."""
    total = 0.0
    for x in q:
        total += lo if (y := x - shift) < lo else 1.0 if y > 1.0 else y
    return total


def _project(
    q: list[float], s: float, lo: float, j: int, lam2: list[float]
) -> tuple[list[float], int, float]:
    """The projection p of q onto {sum x = s, lo <= x <= 1}, the index of the
    first sorted knot whose clipped sum is <= s, and sum lam2 / p.  The hint
    j is the index the previous projection returned, or 0 for none.

    p is clip(q - shift, lo, 1) for the Lagrange shift whose clipped sum is
    s.  That sum is piecewise linear and non-increasing in the shift, with
    knots at q - 1 and q - lo.  One pass sums at the hinted knots j - 1 and
    j; when they no longer bracket s, or j is an end knot, a bisection over
    all the knots finds the bracket.  The sums are non-increasing as
    computed too, since each clipped entry is and rounding keeps order, so
    the bracket is unique and any hint gives the same bits.
    """
    n2 = 2 * len(q)
    knots = [x - 1.0 for x in q] + [x - lo for x in q]
    knots.sort()
    t0 = t1 = 0.0  # the sums at knots j - 1 and j; 0.0 > s >= 0.0 never holds
    if 0 < j < n2:
        k0, k1 = knots[j - 1], knots[j]
        for x in q:
            t0 += lo if (y := x - k0) < lo else 1.0 if y > 1.0 else y
            t1 += lo if (y := x - k1) < lo else 1.0 if y > 1.0 else y
    if not t0 > s >= t1:
        j, end = 0, n2
        while j < end:
            mid = (j + end) // 2
            k = knots[mid]
            t = _clipped_sum(q, k, lo)
            if t <= s:
                end, k1, t1 = mid, k, t
            else:
                j, k0, t0 = mid + 1, k, t
    if 0 < j < n2:  # t0 > s >= t1 at knots k0 and k1, so the segment is not flat
        shift = k0 + (t0 - s) * (k1 - k0) / (t0 - t1)
    else:  # s >= n puts every entry at its cap, s <= n * lo at its floor
        shift = -math.inf if j == 0 else math.inf
    p = []
    value = 0.0
    for x, a in zip(q, lam2):
        y = lo if (y := x - shift) < lo else 1.0 if y > 1.0 else y
        p.append(y)
        value += a / y
    return p, j, value


def minimize_variance_numeric(lam: np.ndarray, s: float, iters: int = 4000) -> float:
    """Projected-gradient minimum of sum lambda_i^2 / p_i over the budget box,
    for 1-7 values and a budget the box can meet (else ValueError).  Each
    iteration is one _project call, hinted with the previous projection's
    bracket."""
    lam2 = [x * x for x in _values(lam, s)]
    neg_lam2 = [-a for a in lam2]
    p, j, best = _project([s / lam.size] * lam.size, s, _LO, 0, lam2)
    step = 0.1 / max(1.0, max(lam2))
    for it in range(iters):
        # the gradient -lambda^2 / p^2, scaled by a step that decays with it
        decay = 1.0 + it / 50.0
        q = [x - step * (a / (x * x)) / decay for a, x in zip(neg_lam2, p)]
        p, j, value = _project(q, s, _LO, j, lam2)
        if value < best:
            best = value
    return best


def _check_unbiasedness() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    g = rng.standard_normal(24) * np.exp(rng.standard_normal(24))
    decomp = compress.decompose_elementwise(g)
    probs = compress.probabilities(decomp, 6.0)
    n = 20000
    masks = rng.random((n, decomp.n_atoms)) < probs.probs
    vecs = compress.reconstruct_rows(decomp, probs, masks)
    mean = vecs.sum(axis=0) / n
    var = np.maximum((vecs**2).sum(axis=0) / n - mean**2, 0.0)
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
        masks = rng.random((n, decomp.n_atoms)) < probs.probs
        diff = compress.reconstruct_rows(decomp, probs, masks) - decomp.reconstruct_full()
        emp = float(np.sum(diff * diff)) / n
        if closed > 0:
            worst = max(worst, abs(emp - closed) / closed)
    ok = worst <= 0.08
    return ok, f"worst relative variance gap = {worst:.3f}"


def probability_trials() -> list[tuple[np.ndarray, float]]:
    """The (lam, s) draws of the probability-optimality check: ten trials of
    2-6 values, the first three with one value large enough to be clipped."""
    rng = np.random.default_rng(13)
    trials = []
    for trial in range(10):
        size = int(rng.integers(2, 7))
        lam = np.exp(rng.standard_normal(size))
        if trial < 3:  # force clipping cases too
            lam[0] *= 20.0
        trials.append((lam, float(rng.uniform(1.0, size))))
    return trials


def closed_form_duality_gap(lam: np.ndarray, s: float) -> tuple[float, float]:
    """The closed form's objective sum(lam^2 / p) and its gap to the Lagrange
    dual g(nu) = sum(lam^2 / q + nu * q) - nu * s, where q = clip(lam /
    sqrt(nu), lo, 1) minimizes the Lagrangian over the box and nu is the
    largest lam^2 / p^2 over the unclipped entries.  Every feasible objective
    is at least g(nu), so a gap of 0 proves p optimal from both sides.  A
    draw whose every entry the closed form clips to 1 sets no nu: ValueError."""
    p = compress.probabilities(compress.decompose_elementwise(lam), s).probs
    primal = float(np.sum(lam**2 / p))
    free = p < 1.0
    if not free.any():
        raise ValueError(f"budget s = {s} clips all {lam.size} values to 1, so no entry sets nu")
    nu = float(np.max(lam[free] ** 2 / p[free] ** 2))
    q = np.clip(lam / math.sqrt(nu), _LO, 1.0)
    return primal, primal - (float(np.sum(lam**2 / q + nu * q)) - nu * s)


def _check_probability_optimality() -> tuple[bool, str]:
    worst = 0.0
    for lam, s in probability_trials():
        primal, gap = closed_form_duality_gap(lam, s)
        worst = max(worst, abs(gap) / primal)
    return worst <= 1e-12, f"max relative gap to the Lagrange dual = {worst:.2e}"


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
