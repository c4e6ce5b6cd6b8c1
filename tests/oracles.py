"""Independent oracles used by the test suite.

Everything here re-derives expected values through a different route than
the library: one-sided Jacobi rotations instead of the LAPACK SVD, central
finite differences instead of backprop, projected gradient descent instead
of the closed-form probabilities, a row-by-row budget clip instead of the
one that clips every row at once, a dense divide-and-mask reconstruction
instead of the one that places the kept atoms alone, a greedy by_class
deal instead of the round-robin one, a payload's wire form written out
byte by byte instead of payload_bits' count of its size, and straight-line
formula transcriptions instead of the shared implementations.

The projected-gradient minimizer lives in `fflsim.selftest`, where the
benchmark's selftest_oracle workload calls it, and is shared rather than
copied; criterion 03 runs it too.  `fflsim selftest` certifies the closed
form with a Lagrange-dual bound instead and runs no descent.  The exact
budget-box projection the tests check on its own is defined here, as one
call to the minimizer's projection helper, selftest._project.  Both take
1-7 values and run over Python floats, adding each sum in order and
starting each projection's knot search from the previous bracket; their
earlier np.clip / np.sum / np.searchsorted form is kept here as the
reference that helper must match bit for bit.
"""

from __future__ import annotations

import struct

import numpy as np

from fflsim import compress, selftest


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
    """fflsim.selftest's projected-gradient minimum of sum_i lambda_i^2 / p_i
    over the budget box, at 2000 iterations."""
    return selftest.minimize_variance_numeric(lam, s, iters)


def project_budget_box(p: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection of 1-7 finite values onto {sum x = s, lo <= x <= 1},
    with lo fflsim.selftest's floor: clip(p - shift, lo, 1) for the Lagrange
    shift whose clipped sum is s, found by selftest._project bisecting all
    the knots.  A budget the box cannot meet raises ValueError."""
    q = selftest._values(p, s)
    # no hint; q stands in for lam2, as the objective is not wanted
    return np.array(selftest._project(q, s, selftest._LO, 0, q)[0], dtype=np.float64)


def project_budget_box_reference(p: np.ndarray, s: float, lo: float = 1e-12) -> np.ndarray:
    """fflsim.selftest's budget-box projection written with np.clip, np.sum
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
    """fflsim.selftest's projected-gradient minimum written with np.clip and
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


def reconstruct_rows_reference(decomp, probs, masks: np.ndarray) -> np.ndarray:
    """compress.reconstruct_rows in its earlier dense form: every atom's
    coefficient is divided by its p (0.0 where p is 0), np.where sets the
    atoms a mask drops to 0.0, and the result is written to every slot of
    every row; each rank-1 block adds (u * c) @ vt to a zero row."""
    keep = np.asarray(masks, dtype=bool)
    n, p = keep.shape[0], probs.probs
    out = np.zeros((n * decomp.n_rows, decomp.dim))
    rows = out.reshape(n, decomp.n_rows, decomp.dim)
    scaled = np.divide(decomp.coeffs, p, out=np.zeros_like(p), where=p > 0.0)
    kept = np.where(keep, scaled, 0.0)
    if decomp.blocks is None:
        rows[:, decomp.slots] = kept
        return out
    coeff = np.zeros((n, *decomp.slots.shape))
    coeff[:, decomp.slots] = kept
    for block in decomp.blocks:
        _, m, r = block.u.shape
        cols = block.vt.shape[-1]
        view = rows[..., block.offset : block.offset + m * cols].reshape(
            n, decomp.n_rows, m, cols)
        view += (block.u * coeff[:, :, None, block.start : block.start + r]) @ block.vt
    return out


def serialize(compressed: compress.CompressedGradient) -> bytes:
    """Wire form of a payload, every row's atoms after the previous row's;
    compress.payload_bits must give each row's size.

    elementwise: little-endian (u32 flat position, f64 coefficient) pairs,
    12 bytes per atom (96 bits).  lowrank: per atom a (u32 block offset,
    u32 len(u), u32 len(v)) header, the two factor vectors as f64, then the
    coefficient.
    """
    source = compressed.source
    kept = np.argwhere(compress._kept_slots(compressed)).tolist()  # (row, slot) in coefficient order
    coeffs = compressed.coeffs.tolist()
    if source.blocks is None:
        return b"".join(struct.pack("<Id", slot, c) for (_, slot), c in zip(kept, coeffs))
    columns = [(block, i) for block in source.blocks for i in range(block.u.shape[2])]
    parts = []
    for (w, slot), c in zip(kept, coeffs):
        block, i = columns[slot]
        u, v = block.u[w, :, i], block.vt[w, i]
        parts += [struct.pack("<III", block.offset, u.size, v.size),
                  u.astype("<f8").tobytes(), v.astype("<f8").tobytes(), struct.pack("<d", c)]
    return b"".join(parts)


def partition_by_class_greedy(ds, workers: int, rng: np.random.Generator,
                              classes_per_worker: int) -> list[np.ndarray]:
    """data.partition's by_class shards, dealt by its earlier greedy loop:
    every sample goes to the least-filled open worker (lowest index on a
    tie), and each step rebuilds the list of open workers.  Same draws from
    `rng` and the same trim to balance; the feasibility checks are left out,
    so a worker may end with no samples."""
    m, c, n_classes = workers, classes_per_worker, ds.n_classes
    shuffled = rng.permutation(n_classes)
    class_sets = [[int(shuffled[(j * c + t) % n_classes]) for t in range(c)] for j in range(m)]
    pools = {int(cls): list(rng.permutation(np.flatnonzero(ds.labels == cls)))
             for cls in range(n_classes)}
    base, extra = divmod(ds.n, m)
    quota = [base + (1 if j < extra else 0) for j in range(m)]
    shards: list[list[int]] = [[] for _ in range(m)]
    while True:
        eligible = [
            j
            for j in range(m)
            if len(shards[j]) < quota[j] and any(pools[cls] for cls in class_sets[j])
        ]
        if not eligible:
            break
        j = min(eligible, key=lambda jj: (len(shards[jj]), jj))
        cls = max(class_sets[j], key=lambda cc: len(pools[cc]))
        shards[j].append(pools[cls].pop())
    floor = min(len(s) for s in shards)
    return [np.asarray(s[: floor + 1], dtype=np.int64) for s in shards]


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
