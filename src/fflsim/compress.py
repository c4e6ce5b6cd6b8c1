"""Unbiased gradient compression by atomic decomposition.

A gradient g in R^d is written as sum_i lambda_i * a_i over unit-norm atoms:
either standard-basis vectors at the nonzero entries of g ("elementwise"),
or flattened rank-1 outer products from the truncated SVD of each layer
block ("lowrank").  Each atom is kept independently with probability p_i
and rescaled by 1/p_i, which keeps the estimator unbiased with variance
sum_i lambda_i^2 * (1/p_i - 1).

For a sparsity budget s (expected number of transmitted atoms), the variance
-minimizing probabilities are p_i = |lambda_i| * s / ||lambda||_1 whenever
that stays <= 1 for every atom.  Oversized coefficients are clipped to
p = 1 and the rule is re-applied to the remaining atoms with the leftover
budget until it is feasible.

Which atoms are kept and their p depend only on ratios, so a gradient
scaled by any power of two keeps its atoms and its p (rank-1 atoms to
within LAPACK's rounding).

Every function works on a stack of W gradients at once, and one gradient is
the W = 1 case of the same code, a one-row stack: its reconstruction is
(1, d), its payload size (1,), and sample takes one generator per row.  A
decomposition holds each row's atoms in fixed slots: the flat positions for
elementwise atoms, and for rank-1 atoms the leading singular triplets of
each layer block, taken from one stacked LAPACK SVD per block.  A round
decomposes all M workers' updates, draws their keep masks and reconstructs
them into one (M, d) buffer: for elementwise atoms one scatter of the kept
atoms alone, about 1% of those decomposed on the desk config, each divided
by its p; for rank-1 atoms one batched matmul per layer block.  The budget
clip also runs each of its rounds for all rows at once; only each row's l1
sum in a clip round and each row's random draw go row by row.  The Monte
Carlo checks reconstruct many keep masks of one decomposition with the
same code.

A payload has one form: its decomposition and a keep mask over the atoms.
payload_bits counts each row's kept atoms (elementwise) or weighs its kept
slots (rank-1) straight from it: the size of the wire form that the tests'
oracle serialize writes out byte by byte.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .nn import ParameterSet

_DROP_TOL = 1e-12  # a singular value at most this times its block's largest is a zero atom

BASIS_KINDS = ("elementwise", "lowrank")


@dataclass
class RankOneBlock:
    """The leading r rank-1 atoms of one m x n layer block at flat `offset`,
    for every row of a decomposition: slot start + i holds the outer
    product of u[w, :, i] and vt[w, i] in row w."""

    offset: int
    start: int
    u: np.ndarray  # (W, m, r), unit columns
    vt: np.ndarray  # (W, r, n), unit rows


@dataclass
class AtomicDecomposition:
    """The atom sets of W gradients that share one flat layout of `dim` values.

    `slots` is a (W, R) mask of the slots that hold an atom: for elementwise
    atoms slot j is flat position j (R = dim), for rank-1 atoms, which come
    with their `blocks`, each layer block has its r slots side by side.
    Row w's atoms are its set slots in order, and `coeffs` holds every
    row's coefficients, row after row.
    """

    dim: int
    coeffs: np.ndarray  # (B,): signed for elementwise, non-negative for lowrank
    slots: np.ndarray  # (W, R) bool
    blocks: list[RankOneBlock] | None = None  # lowrank
    atom_counts: np.ndarray = field(init=False, repr=False)  # (W,) atoms per row

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.atom_counts = np.count_nonzero(self.slots, axis=1)
        if self.atom_counts.sum() != self.coeffs.size:
            raise ValueError(f"{self.coeffs.size} coefficients for "
                             f"{self.atom_counts.sum()} atom slots")

    @property
    def basis_kind(self) -> str:
        """"lowrank" (rank-1 atoms) exactly when `blocks` is given, else "elementwise"."""
        return "elementwise" if self.blocks is None else "lowrank"

    @property
    def n_atoms(self) -> int:
        """Atoms over all rows."""
        return self.coeffs.size

    @property
    def n_rows(self) -> int:
        return self.slots.shape[0]

    def reconstruct_full(self) -> np.ndarray:
        """Dense sum_i lambda_i * a_i per row (no sampling), a (W, d) array;
        mostly for verification."""
        out = np.zeros((self.n_rows, self.dim))
        _scatter(out, self, np.ones(self.n_atoms), np.ones((1, self.n_atoms), dtype=bool))
        return out


@dataclass
class SelectionProbabilities:
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)


@dataclass
class VarianceTerms:
    """Constants of the variance bound, summed over a decomposition's rows:
    sigma1 scales like 1/s, sigma2 is the constant (negative) part."""

    sigma1: float
    sigma2: float


@dataclass
class CompressedGradient:
    """The payload of each row of `source`: the atoms `kept` selects, each
    coefficient scaled by 1/p."""

    source: AtomicDecomposition
    probs: SelectionProbabilities
    kept: np.ndarray  # (B,) keep mask over the source's atoms

    @property
    def coeffs(self) -> np.ndarray:
        """lambda_i / p_i of the kept atoms, row after row."""
        return self.source.coeffs[self.kept] / self.probs.probs[self.kept]

    @property
    def payload_atoms(self) -> int:
        """Atoms sent over all rows."""
        return int(np.count_nonzero(self.kept))


def _scaled(coeffs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """coeffs / p, and 0.0 where p is 0: an atom with p = 0 is never
    sampled, and its slot is left at 0 rather than divided by zero (an atom
    about 2^1074 times smaller than its row's largest gets p = 0)."""
    return np.divide(coeffs, p, out=np.zeros_like(p), where=p > 0.0)


def _scatter(out, decomp: AtomicDecomposition, p, keep) -> None:
    """Row t * W + w of the zero (n * W, d) array `out` becomes the sum over
    row w's atoms i of keep[t, i] * lambda_i / p_i * a_i, for an (n, B) keep
    mask over decomp's B atoms and their (B,) probabilities p.

    Elementwise atoms sit at distinct positions of a row, so one scatter
    writes the kept atoms alone, each divided by its p; every other
    position keeps its +0.0.  Rank-1 atoms overlap within their layer
    block, so each block adds (u * c) @ vt to every row at once, where c
    holds each slot's scaled coefficient if the atom is kept and 0.0 if
    not: BLAS sums a block's kept atoms inside one matmul and never forms
    them one by one.
    """
    n = keep.shape[0]
    if decomp.blocks is None:
        t, i = np.nonzero(keep)
        # flat position of atom i of mask t in the (n, W, d) rows
        at = np.flatnonzero(decomp.slots)[i]
        at += t * decomp.slots.size
        out.reshape(-1)[at] = _scaled(decomp.coeffs[i], p[i])
        return
    rows = out.reshape(n, decomp.n_rows, decomp.dim)
    coeff = np.zeros((n, *decomp.slots.shape))
    coeff[:, decomp.slots] = np.where(keep, _scaled(decomp.coeffs, p), 0.0)
    for block in decomp.blocks:
        _, m, r = block.u.shape
        cols = block.vt.shape[-1]
        view = rows[..., block.offset : block.offset + m * cols].reshape(
            n, decomp.n_rows, m, cols)
        # added, not written: a row that starts at +0.0 never holds -0.0
        view += (block.u * coeff[:, :, None, block.start : block.start + r]) @ block.vt


def _elementwise(rows: np.ndarray) -> AtomicDecomposition:
    """Standard-basis atoms at the nonzero entries of each row of a (W, d) stack."""
    slots = rows != 0.0
    return AtomicDecomposition(rows.shape[1], rows[slots], slots)


def _lowrank(parts, dim: int) -> AtomicDecomposition:
    """Rank-1 atoms of (offset, (W, m, n) stack, r) layer blocks.

    One LAPACK SVD per block stack; in each row the leading singular values
    > _DROP_TOL * sigma_1 are kept, so a block of lower rank yields fewer
    than r atoms, a block keeps its atoms at any scale, and an all-zero
    block (sigma_1 = 0) yields none.  LAPACK returns each row's singular
    values in descending order, so one comparison of all blocks' values
    with their floors gives every block's kept slots as a prefix of its r.
    """
    blocks, values, tops, widths, start = [], [], [], [], 0
    for offset, mats, r in parts:
        u, sv, vt = np.linalg.svd(mats, full_matrices=False)
        values.append(sv[:, :r])
        tops.append(sv[:, 0])
        widths.append(r)
        blocks.append(RankOneBlock(offset, start, u[:, :, :r], vt[:, :r]))
        start += r
    values = np.concatenate(values, axis=1)
    floors = _DROP_TOL * np.stack(tops, axis=1)
    slots = values > floors.repeat(widths, axis=1)
    return AtomicDecomposition(dim, values[slots], slots, blocks=blocks)


def decompose_elementwise(grad: np.ndarray) -> AtomicDecomposition:
    """Standard-basis decomposition at the nonzero entries of a flat vector,
    as a one-row stack."""
    return _elementwise(np.asarray(grad, dtype=np.float64).reshape(1, -1))


def decompose_bundle(bundle: ParameterSet, kind: str, s: float) -> AtomicDecomposition:
    """Decompose a layered gradient, or a stack of them, into one atom set
    per gradient: a stack of W gives W rows, one gradient one row.

    elementwise: standard-basis atoms over the flat vector.  lowrank: each
    layer block contributes up to ceil(s) rank-1 atoms from its SVD (biases
    are treated as one-column matrices); a stack takes one SVD call per
    block.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"basis kind must be one of {BASIS_KINDS}, got {kind!r}")
    if kind == "elementwise":
        return _elementwise(bundle.flat.reshape(-1, bundle.dim))
    parts = []
    for offset, arr in bundle.blocks():
        shape = arr.shape[bundle.flat.ndim - 1:]
        m, n = shape if len(shape) == 2 else (shape[0], 1)
        parts.append((offset, arr.reshape(-1, m, n), min(int(math.ceil(s)), m, n)))
    return _lowrank(parts, bundle.dim)


def probabilities(decomp: AtomicDecomposition, s: float) -> SelectionProbabilities:
    """Variance-minimizing keep probabilities under expected-payload budget s,
    for each row's atoms.

    p_i = |lambda_i| * s / ||lambda||_1, clipping to 1 and redistributing the
    leftover budget whenever a coefficient is too large for that rule.  Each
    row's probabilities sum to min(s, B_w).  Each clip round runs for all
    rows at once; only each row's l1 is its own numpy sum of its active
    coefficients, since summing the rows as one zero-padded array, or with
    np.add.reduceat, would group the additions differently.  Before that
    sum, each round scales each row's active coefficients by the power of
    two that puts their largest in [0.5, 1), so that no row's l1 overflows
    and no budget / l1 does, whatever the row's scale.  That scaling is
    exact, so each p keeps the bits of the unscaled rule unless that rule
    overflows or a coefficient is over 2^1021 times smaller than its row's
    largest.  The first round in which no row clips settles every row left
    and ends the loop: on elementwise atoms that is usually the first.
    """
    if not s >= 1:
        raise ValueError(f"sparsity budget s must be >= 1, got {s}")
    lam = np.abs(decomp.coeffs)
    if (lam == 0.0).any():
        raise ValueError("decomposition contains zero atoms; drop them first")
    counts = decomp.atom_counts
    rows = np.arange(counts.size)
    p = np.ones(lam.size)
    budget = np.full(counts.size, float(s))
    # a round works on the active atoms of the unsettled rows: `live` of them
    # in each row, at positions `at`, row after row.  A row within its budget
    # keeps every atom and never enters.
    live = np.where(s < counts, counts, 0)
    at = np.flatnonzero((live > 0).repeat(counts))
    while at.size:
        # each row's active atoms, scaled so that their largest is in [0.5, 1)
        act = lam if at.size == lam.size else lam[at]  # every atom active: read in place
        widths = live[live > 0]
        _, exp = np.frexp(np.maximum.reduceat(act, np.cumsum(widths) - widths))
        act = np.ldexp(act, -exp.repeat(widths))
        l1 = np.zeros(counts.size)
        start = 0
        for w, n in enumerate(live.tolist()):  # each row's own pairwise sum
            if n:
                l1[w] = np.add.reduce(act[start : start + n])
                start += n
        big = act * budget.repeat(live) > l1.repeat(live)
        clipped = np.bincount(rows.repeat(live)[big], minlength=counts.size)
        # a row with no oversized atom is settled: the rule holds as it is
        done = (live > 0) & (clipped == 0)
        ratio = np.divide(budget, l1, out=np.zeros_like(l1), where=done)
        scaled = act * ratio.repeat(live)
        if not clipped.any():  # every active atom settles in this round
            if at.size == lam.size:
                return SelectionProbabilities(scaled)
            p[at] = scaled
            break
        settled = done.repeat(live)
        p[at[settled]] = scaled[settled]
        # an oversized atom keeps p = 1 and leaves its row's budget
        budget -= clipped
        live = np.where(done, 0, live - clipped)
        at = at[~(big | settled)]
    return SelectionProbabilities(p)


def select(
    decomp: AtomicDecomposition, probs: SelectionProbabilities, mask: np.ndarray
) -> CompressedGradient:
    """Deterministic half of sampling: keep the masked atoms, scale by 1/p."""
    kept = np.asarray(mask, dtype=bool)
    if kept.shape != (decomp.n_atoms,):
        raise ValueError(f"expected a keep mask of shape ({decomp.n_atoms},), got {kept.shape}")
    return CompressedGradient(decomp, probs, kept)


def sample(
    decomp: AtomicDecomposition,
    probs: SelectionProbabilities,
    rngs: Sequence[np.random.Generator],
) -> CompressedGradient:
    """Independent Bernoulli(p_i) keep/drop per atom, kept atoms scaled by 1/p_i.

    Row w draws its mask as rngs[w].random(B_w) < p_w, on a generator of its
    own: `rngs` is a sequence of one generator per row, also for a one-row
    decomposition.  An empty row draws nothing and sends the zero payload;
    the caller is expected to count that row as degenerate.
    """
    if len(rngs) != decomp.n_rows:
        raise ValueError(f"need one generator per row: got {len(rngs)} for {decomp.n_rows} rows")
    draws = [rng.random(n) for rng, n in zip(rngs, decomp.atom_counts.tolist()) if n]
    uniforms = np.concatenate(draws) if draws else np.empty(0)
    return select(decomp, probs, uniforms < probs.probs)


def reconstruct(compressed: CompressedGradient) -> np.ndarray:
    """Dense estimator of each row's payload, a (W, d) array: (1, d) for
    one decomposed gradient."""
    return reconstruct_rows(compressed.source, compressed.probs, compressed.kept[None])


def reconstruct_rows(
    decomp: AtomicDecomposition,
    probs: SelectionProbabilities,
    masks: np.ndarray,
) -> np.ndarray:
    """Dense estimator rows, an (n * W, d) array, for an (n, B) keep mask
    over decomp's B atoms.

    For a one-row decomposition row t equals the one row of
    reconstruct(select(decomp, probs, masks[t])) bit for bit; for W rows,
    row t * W + w is mask t applied to row w.
    """
    keep = np.asarray(masks, dtype=bool)
    if keep.ndim != 2 or keep.shape[1] != decomp.n_atoms:
        raise ValueError(f"expected an (n, {decomp.n_atoms}) keep mask, got shape {keep.shape}")
    out = np.zeros((keep.shape[0] * decomp.n_rows, decomp.dim))
    _scatter(out, decomp, probs.probs, keep)
    return out


def variance_closed_form(decomp: AtomicDecomposition, probs: SelectionProbabilities) -> float:
    """E ||ghat - g||^2 for orthonormal-atom decompositions, summed over
    the rows: sum_i lambda_i^2 * (1/p_i - 1) over every row's atoms."""
    lam2 = decomp.coeffs**2
    return float(np.sum(lam2 * (1.0 / probs.probs - 1.0)))


def sigma_terms(decomp: AtomicDecomposition) -> VarianceTerms:
    """Budget-independent variance constants of a decomposition, summed
    over its rows.

    With the optimal unclipped probabilities the sampling variance of all
    rows equals sigma1 / s + sigma2, where sigma1 = sum_w ||lambda_w||_1^2
    (row w's term written as sum_i |lambda_i| * ||lambda_w||_1) and
    sigma2 = -sum_i lambda_i^2.
    """
    if decomp.n_atoms == 0:
        raise ValueError("sigma terms are undefined for an empty decomposition")
    lam = np.abs(decomp.coeffs)
    sigma1 = 0.0
    for row in np.split(lam, np.cumsum(decomp.atom_counts)[:-1]):
        sigma1 += float(np.sum(row * float(row.sum())))
    sigma2 = -float(np.sum(lam * lam))
    return VarianceTerms(sigma1, sigma2)


def _kept_slots(compressed: CompressedGradient) -> np.ndarray:
    """(W, R) mask of the slots whose atoms the payload sends."""
    source = compressed.source
    kept = np.zeros(source.slots.shape, dtype=bool)
    kept[source.slots] = compressed.kept
    return kept


def payload_bits(compressed: CompressedGradient) -> np.ndarray:
    """Bits of each row's payload on the wire, without building it: 96 per
    elementwise atom, 160 + 64 * (m + n) per rank-1 atom of an m x n block.
    A (W,) integer array: (1,) for one decomposed gradient.  Elementwise
    atoms all cost the same, so a row's size is 96 times a count of its
    kept atoms; rank-1 slots are weighed by their blocks' sizes."""
    source = compressed.source
    if source.blocks is None:  # u32 position, f64 coefficient
        rows = np.arange(source.n_rows).repeat(source.atom_counts)
        return 96 * np.bincount(rows[compressed.kept], minlength=source.n_rows)
    # a 3 x u32 header, u, v and the f64 coefficient
    slot_bits = np.concatenate([
        np.full(b.u.shape[2], 160 + 64 * (b.u.shape[1] + b.vt.shape[2])) for b in source.blocks
    ])
    return _kept_slots(compressed) @ slot_bits
