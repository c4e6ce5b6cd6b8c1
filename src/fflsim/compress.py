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

Every function works on a stack of W gradients at once, and one gradient is
the W = 1 case of the same code.  A decomposition holds each row's atoms in
fixed slots: the flat positions for elementwise atoms, and for rank-1 atoms
the leading singular triplets of each layer block, taken from one stacked
LAPACK SVD per block.  A round decomposes all M workers' updates, draws
their keep masks and reconstructs them into one (M, d) buffer: one scatter
for elementwise atoms, one batched matmul per layer block for rank-1 atoms.
The budget clip also runs each of its rounds for all rows at once; only each
row's l1 sum in a clip round and each row's random draw go row by row.  The
Monte Carlo checks reconstruct many keep masks of one decomposition with the
same code.

A payload has one form: its decomposition and a keep mask over the atoms.
payload_bits and serialize read the kept slots, and serialize the rank-1
blocks, straight from it.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .nn import ParameterSet

_DROP_TOL = 1e-12  # singular values this small are treated as zero atoms

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
    atoms slot j is flat position j (R = dim), for rank-1 atoms each layer
    block has its r slots side by side.  Row w's atoms are its set slots in
    order, and `coeffs` holds every row's coefficients, row after row.
    `lead` is the gradients' leading shape: () for one vector, (W,) for a
    stack.
    """

    basis_kind: str
    dim: int
    coeffs: np.ndarray  # (B,): signed for elementwise, non-negative for lowrank
    slots: np.ndarray  # (W, R) bool
    blocks: list[RankOneBlock] | None = None  # lowrank
    lead: tuple[int, ...] = ()
    atom_counts: np.ndarray = field(init=False, repr=False)  # (W,) atoms per row

    def __post_init__(self) -> None:
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"basis_kind must be one of {BASIS_KINDS}")
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.atom_counts = np.count_nonzero(self.slots, axis=1)
        if self.atom_counts.sum() != self.coeffs.size:
            raise ValueError(f"{self.coeffs.size} coefficients for "
                             f"{self.atom_counts.sum()} atom slots")

    @property
    def n_atoms(self) -> int:
        """Atoms over all rows."""
        return self.coeffs.size

    @property
    def n_rows(self) -> int:
        return self.slots.shape[0]

    def reconstruct_full(self) -> np.ndarray:
        """Dense sum_i lambda_i * a_i per row (no sampling); mostly for verification."""
        out = np.zeros((self.n_rows, self.dim))
        _scatter(out, self, self.coeffs, np.ones((1, self.n_atoms), dtype=bool))
        return out.reshape(self.lead + (self.dim,))


@dataclass
class SelectionProbabilities:
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)


@dataclass
class VarianceTerms:
    """Per-worker constants of the variance bound: sigma1 scales like 1/s,
    sigma2 is the constant (negative) part."""

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


def _scatter(out, decomp: AtomicDecomposition, scaled, keep) -> None:
    """Row t * W + w of the zero (n * W, d) array `out` becomes the sum over
    row w's atoms i of keep[t, i] * scaled[i] * a_i, for an (n, B) keep
    mask over decomp's B atoms.

    Elementwise atoms sit at distinct positions of a row, so one scatter
    writes every row.  Rank-1 atoms overlap within their layer block, so each
    block adds (u * c) @ vt to every row at once, where c holds each slot's
    scaled coefficient if the atom is kept and 0.0 if not: BLAS sums a
    block's kept atoms inside one matmul and never forms them one by one.
    """
    n = keep.shape[0]
    rows = out.reshape(n, decomp.n_rows, decomp.dim)
    kept = np.where(keep, scaled, 0.0)
    if decomp.blocks is None:
        rows[:, decomp.slots] = kept
        return
    coeff = np.zeros((n, *decomp.slots.shape))
    coeff[:, decomp.slots] = kept
    for block in decomp.blocks:
        _, m, r = block.u.shape
        cols = block.vt.shape[-1]
        view = rows[..., block.offset : block.offset + m * cols].reshape(
            n, decomp.n_rows, m, cols)
        # added, not written: a row that starts at +0.0 never holds -0.0
        view += (block.u * coeff[:, :, None, block.start : block.start + r]) @ block.vt


def _elementwise(rows: np.ndarray, lead: tuple[int, ...]) -> AtomicDecomposition:
    """Standard-basis atoms at the nonzero entries of each row of a (W, d) stack."""
    slots = rows != 0.0
    return AtomicDecomposition("elementwise", rows.shape[1], rows[slots], slots, lead=lead)


def _lowrank(parts, dim: int, lead: tuple[int, ...]) -> AtomicDecomposition:
    """Rank-1 atoms of (offset, (W, m, n) stack, r) layer blocks.

    One LAPACK SVD per block stack; in each row the leading singular values
    > _DROP_TOL * max(1, sigma_1) are kept, so a block of lower rank yields
    fewer than r atoms.  LAPACK returns each row's singular values in
    descending order, so one comparison of all blocks' values with their
    floors gives every block's kept slots as a prefix of its r.
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
    floors = _DROP_TOL * np.maximum(1.0, np.stack(tops, axis=1))
    slots = values > floors.repeat(widths, axis=1)
    return AtomicDecomposition("lowrank", dim, values[slots], slots, blocks=blocks, lead=lead)


def decompose_elementwise(grad: np.ndarray) -> AtomicDecomposition:
    """Standard-basis decomposition at the nonzero entries of a flat vector."""
    return _elementwise(np.asarray(grad, dtype=np.float64).reshape(1, -1), ())


def decompose_lowrank(grad_matrix: np.ndarray, r: int) -> AtomicDecomposition:
    """Truncated SVD decomposition of one matrix into its leading r rank-1
    atoms, in descending singular-value order; a matrix of lower rank
    yields fewer than r atoms."""
    mat = np.asarray(grad_matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not 1 <= r <= min(mat.shape):
        raise ValueError(f"rank must be in [1, {min(mat.shape)}], got {r}")
    return _lowrank([(0, mat[None], r)], mat.size, ())


def decompose_bundle(bundle: ParameterSet, kind: str, s: float) -> AtomicDecomposition:
    """Decompose a layered gradient, or a stack of them, into one atom set
    per gradient.

    elementwise: standard-basis atoms over the flat vector.  lowrank: each
    layer block contributes up to ceil(s) rank-1 atoms from its SVD (biases
    are treated as one-column matrices); a stack takes one SVD call per
    block.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"basis kind must be one of {BASIS_KINDS}, got {kind!r}")
    lead = bundle.flat.shape[:-1]
    if kind == "elementwise":
        return _elementwise(bundle.flat.reshape(-1, bundle.dim), lead)
    parts = []
    for offset, arr in bundle.blocks():
        shape = arr.shape[len(lead):]
        m, n = shape if len(shape) == 2 else (shape[0], 1)
        parts.append((offset, arr.reshape(-1, m, n), min(int(math.ceil(s)), m, n)))
    return _lowrank(parts, bundle.dim, lead)


def probabilities(decomp: AtomicDecomposition, s: float) -> SelectionProbabilities:
    """Variance-minimizing keep probabilities under expected-payload budget s,
    for each row's atoms.

    p_i = |lambda_i| * s / ||lambda||_1, clipping to 1 and redistributing the
    leftover budget whenever a coefficient is too large for that rule.  Each
    row's probabilities sum to min(s, B_w).  Each clip round runs for all
    rows at once; only each row's l1 is its own numpy sum of its active
    coefficients, since summing the rows as one zero-padded array, or with
    np.add.reduceat, would group the additions differently.
    """
    if s < 1:
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
        act = lam[at]
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
        settled = done.repeat(live)
        p[at[settled]] = act[settled] * ratio.repeat(live)[settled]
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
    rngs: np.random.Generator | Sequence[np.random.Generator],
) -> CompressedGradient:
    """Independent Bernoulli(p_i) keep/drop per atom, kept atoms scaled by 1/p_i.

    Row w draws its mask as rngs[w].random(B_w) < p_w, on a generator of its
    own (one generator may stand for a one-row decomposition).  An empty row
    draws nothing and sends the zero payload; the caller is expected to log
    that row as degenerate.
    """
    if isinstance(rngs, np.random.Generator):
        rngs = [rngs]
    if len(rngs) != decomp.n_rows:
        raise ValueError(f"need one generator per row: got {len(rngs)} for {decomp.n_rows} rows")
    draws = [rng.random(n) for rng, n in zip(rngs, decomp.atom_counts.tolist()) if n]
    uniforms = np.concatenate(draws) if draws else np.empty(0)
    return select(decomp, probs, uniforms < probs.probs)


def reconstruct(compressed: CompressedGradient) -> np.ndarray:
    """Dense estimator of each row's payload, shaped like the decomposed
    gradients: a d-vector for one, (W, d) for a stack."""
    source = compressed.source
    rows = reconstruct_rows(source, compressed.probs, compressed.kept[None])
    return rows.reshape(source.lead + (source.dim,))


def reconstruct_rows(
    decomp: AtomicDecomposition,
    probs: SelectionProbabilities,
    masks: np.ndarray,
) -> np.ndarray:
    """Dense estimator rows, an (n * W, d) array, for an (n, B) keep mask
    over decomp's B atoms.

    For a one-row decomposition row t equals reconstruct(select(decomp,
    probs, masks[t])) bit for bit; for W rows, row t * W + w is mask t
    applied to row w.
    """
    keep = np.asarray(masks, dtype=bool)
    if keep.ndim != 2 or keep.shape[1] != decomp.n_atoms:
        raise ValueError(f"expected an (n, {decomp.n_atoms}) keep mask, got shape {keep.shape}")
    out = np.zeros((keep.shape[0] * decomp.n_rows, decomp.dim))
    # an atom with p = 0 is never kept, so its slot is left at 0 rather
    # than divided by zero (a subnormal coefficient can get p = 0)
    p = probs.probs
    scaled = np.divide(decomp.coeffs, p, out=np.zeros_like(p), where=p > 0.0)
    _scatter(out, decomp, scaled, keep)
    return out


def variance_closed_form(decomp: AtomicDecomposition, probs: SelectionProbabilities) -> float:
    """E ||ghat - g||^2 for orthonormal-atom decompositions:
    sum_i lambda_i^2 * (1/p_i - 1)."""
    if decomp.n_atoms == 0:
        return 0.0
    lam2 = decomp.coeffs**2
    return float(np.sum(lam2 * (1.0 / probs.probs - 1.0)))


def sigma_terms(decomp: AtomicDecomposition) -> VarianceTerms:
    """Budget-independent variance constants of one decomposition.

    With the optimal unclipped probabilities the sampling variance equals
    sigma1 / s + sigma2, where sigma1 = ||lambda||_1^2 (written as
    sum_i |lambda_i| * ||lambda||_1) and sigma2 = -sum_i lambda_i^2.
    """
    if decomp.n_atoms == 0:
        raise ValueError("sigma terms are undefined for an empty decomposition")
    lam = np.abs(decomp.coeffs)
    l1 = float(lam.sum())
    sigma1 = float(np.sum(lam * l1))
    sigma2 = -float(np.sum(lam * lam))
    return VarianceTerms(sigma1, sigma2)


def _kept_slots(compressed: CompressedGradient) -> np.ndarray:
    """(W, R) mask of the slots whose atoms the payload sends."""
    source = compressed.source
    kept = np.zeros(source.slots.shape, dtype=bool)
    kept[source.slots] = compressed.kept
    return kept


def payload_bits(compressed: CompressedGradient) -> int | np.ndarray:
    """Bits in serialize() of each row's payload, without building it: 96 per
    elementwise atom, 160 + 64 * (m + n) per rank-1 atom of an m x n block.
    An int for one gradient, a (W,) array for a stack."""
    source = compressed.source
    if source.blocks is None:
        slot_bits = np.full(source.dim, 96)  # u32 position, f64 coefficient
    else:  # a 3 x u32 header, u, v and the f64 coefficient
        slot_bits = np.concatenate([
            np.full(b.u.shape[2], 160 + 64 * (b.u.shape[1] + b.vt.shape[2])) for b in source.blocks
        ])
    bits = _kept_slots(compressed) @ slot_bits
    return int(bits[0]) if source.lead == () else bits


def serialize(compressed: CompressedGradient) -> bytes:
    """Wire form of a payload, every row's atoms after the previous row's;
    payload_bits gives each row's size.

    elementwise: little-endian (u32 flat position, f64 coefficient) pairs,
    12 bytes per atom (96 bits).  lowrank: per atom a (u32 block offset,
    u32 len(u), u32 len(v)) header, the two factor vectors as f64, then the
    coefficient.
    """
    source = compressed.source
    kept = np.argwhere(_kept_slots(compressed)).tolist()  # (row, slot) in coefficient order
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
