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

Reconstruction is batched: reconstruct_rows turns an (n, B) keep mask into
n dense estimator rows, with one scatter for elementwise atoms and, for
rank-1 atoms, one dense block per kept atom added to each row in atom
order.  The round loop writes each worker's payload into its row of one
(M, d) buffer with it, and the Monte Carlo checks reconstruct their sampled
masks with it, chunk by chunk.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .nn import ParameterSet

_DROP_TOL = 1e-12  # singular values this small are treated as zero atoms

BASIS_KINDS = ("elementwise", "lowrank")


@dataclass
class OuterAtom:
    """Rank-1 atom: the flattened outer product u v^T placed at `offset` in
    the flat gradient vector (both factors unit L2 norm)."""

    u: np.ndarray
    v: np.ndarray
    offset: int = 0


@dataclass
class AtomicDecomposition:
    basis_kind: str
    dim: int
    coeffs: np.ndarray  # (B,): signed for elementwise, non-negative for lowrank
    indices: np.ndarray | None = None  # elementwise: flat position per atom
    outer_atoms: list[OuterAtom] | None = None  # lowrank: one atom per coeff

    def __post_init__(self) -> None:
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"basis_kind must be one of {BASIS_KINDS}")
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)

    @property
    def n_atoms(self) -> int:
        return self.coeffs.size

    def reconstruct_full(self) -> np.ndarray:
        """Dense sum_i lambda_i * a_i (no sampling); mostly for verification."""
        return _dense(self.basis_kind, self.dim, self.coeffs, self.indices, self.outer_atoms)


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
    basis_kind: str
    dim: int
    coeffs: np.ndarray  # scaled lambda_i / p_i for the selected atoms
    indices: np.ndarray | None = None
    outer_atoms: list[OuterAtom] | None = None
    kept: np.ndarray | None = None  # keep mask over the source decomposition's atoms

    @property
    def payload_atoms(self) -> int:
        return self.coeffs.size


def _scatter(out, basis_kind, coeffs, indices, outer_atoms, keep) -> None:
    """Row r of the zero (n, d) array `out` becomes sum_i keep[r, i] *
    coeffs[i] * a_i.

    Elementwise atoms sit at distinct positions, so one scatter writes every
    row.  Rank-1 atoms overlap within their layer block, so each row adds its
    kept atoms one at a time in atom order, the order a single payload has
    always used; each atom's dense block is formed once for all rows.
    """
    if basis_kind == "elementwise":
        out[:, indices] = np.where(keep, coeffs, 0.0)
        return
    blocks: dict[int, np.ndarray] = {}
    rows, atoms = np.nonzero(keep)  # row by row, atoms ascending within a row
    for r, i in zip(rows.tolist(), atoms.tolist()):
        atom = outer_atoms[i]
        block = blocks.get(i)
        if block is None:
            # coeff * (u_a v_b) per entry, as np.outer(u, v) scaled by coeff
            block = blocks[i] = (coeffs[i] * (atom.u[:, None] * atom.v)).ravel()
        out[r, atom.offset : atom.offset + block.size] += block


def _dense(basis_kind, dim, coeffs, indices, outer_atoms) -> np.ndarray:
    """sum_i coeffs[i] * a_i as one dense d-vector."""
    out = np.zeros((1, dim))
    _scatter(out, basis_kind, coeffs, indices, outer_atoms, np.ones((1, coeffs.size), dtype=bool))
    return out[0]


def decompose_elementwise(grad: np.ndarray, offset: int = 0, dim: int | None = None) -> AtomicDecomposition:
    """Standard-basis decomposition at the nonzero entries of a flat vector."""
    g = np.asarray(grad, dtype=np.float64).ravel()
    if dim is None:
        dim = g.size + offset
    idx = np.flatnonzero(g)
    return AtomicDecomposition("elementwise", dim, g[idx].copy(), indices=idx + offset)


def decompose_lowrank(
    grad_matrix: np.ndarray, r: int, offset: int = 0, dim: int | None = None
) -> AtomicDecomposition:
    """Truncated SVD decomposition of one matrix into its leading r rank-1
    atoms, in descending singular-value order.

    One LAPACK SVD; singular values <= _DROP_TOL * max(1, sigma_1) are
    dropped, so a matrix of lower rank yields fewer than r atoms.
    """
    mat = np.asarray(grad_matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not 1 <= r <= min(mat.shape):
        raise ValueError(f"rank must be in [1, {min(mat.shape)}], got {r}")
    if dim is None:
        dim = mat.size + offset
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    keep = int(np.count_nonzero(sv[:r] > _DROP_TOL * max(1.0, sv[0])))
    atoms = [OuterAtom(u[:, i], vt[i], offset) for i in range(keep)]
    return AtomicDecomposition("lowrank", dim, sv[:keep], outer_atoms=atoms)


def decompose_bundle(bundle: ParameterSet, kind: str, s: float) -> AtomicDecomposition:
    """Decompose a whole layered gradient into one atom set.

    elementwise: standard-basis atoms over the flat vector.  lowrank: each
    layer block contributes up to ceil(s) rank-1 atoms from its SVD (biases
    are treated as one-column matrices).
    """
    if kind == "elementwise":
        return decompose_elementwise(bundle.flat)
    if kind != "lowrank":
        raise ValueError(f"basis kind must be one of {BASIS_KINDS}, got {kind!r}")
    dim = bundle.dim
    coeffs: list[np.ndarray] = []
    atoms: list[OuterAtom] = []
    for offset, arr in bundle.blocks():
        matrix = arr if arr.ndim == 2 else arr.reshape(-1, 1)
        rank = min(int(math.ceil(s)), min(matrix.shape))
        sub = decompose_lowrank(matrix, rank, offset=offset, dim=dim)
        coeffs.append(sub.coeffs)
        atoms.extend(sub.outer_atoms)
    merged = np.concatenate(coeffs) if coeffs else np.empty(0)
    return AtomicDecomposition("lowrank", dim, merged, outer_atoms=atoms)


def probabilities(decomp: AtomicDecomposition, s: float) -> SelectionProbabilities:
    """Variance-minimizing keep probabilities under expected-payload budget s.

    p_i = |lambda_i| * s / ||lambda||_1, clipping to 1 and redistributing the
    leftover budget whenever a coefficient is too large for that rule.  The
    probabilities always sum to min(s, B).
    """
    if s < 1:
        raise ValueError(f"sparsity budget s must be >= 1, got {s}")
    lam = np.abs(decomp.coeffs)
    n = lam.size
    if n == 0:
        return SelectionProbabilities(np.empty(0))
    if np.any(lam == 0.0):
        raise ValueError("decomposition contains zero atoms; drop them first")
    if s >= n:
        return SelectionProbabilities(np.ones(n))
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
    return SelectionProbabilities(p)


def select(
    decomp: AtomicDecomposition, probs: SelectionProbabilities, mask: np.ndarray
) -> CompressedGradient:
    """Deterministic half of sampling: keep the masked atoms, scale by 1/p."""
    kept = np.asarray(mask, dtype=bool)
    picked = np.flatnonzero(kept)
    scaled = decomp.coeffs[picked] / probs.probs[picked]
    if decomp.basis_kind == "elementwise":
        idx = decomp.indices[picked] if decomp.indices is not None else picked
        return CompressedGradient("elementwise", decomp.dim, scaled, indices=idx, kept=kept)
    chosen = [decomp.outer_atoms[i] for i in picked] if decomp.outer_atoms else []
    return CompressedGradient("lowrank", decomp.dim, scaled, outer_atoms=chosen, kept=kept)


def sample(
    decomp: AtomicDecomposition, probs: SelectionProbabilities, rng: np.random.Generator
) -> CompressedGradient:
    """Independent Bernoulli(p_i) keep/drop per atom, kept atoms scaled by 1/p_i.

    An empty decomposition yields the zero compressed gradient (payload 0);
    the caller is expected to log that round as degenerate.
    """
    if decomp.n_atoms == 0:
        return CompressedGradient(decomp.basis_kind, decomp.dim, np.empty(0),
                                  indices=np.empty(0, dtype=np.int64), outer_atoms=[],
                                  kept=np.empty(0, dtype=bool))
    mask = rng.random(decomp.n_atoms) < probs.probs
    return select(decomp, probs, mask)


def reconstruct(compressed: CompressedGradient) -> np.ndarray:
    """Dense estimator vector from a compressed payload."""
    return _dense(compressed.basis_kind, compressed.dim, compressed.coeffs, compressed.indices,
                  compressed.outer_atoms)


def reconstruct_rows(
    decomp: AtomicDecomposition,
    probs: SelectionProbabilities,
    masks: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dense estimator rows for an (n, B) keep mask over decomp's B atoms.

    Row r equals reconstruct(select(decomp, probs, masks[r])) bit for bit.
    The rows are written into `out`, an (n, d) array, when it is given, and
    into a new array otherwise.
    """
    keep = np.asarray(masks, dtype=bool)
    if keep.ndim != 2 or keep.shape[1] != decomp.n_atoms:
        raise ValueError(f"expected an (n, {decomp.n_atoms}) keep mask, got shape {keep.shape}")
    if out is None:
        out = np.zeros((keep.shape[0], decomp.dim))
    else:
        out.fill(0.0)
    _scatter(out, decomp.basis_kind, decomp.coeffs / probs.probs, decomp.indices,
             decomp.outer_atoms, keep)
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


def payload_bits(compressed: CompressedGradient) -> int:
    """Bits in serialize(compressed), without building it: 96 per elementwise
    atom, 160 + 64 * (m + n) per rank-1 atom of an m x n block."""
    if compressed.basis_kind == "elementwise":
        return 96 * compressed.payload_atoms
    return sum(160 + 64 * (atom.u.size + atom.v.size) for atom in compressed.outer_atoms or [])


def serialize(compressed: CompressedGradient) -> bytes:
    """Wire form of a payload; payload_bits gives its size.

    elementwise: little-endian (u32 atom id, f64 coefficient) pairs, 12 bytes
    per atom (96 bits).  lowrank: per atom a (u32 offset, u32 len(u),
    u32 len(v)) header, the two factor vectors as f64, then the coefficient.
    """
    if compressed.basis_kind == "elementwise":
        idx = compressed.indices if compressed.indices is not None else np.empty(0, dtype=np.int64)
        return b"".join(
            struct.pack("<Id", int(i), float(c)) for i, c in zip(idx, compressed.coeffs)
        )
    parts = []
    for coeff, atom in zip(compressed.coeffs, compressed.outer_atoms or []):
        parts.append(struct.pack("<III", int(atom.offset), atom.u.size, atom.v.size))
        parts.append(atom.u.astype("<f8").tobytes())
        parts.append(atom.v.astype("<f8").tobytes())
        parts.append(struct.pack("<d", float(coeff)))
    return b"".join(parts)
