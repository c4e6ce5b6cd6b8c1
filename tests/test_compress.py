import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fflsim import compress, nn, selftest
from fflsim.rng import substream
from fflsim.selftest import _clipped_sum, _project, closed_form_duality_gap

from oracles import (
    jacobi_singular_values, minimize_variance_numeric, minimize_variance_reference,
    probabilities_reference, project_budget_box, project_budget_box_reference,
    reconstruct_rows_reference, serialize,
)


def elementwise_of(vec):
    return compress.decompose_elementwise(np.asarray(vec, dtype=np.float64))


def lowrank_of(mat, r):
    """The leading r rank-1 atoms of one matrix, as a one-row stack."""
    return compress._lowrank([(0, mat[None], r)], mat.size)


# ---- elementwise decomposition ---- #

def test_elementwise_keeps_only_nonzeros():
    d = elementwise_of([0.0, 3.0, 0.0, -2.0, 0.0])
    assert d.basis_kind == "elementwise"
    assert d.n_atoms == 2
    assert np.array_equal(np.flatnonzero(d.slots[0]), [1, 3])
    assert np.array_equal(d.coeffs, [3.0, -2.0])
    assert np.array_equal(d.reconstruct_full(), [[0.0, 3.0, 0.0, -2.0, 0.0]])


def test_elementwise_zero_vector_empty():
    d = elementwise_of(np.zeros(4))
    assert d.n_atoms == 0
    assert np.array_equal(d.reconstruct_full(), np.zeros((1, 4)))


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_elementwise_round_trip_property(vec):
    d = elementwise_of(vec)
    assert np.array_equal(d.reconstruct_full(), vec[None])
    assert d.n_atoms == int(np.count_nonzero(vec))


# ---- lowrank decomposition ---- #

def test_lowrank_rank_one_exact():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    mat = 7.5 * np.outer(u, v)
    d = lowrank_of(mat, r=1)
    assert d.basis_kind == "lowrank"
    assert d.n_atoms == 1
    assert d.coeffs[0] == pytest.approx(7.5, rel=1e-9)
    block = d.blocks[0]
    assert np.linalg.norm(block.u[0, :, 0]) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(block.vt[0, 0]) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(d.reconstruct_full(), mat.ravel(), atol=1e-9)


def test_lowrank_diagonal_picks_top_singular_values():
    mat = np.diag([3.0, 2.0, 1.0])
    d = lowrank_of(mat, r=2)
    assert d.n_atoms == 2
    assert np.allclose(sorted(d.coeffs, reverse=True), [3.0, 2.0], atol=1e-8)


def test_lowrank_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((8, 6))
    want = jacobi_singular_values(mat)[:3]
    d = lowrank_of(mat, r=3)
    got = np.sort(d.coeffs)[::-1]
    assert np.allclose(got, want, rtol=1e-6)


def test_lowrank_coeffs_sorted_descending_nonnegative():
    rng = np.random.default_rng(3)
    d = lowrank_of(rng.standard_normal((5, 7)), r=4)
    assert (d.coeffs >= 0).all()
    assert (np.diff(d.coeffs) <= 1e-12).all()


def test_lowrank_full_rank_reconstructs_matrix():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((4, 5))
    d = lowrank_of(mat, r=4)
    assert np.allclose(d.reconstruct_full(), mat.ravel(), atol=1e-8)


def test_a_rank_two_block_keeps_its_two_atoms_at_1e_13():
    # the drop floor is relative to the block's largest singular value
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    assert lowrank_of(mat, 4).n_atoms == 2
    assert lowrank_of(1e-13 * mat, 4).n_atoms == 2


def test_lowrank_zero_matrix_empty():
    d = lowrank_of(np.zeros((3, 4)), r=2)
    assert d.n_atoms == 0


def near_tied_matrix(seed):
    """4x6 matrix U diag(1, 1e-2, 0.999e-2, 1e-3) V^T with orthonormal U, V:
    the 2nd and 3rd singular values differ by 0.1%."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    return u @ np.diag([1.0, 1e-2, 0.999e-2, 1e-3]) @ v.T


@pytest.mark.parametrize("seed", [0, 2, 3, 4])
def test_lowrank_near_tied_spectrum_stays_lowrank(seed):
    mat = near_tied_matrix(seed)
    d = lowrank_of(mat, r=3)
    assert d.basis_kind == "lowrank"
    assert d.n_atoms == 3
    assert np.allclose(d.coeffs, jacobi_singular_values(mat)[:3], rtol=0, atol=1e-12)
    block = d.blocks[0]
    assert np.allclose(np.linalg.norm(block.u[0], axis=0), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(block.vt[0], axis=1), 1.0, rtol=0, atol=1e-12)


# ---- bundle decomposition ---- #

def make_bundle(seed=0, sizes=(6, 5, 3)):
    spec = nn.MlpSpec(sizes)
    params = nn.init_params(spec, substream(seed, "init"))
    # reuse another draw as a stand-in gradient with the same block shapes
    return nn.init_params(spec, substream(seed + 1, "init"))


def test_bundle_elementwise_matches_flat():
    bundle = make_bundle(1)
    d = compress.decompose_bundle(bundle, "elementwise", s=4.0)
    assert np.allclose(d.reconstruct_full(), bundle.flatten(), atol=0)


def test_bundle_lowrank_block_offsets_and_cap():
    bundle = make_bundle(2, sizes=(6, 5, 3))
    d = compress.decompose_bundle(bundle, "lowrank", s=2.0)
    assert d.basis_kind == "lowrank"
    # per-block rank is capped at min(ceil(s), min(m, n)): the first weight
    # block (6x5) and bias blocks (mx1, rank 1) contribute predictably
    assert [b.offset for b in d.blocks] == [off for off, _ in bundle.blocks()]
    for block, (_, arr) in zip(d.blocks, bundle.blocks()):
        m, n = arr.shape if arr.ndim == 2 else (arr.shape[0], 1)
        r = block.u.shape[2]
        assert block.u.shape == (1, m, r) and block.vt.shape == (1, r, n)
        assert np.count_nonzero(d.slots[0, block.start : block.start + r]) <= r <= min(2, m, n)


def test_bundle_lowrank_bias_blocks_exact():
    bundle = make_bundle(3, sizes=(4, 3, 2))
    for b in bundle.biases:
        b[:] = np.random.default_rng(0).standard_normal(b.shape)
    d = compress.decompose_bundle(bundle, "lowrank", s=8.0)
    # with rank cap >= min dim for every block, reconstruction is exact
    assert np.allclose(d.reconstruct_full(), bundle.flatten(), atol=1e-8)


def test_bundle_lowrank_near_tied_block_stays_lowrank():
    bundle = nn.ParameterSet([near_tied_matrix(0)], [np.zeros(6)])
    d = compress.decompose_bundle(bundle, "lowrank", s=3.0)
    assert d.basis_kind == "lowrank"
    assert d.n_atoms == 3  # the zero bias block contributes no atom


def test_bundle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        compress.decompose_bundle(make_bundle(4), "wavelet", s=2.0)


# One np.linalg.svd call over an (M, m, n) stack must give, bit for bit, the
# u, s and vt of each matrix decomposed on its own.  The round's one SVD per
# layer block and the desk golden hashes rely on it, and pyproject allows any
# numpy >= 1.24, so a numpy release that broke it fails here by name.  The
# shapes are the desk model's blocks: W0, b0 as a column, W1, b1 as a column.
@pytest.mark.parametrize("shape", [(16, 32), (32, 1), (32, 4), (4, 1)])
@pytest.mark.parametrize("m_rows", [1, 3, 8])
def test_stacked_svd_equals_one_svd_per_matrix(shape, m_rows):
    rng = np.random.default_rng(m_rows * 100 + shape[0] + shape[1])
    stack = rng.standard_normal((m_rows, *shape)) * np.exp(rng.standard_normal((m_rows, 1, 1)))
    u, sv, vt = np.linalg.svd(stack, full_matrices=False)
    for j, mat in enumerate(stack):
        u_j, sv_j, vt_j = np.linalg.svd(mat, full_matrices=False)
        assert u[j].tobytes() == u_j.tobytes()
        assert sv[j].tobytes() == sv_j.tobytes()
        assert vt[j].tobytes() == vt_j.tobytes()


# ---- probabilities ---- #

def test_probabilities_worked_unclipped():
    d = elementwise_of([3.0, 2.0, 1.0])
    p = compress.probabilities(d, s=2.0).probs
    assert np.allclose(p, [1.0, 2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert p.sum() == pytest.approx(2.0, abs=1e-12)


def test_probabilities_worked_clipped():
    d = elementwise_of([10.0, 1.0, 1.0])
    p = compress.probabilities(d, s=2.0).probs
    assert np.allclose(p, [1.0, 0.5, 0.5], atol=1e-12)


def test_probabilities_budget_saturates_at_atom_count():
    d = elementwise_of([5.0, -4.0, 3.0])
    p = compress.probabilities(d, s=7.0).probs
    assert np.array_equal(p, np.ones(3))


def test_probabilities_sum_is_min_of_budget_and_atoms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vec = rng.standard_normal(rng.integers(1, 12))
        vec[np.abs(vec) < 0.05] += 0.1  # keep atoms well away from zero
        d = elementwise_of(vec)
        for s in (1.0, 1.7, 3.0, 50.0):
            p = compress.probabilities(d, s).probs
            assert (0.0 < p).all() and (p <= 1.0).all()
            assert p.sum() == pytest.approx(min(s, d.n_atoms), rel=1e-9)


def test_probabilities_proportional_below_clip():
    d = elementwise_of([4.0, 2.0, 2.0, 1.0, 1.0])
    p = compress.probabilities(d, s=2.0).probs
    lam = np.array([4.0, 2.0, 2.0, 1.0, 1.0])
    assert np.allclose(p, lam * 2.0 / lam.sum(), atol=1e-12)


def test_probabilities_match_numeric_minimizer():
    rng = np.random.default_rng(77)
    cases = [rng.standard_normal(5) for _ in range(3)]
    cases.append(np.array([10.0, 1.0, 1.0, 0.5]))  # forces clipping
    cases.append(np.array([100.0, 1.0, 1.0]))  # forces two clip rounds
    for vec in cases:
        vec = np.where(np.abs(vec) < 0.05, 0.2, vec)
        d = elementwise_of(vec)
        s = 2.5
        closed = compress.probabilities(d, s).probs
        # same objective the oracle minimizes: sum lambda_i^2 / p_i
        obj_closed = float(np.sum(d.coeffs**2 / closed))
        obj_numeric = minimize_variance_numeric(np.abs(d.coeffs), s)
        assert obj_closed <= obj_numeric + 1e-6


def criterion_03_draws():
    """The (lam, s) draws of acceptance criterion 03, in its order."""
    rng = substream(103, "acceptance", "optimal")
    draws = []
    for _ in range(50):
        b = int(rng.integers(2, 7))
        lam = np.abs(rng.standard_normal(b)) + 0.1
        s_max = float(lam.sum() / lam.max())
        draws.append((lam, float(rng.uniform(1.0, max(1.0, s_max)))))
    return draws


@pytest.mark.parametrize("draws", [selftest.probability_trials, criterion_03_draws],
                         ids=["selftest", "criterion_03"])
def test_the_closed_form_meets_its_lagrange_dual(draws):
    # the descent of minimize_variance_numeric only bounds the closed form
    # from one side, and stops short of the optimum on some of these draws
    for lam, s in draws():
        primal, gap = closed_form_duality_gap(lam, s)
        assert abs(gap) <= 1e-12 * primal, (lam, s, gap)


def test_the_duality_gap_refuses_a_draw_with_every_value_clipped():
    # a budget of n keeps every atom with probability 1, so no entry sets nu
    with pytest.raises(ValueError, match="clips all 2 values to 1"):
        closed_form_duality_gap(np.array([1.0, 2.0]), 2.0)


def test_probabilities_errors():
    d = elementwise_of([1.0, 2.0])
    with pytest.raises(ValueError):
        compress.probabilities(d, 0.5)
    with pytest.raises(ValueError):
        # zero-valued coefficients are not valid atoms
        compress.probabilities(
            compress.AtomicDecomposition(3, np.array([1.0, 0.0]), np.array([[True, True, False]])),
            1.5)


# A coefficient is a mantissa in [1, 10) times 10**k for k in [-6, 6], so a
# row mixes magnitudes far enough apart to clip over several rounds.
coefficients = st.builds(lambda m, k, sign: sign * m * 10.0**k, st.floats(1.0, 10.0),
                         st.integers(-6, 6), st.sampled_from([-1.0, 1.0]))


@st.composite
def clip_rows(draw):
    """(rows of 0-40 nonzero coefficients, 1-8 rows, budget s in [1, 12])."""
    rows = draw(st.lists(st.lists(coefficients, max_size=40), min_size=1, max_size=8))
    s = draw(st.one_of(st.integers(1, 12).map(float), st.floats(1.0, 12.0)))
    return rows, s


# probabilities clips every row at once, and each row's l1 must still be
# added as the row-by-row clip adds it: a pairwise sum over the row's
# compacted active coefficients.  Any other grouping of a sum moves a bit.
@settings(max_examples=300, deadline=None)
@given(clip_rows())
# two clip rounds before the first row converges; an empty row; rows of s
# atoms and of s + 1 atoms
@example(([[1000.0, 100.0, 10.0] + [1.0] * 6, [], [3.0, -2.0, 1.0], [7.0] * 40], 3.0))
@example(([[2.0] * 12, [-2.0] * 11, [1.0, 9.0] * 6 + [5.0]], 12.0))
# every row over budget: none clips, so all settle in the first round; one
# clips; one row within budget; one empty row
@example(([[1.0, -3.0, 2.0, 2.0], [5.0] * 7, [0.5, -0.25, 0.5]], 2.0))
@example(([[1.0, -3.0, 2.0, 2.0], [50.0, 1.0, 1.0, 1.0], [0.5, -0.25, 0.5]], 2.0))
@example(([[1.0, -3.0, 2.0, 2.0], [5.0, 7.0], [0.5, -0.25, 0.5]], 2.0))
@example(([[1.0, -3.0, 2.0, 2.0], [], [0.5, -0.25, 0.5]], 2.0))
def test_probabilities_equal_the_row_by_row_clip_bitwise(case):
    rows, s = case
    slots = np.arange(40) < np.array([len(row) for row in rows])[:, None]
    coeffs = np.array([c for row in rows for c in row])
    decomp = compress.AtomicDecomposition(40, coeffs, slots)
    want = probabilities_reference(decomp.atom_counts, decomp.coeffs, s)
    assert compress.probabilities(decomp, s).probs.tobytes() == want.tobytes()


@pytest.mark.parametrize("row, s", [
    ([2.1e-314, 5e-313, 1.4e-311, -3e-312], 2.0),  # one atom clips, then the rest settle
    ([1e-311, -2e-311, 2.5e-311], 2.0),  # no atom clips: the first round settles the row
], ids=["clipped", "unclipped"])
def test_probabilities_of_a_subnormal_row_are_finite_and_sum_to_s(row, s):
    # budget / l1 overflows on such a row as it stands, and not once the row
    # is scaled so that its largest coefficient is in [0.5, 1).
    # The rows beside it keep the bits of the row-by-row clip's
    # lambda * (budget / l1), which on both differ from (lambda / l1) * budget.
    rows = [[2.548, -1.238, 1.53, 2.062, 0.276], row, [10.0, 1.212, -1.285, 0.231, 0.241]]
    slots = np.arange(8) < np.array([len(r) for r in rows])[:, None]
    coeffs = np.array([c for r in rows for c in r])
    decomp = compress.AtomicDecomposition(8, coeffs, slots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = compress.probabilities(decomp, s).probs
    mine = p[5 : 5 + len(row)]
    assert np.isfinite(mine).all() and (mine > 0.0).all() and (mine <= 1.0).all()
    assert mine.sum() == pytest.approx(s, rel=1e-12)
    want = probabilities_reference([5, 5], np.array(rows[0] + rows[2]), s)
    assert np.concatenate([p[:5], p[5 + len(row):]]).tobytes() == want.tobytes()


@pytest.mark.parametrize("row, s", [
    ([1e308, -1e308, 1.0], 2.0),
    # the last atom is left alone once both others clip; scaled by their
    # largest, as in the first round, it would round to 0
    ([1e308, -1e308, 1e-300], 2.5),
], ids=["unclipped", "clipped"])
def test_probabilities_of_a_row_whose_l1_overflows_sum_to_s(row, s):
    d = elementwise_of(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = compress.probabilities(d, s).probs
    assert (p > 0.0).all() and (p <= 1.0).all()
    assert p.sum() == pytest.approx(s, rel=1e-12)


def test_probabilities_refuse_a_nan_budget():
    with pytest.raises(ValueError, match="sparsity budget s must be >= 1"):
        compress.probabilities(elementwise_of([1.0, 2.0]), math.nan)


# the desk model's blocks: W0 16 x 32, b0, W1 32 x 4, b1; 676 values
DESK_LAYOUT = nn.ParameterSet([np.zeros((16, 32)), np.zeros((32, 4))], [np.zeros(32), np.zeros(4)])


def desk_shaped_stack():
    """8 seeded rows of DESK_LAYOUT.dim normal draws at row scales 2^-6 to
    2^1, with entries under 1e-3 set to 0: every nonzero entry stays normal
    and finite when scaled by 2^-1000 or 2^1015."""
    rng = np.random.default_rng(32)
    rows = rng.standard_normal((8, DESK_LAYOUT.dim)) * 2.0 ** np.arange(-6, 2)[:, None]
    rows[np.abs(rows) < 1e-3] = 0.0
    return rows


# Which atoms are kept and their p depend only on ratios.  Unscaled, l1
# overflows at 2^1015, and a drop floor of 1e-12 * max(1, sigma_1) takes
# atoms from the small rows at 2^-40.  The second budget of each basis clips.
@pytest.mark.parametrize("basis, budgets", [
    ("elementwise", (5.0, 400.0)),
    ("lowrank", (5.0, 14.0)),
], ids=["elementwise", "lowrank"])
def test_a_stack_scaled_by_a_power_of_two_keeps_its_atoms_and_probabilities(basis, budgets):
    rows = desk_shaped_stack()
    for s in budgets:
        base = compress.decompose_bundle(DESK_LAYOUT.from_flat(rows), basis, s)
        want = compress.probabilities(base, s).probs
        for k in (-1000, -500, -40, 40, 500, 1000, 1015):
            scaled = np.ldexp(rows, k)
            assert np.array_equal(np.ldexp(scaled, -k), rows)  # the scaling is exact
            decomp = compress.decompose_bundle(DESK_LAYOUT.from_flat(scaled), basis, s)
            assert np.array_equal(decomp.slots, base.slots), (s, k)
            p = compress.probabilities(decomp, s).probs
            if basis == "elementwise":
                assert p.tobytes() == want.tobytes(), (s, k)
            else:  # LAPACK scales a matrix near the ends of the range itself
                np.testing.assert_allclose(p, want, rtol=1e-14, atol=0, err_msg=f"{s}, {k}")


# ---- sampling / reconstruction ---- #

def test_select_keeps_and_scales():
    d = elementwise_of([3.0, 2.0, 1.0])
    probs = compress.probabilities(d, 2.0)
    cg = compress.select(d, probs, np.array([True, False, True]))
    assert cg.payload_atoms == 2
    rec = compress.reconstruct(cg)
    assert np.allclose(rec, [3.0 / 1.0, 0.0, 1.0 / (1.0 / 3.0)], atol=1e-12)


def test_sample_all_ones_probs_is_lossless():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(30)
    d = elementwise_of(vec)
    probs = compress.SelectionProbabilities(np.ones(d.n_atoms))
    cg = compress.sample(d, probs, [substream(0, "compress", 0, 0)])
    assert cg.payload_atoms == d.n_atoms
    assert np.array_equal(compress.reconstruct(cg), vec[None])


def test_sample_empty_decomposition_zero_payload():
    d = elementwise_of(np.zeros(6))
    cg = compress.sample(d, compress.SelectionProbabilities(np.empty(0)),
                         [substream(0, "compress", 0, 0)])
    assert cg.payload_atoms == 0
    assert np.array_equal(compress.reconstruct(cg), np.zeros((1, 6)))


def test_sample_lowrank_reconstruction_span():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((4, 4))
    d = lowrank_of(mat, r=4)
    probs = compress.SelectionProbabilities(np.ones(d.n_atoms))
    cg = compress.sample(d, probs, [substream(1, "compress", 0, 0)])
    assert np.allclose(compress.reconstruct(cg), mat.ravel()[None], atol=1e-8)


def test_monte_carlo_unbiased_and_variance():
    vec = np.array([3.0, -2.0, 1.0, 0.5, -0.25])
    d = elementwise_of(vec)
    probs = compress.probabilities(d, 2.0)
    closed = compress.variance_closed_form(d, probs)
    n = 20000
    rng = substream(99, "mc")
    mask = rng.random((n, d.n_atoms)) < probs.probs
    total = np.zeros(d.dim)
    total_sq = 0.0
    for row in mask:
        (rec,) = compress.reconstruct(compress.select(d, probs, row))
        total += rec
        total_sq += float(np.sum((rec - vec) ** 2))
    mean = total / n
    var = total_sq / n
    # unbiasedness within 4 standard errors per coordinate
    per_coord_var = vec**2 * (1.0 / probs.probs - 1.0)
    stderr = np.sqrt(per_coord_var / n)
    assert (np.abs(mean - vec) <= 4.0 * stderr + 1e-12).all()
    assert var == pytest.approx(closed, rel=0.1)


def test_expected_payload_matches_sum_of_probs():
    d = elementwise_of([3.0, 2.0, 1.0, 1.0])
    probs = compress.probabilities(d, 2.0)
    n = 20000
    rng = substream(123, "mc")
    counts = (rng.random((n, d.n_atoms)) < probs.probs).sum(axis=1)
    assert counts.mean() == pytest.approx(probs.probs.sum(), rel=0.05)


def _one_row_reference(cg):
    """A one-row payload's dense vector, scattered the way a single payload
    was before reconstruction was batched: elementwise coefficients added at
    their positions, rank-1 blocks added one atom at a time.

    Also returns each entry's rounding bound for the rank-1 sums taken in
    another order: 4 * r * eps * sum_i |c_i * u_a * v_b| over the kept atoms
    of an r-slot block, and 0 for elementwise entries."""
    source = cg.source
    kept = np.zeros(source.slots.shape, dtype=bool)
    kept[source.slots] = cg.kept
    out = np.zeros(source.dim)
    bound = np.zeros(source.dim)
    if source.blocks is None:
        out[np.flatnonzero(kept[0])] += cg.coeffs
        return out, bound
    coeffs = iter(cg.coeffs)
    for block in source.blocks:
        r = block.u.shape[2]
        for i in range(r):
            if kept[0, block.start + i]:
                atom = next(coeffs) * np.outer(block.u[0, :, i], block.vt[0, i])
                at = slice(block.offset, block.offset + atom.size)
                out[at] += atom.ravel()
                bound[at] += 4 * r * np.finfo(np.float64).eps * np.abs(atom).ravel()
    return out, bound


def assert_matches_the_one_row_reference(row, cg):
    """Elementwise payloads bit for bit, signed zeros included; rank-1
    payloads within the reference's rounding bound, since a block's kept
    atoms are summed in one matmul rather than one at a time."""
    reference, bound = _one_row_reference(cg)
    if cg.source.blocks is None:
        assert row.tobytes() == reference.tobytes()
    else:
        assert (np.abs(row - reference) <= bound).all()


@st.composite
def masked_decompositions(draw):
    """(decomposition, probabilities, (n, B) keep mask) for either basis.

    Elementwise draws B directly; lowrank draws the layer sizes of a random
    gradient, and B is then the sum over blocks of min(ceil(s), rank)."""
    basis = draw(st.sampled_from(compress.BASIS_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.floats(1.0, 12.0))
    if basis == "elementwise":
        b = draw(st.integers(0, 40))
        vec = rng.standard_normal(b) * np.exp(2.0 * rng.standard_normal(b))
        vec[rng.random(b) < 0.2] = 0.0
        decomp = compress.decompose_elementwise(vec)
    else:
        sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
        params = nn.init_params(nn.MlpSpec(sizes), rng)
        grad = params.from_flat(rng.standard_normal(params.dim))
        decomp = compress.decompose_bundle(grad, "lowrank", s)
    probs = (compress.probabilities(decomp, s) if decomp.n_atoms
             else compress.SelectionProbabilities(np.empty(0)))
    n = draw(st.integers(1, 30))
    masks = rng.random((n, decomp.n_atoms)) < probs.probs
    masks[0] = True
    masks[-1] = masks[-1] & (n == 1)  # with n > 1 the last row keeps nothing
    return decomp, probs, masks


@settings(max_examples=200, deadline=None)
@given(masked_decompositions())
def test_reconstruct_rows_equals_one_row_at_a_time_bitwise(case):
    decomp, probs, masks = case
    rows = compress.reconstruct_rows(decomp, probs, masks)
    payloads = [compress.select(decomp, probs, mask) for mask in masks]
    one_at_a_time = np.concatenate([compress.reconstruct(cg) for cg in payloads])
    assert rows.shape == (len(masks), decomp.dim)
    # tobytes: bit for bit, signed zeros included
    assert rows.tobytes() == one_at_a_time.tobytes()
    for row, cg in zip(rows, payloads):
        assert_matches_the_one_row_reference(row, cg)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(compress.BASIS_KINDS), st.sampled_from([1, 3]), st.floats(1.0, 6.0),
       st.integers(0, 2**32 - 1))
def test_reconstruct_rows_equals_the_dense_reference_bitwise(basis, n, s, seed):
    # reconstruct_rows divides and places the kept atoms alone; it must give
    # the bytes of dividing every atom and masking with np.where, with an
    # empty row, a kept atom of p = 0 and +0.0 wherever no atom is placed
    rng = np.random.default_rng(seed)
    layout = nn.init_params(nn.MlpSpec((4, 5, 3)), rng)
    shape = (3, layout.dim)
    stack = rng.standard_normal(shape) * np.exp(2.0 * rng.standard_normal(shape))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    stack[1] = 0.0
    decomp = compress.decompose_bundle(layout.from_flat(stack), basis, s)
    assert decomp.atom_counts[1] == 0 and decomp.n_atoms
    p = compress.probabilities(decomp, s).probs
    masks = rng.random((n, decomp.n_atoms)) < p
    masks[-1] &= n == 1  # with n = 3 the last mask keeps nothing
    zero = rng.integers(decomp.n_atoms)
    p[zero], masks[0, zero] = 0.0, True
    probs = compress.SelectionProbabilities(p)
    got = compress.reconstruct_rows(decomp, probs, masks)
    want = reconstruct_rows_reference(decomp, probs, masks)
    assert got.tobytes() == want.tobytes()
    placed = np.zeros((n, 3, decomp.dim), dtype=bool)
    if basis == "elementwise":
        placed[:, decomp.slots] = masks & (p > 0.0)
    else:  # a kept rank-1 atom may reach any position of its row
        placed[:, [0, 2]] = masks.any(axis=1)[:, None, None]
    bits = got.view(np.uint64).reshape(placed.shape)
    assert not bits[~placed].any()  # +0.0, never -0.0


def test_reconstruct_rows_rejects_a_mask_of_the_wrong_width():
    d = elementwise_of([3.0, 2.0, 1.0])
    probs = compress.probabilities(d, 2.0)
    with pytest.raises(ValueError, match="keep mask"):
        compress.reconstruct_rows(d, probs, np.ones((4, 2), dtype=bool))
    with pytest.raises(ValueError, match="keep mask"):
        compress.reconstruct_rows(d, probs, np.ones(3, dtype=bool))


def test_an_atom_whose_probability_underflows_to_zero_reconstructs_cleanly():
    # a subnormal coefficient next to ordinary ones gets p = 0; it is never
    # kept, and the estimator must neither divide by that p nor hold an inf
    vec = np.array([5.1e-322, 300.0, -200.0, 100.0])
    d = elementwise_of(vec)
    probs = compress.probabilities(d, 2.0)
    assert probs.probs[0] == 0.0 and (probs.probs[1:] > 0.0).all()
    masks = np.array([[False, True, True, True], [False, False, True, False]])
    with np.errstate(all="raise"):
        rows = compress.reconstruct_rows(d, probs, masks)
        sampled = compress.sample(d, probs, [substream(4, "compress", 0, 0)])
        (rec,) = compress.reconstruct(sampled)
        scaled = sampled.coeffs
    want = np.zeros((2, 4))
    want[masks] = (vec / np.where(probs.probs > 0.0, probs.probs, 1.0))[masks.nonzero()[1]]
    assert rows.tobytes() == want.tobytes()
    assert not sampled.kept[0]
    assert np.array_equal(rec[sampled.kept], scaled) and not rec[~sampled.kept].any()


def test_sample_records_its_keep_mask():
    d = elementwise_of([3.0, -2.0, 1.0, 0.5])
    probs = compress.probabilities(d, 2.0)
    cg = compress.sample(d, probs, [substream(4, "compress", 0, 0)])
    assert cg.kept.shape == (d.n_atoms,) and cg.kept.sum() == cg.payload_atoms
    assert np.array_equal(compress.reconstruct_rows(d, probs, cg.kept[None]),
                          compress.reconstruct(cg))


@st.composite
def gradient_stacks(draw):
    """(layout, (M, d) gradient rows, basis, budget).  The rows span several
    orders of magnitude, so clipping happens; with M > 1 one row may be zero,
    and one row's first weight block may be rank one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    layout = nn.init_params(nn.MlpSpec(sizes), rng)
    m_rows = draw(st.integers(1, 8))
    scales = np.exp(2.0 * rng.standard_normal((m_rows, 1)))
    grads = rng.standard_normal((m_rows, layout.dim)) * scales
    basis = draw(st.sampled_from(compress.BASIS_KINDS))
    if basis == "elementwise":
        grads[rng.random(grads.shape) < 0.2] = 0.0
    if m_rows > 1 and draw(st.booleans()):
        grads[int(rng.integers(m_rows))] = 0.0
    if draw(st.booleans()):
        m, n = sizes[0], sizes[1]
        grads[int(rng.integers(m_rows)), : m * n] = np.outer(rng.standard_normal(m),
                                                             rng.standard_normal(n)).ravel()
    return layout, grads, basis, draw(st.floats(1.0, 12.0))


@settings(max_examples=200, deadline=None)
@given(gradient_stacks())
def test_one_stage_for_all_rows_equals_one_payload_per_row_bitwise(case):
    layout, grads, basis, s = case
    m_rows = grads.shape[0]

    def streams():
        return [substream(5, "compress", j, 0) for j in range(m_rows)]

    decomp = compress.decompose_bundle(layout.from_flat(grads), basis, s)
    cg = compress.sample(decomp, compress.probabilities(decomp, s), streams())
    rows, bits = compress.reconstruct(cg), compress.payload_bits(cg)
    assert rows.shape == grads.shape and bits.shape == (m_rows,)
    blobs = []
    for j, rng in enumerate(streams()):
        one = compress.decompose_bundle(layout.from_flat(grads[j]), basis, s)
        probs = compress.probabilities(one, s)
        payload = compress.select(one, probs, rng.random(one.n_atoms) < probs.probs)
        # tobytes: bit for bit, signed zeros included; also against the
        # scatter a single payload used before batching (within rounding
        # for rank-1 atoms)
        assert rows[j].tobytes() == compress.reconstruct(payload)[0].tobytes()
        assert_matches_the_one_row_reference(rows[j], payload)
        blobs.append(serialize(payload))
        assert [bits[j]] == compress.payload_bits(payload).tolist() == [8 * len(blobs[-1])]
    # the stack's wire form is every row's after the previous row's
    assert serialize(cg) == b"".join(blobs)
    assert cg.payload_atoms == int(np.count_nonzero(cg.kept))
    assert decomp.n_atoms == int(decomp.atom_counts.sum())


def test_stacked_drop_tolerance_is_per_row():
    # row 0's second singular value, 1e-6, is far above 1e-12 times its own
    # largest but below 1e-12 times row 1's; it stays an atom of row 0
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    layout = nn.ParameterSet([np.zeros((4, 3))], [np.zeros(3)])
    grads = np.zeros((2, layout.dim))
    grads[0, :12] = (u @ np.diag([1.0, 1e-6]) @ v.T).ravel()
    grads[1, :12] = 1e8 * rng.standard_normal(12)
    decomp = compress.decompose_bundle(layout.from_flat(grads), "lowrank", 3.0)
    alone = compress.decompose_bundle(layout.from_flat(grads[0]), "lowrank", 3.0)
    assert alone.n_atoms == 2 and decomp.atom_counts.tolist() == [2, 3]
    assert decomp.coeffs[:2].tobytes() == alone.coeffs.tobytes()


def lowrank_reference(parts):
    """Kept slots and coefficients of _lowrank's blocks, with each block's
    slots built on their own: in each row, the first `count` of them, where
    `count` is the number of that row's singular values above its floor."""
    slots, values = [], []
    for _, mats, r in parts:
        _, sv, _ = np.linalg.svd(mats, full_matrices=False)
        sv = sv[:, :r]
        count = np.count_nonzero(sv > compress._DROP_TOL * sv[:, :1], axis=1)
        slots.append(np.arange(r) < count[:, None])
        values.append(sv)
    slots = np.concatenate(slots, axis=1)
    return slots, np.concatenate(values, axis=1)[slots]


def test_lowrank_slots_from_one_comparison_equal_each_blocks_own_count():
    # rows whose blocks differ in rank: row 0 all zero, row 1's first block
    # rank 1, row 2's a near-tied spectrum and its last block rank 2
    rng = np.random.default_rng(8)
    wide = np.zeros((4, 4, 6))
    wide[1] = np.outer(rng.standard_normal(4), rng.standard_normal(6))
    wide[2] = near_tied_matrix(1)
    wide[3] = rng.standard_normal((4, 6))
    column = rng.standard_normal((4, 5, 1))
    column[0] = 0.0
    square = np.zeros((4, 3, 3))
    square[1:] = rng.standard_normal((3, 3, 3))
    square[2, :, 0] = 1e-13  # rank 2 plus an entry below the drop floor
    parts = [(0, wide, 3), (24, column, 1), (29, square, 3)]
    decomp = compress._lowrank(parts, 38)
    slots, coeffs = lowrank_reference(parts)
    assert decomp.atom_counts.tolist() == [0, 5, 6, 7]
    assert decomp.slots.dtype == bool and np.array_equal(decomp.slots, slots)
    assert decomp.coeffs.tobytes() == coeffs.tobytes()


def test_stage_rejects_a_generator_count_that_is_not_one_per_row():
    layout = make_bundle(5)
    decomp = compress.decompose_bundle(layout.from_flat(np.ones((3, layout.dim))), "lowrank", 2.0)
    probs = compress.probabilities(decomp, 2.0)
    with pytest.raises(ValueError, match="one generator per row"):
        compress.sample(decomp, probs, [substream(0, "compress", j, 0) for j in range(2)])


@pytest.mark.parametrize("decompose", [
    lambda mat: compress.decompose_elementwise(mat.ravel()),
    lambda mat: lowrank_of(mat, 2),
], ids=["elementwise", "lowrank"])
def test_a_single_gradient_is_a_one_row_stack(decompose):
    mat = np.random.default_rng(10).standard_normal((3, 4))
    d = decompose(mat)
    assert d.n_rows == 1
    probs = compress.probabilities(d, 2.0)
    cg = compress.sample(d, probs, [substream(0, "compress", 0, 0)])
    assert d.reconstruct_full().shape == compress.reconstruct(cg).shape == (1, 12)
    bits = compress.payload_bits(cg)
    assert bits.shape == (1,) and bits.tolist() == [8 * len(serialize(cg))]
    # one generator per row, also for one row: a bare generator is refused
    with pytest.raises((TypeError, ValueError)):
        compress.sample(d, probs, substream(0, "compress", 0, 0))


# ---- variance terms ---- #

def test_sigma_terms_worked_example():
    vt = compress.sigma_terms(elementwise_of([3.0, 2.0, 1.0]))
    assert vt.sigma1 == pytest.approx(36.0, abs=0)
    assert vt.sigma2 == pytest.approx(-14.0, abs=0)


def test_sigma_terms_sign_invariant():
    a = compress.sigma_terms(elementwise_of([3.0, -2.0, 1.0]))
    b = compress.sigma_terms(elementwise_of([3.0, 2.0, 1.0]))
    assert a.sigma1 == b.sigma1 and a.sigma2 == b.sigma2


def test_sigma_terms_predict_unclipped_variance():
    d = elementwise_of([0.9, 0.7, 0.5, 0.3, 0.2])
    s = 2.0
    probs = compress.probabilities(d, s)
    assert probs.probs.max() < 1.0  # genuinely unclipped
    vt = compress.sigma_terms(d)
    assert compress.variance_closed_form(d, probs) == pytest.approx(
        vt.sigma1 / s + vt.sigma2, rel=1e-12)


def test_sigma_terms_sum_each_rows_own_l1_squared():
    # two rows, no atom clipped: sigma1 / s + sigma2 is the variance of both
    coeffs = np.array([3.0, 2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1])
    d = compress.AtomicDecomposition(4, coeffs, np.ones((2, 4), dtype=bool))
    s = 1.5
    probs = compress.probabilities(d, s)
    assert probs.probs.max() < 1.0
    vt = compress.sigma_terms(d)
    assert vt.sigma1 == pytest.approx(6.5**2 + 1.0**2, rel=1e-15)
    assert compress.variance_closed_form(d, probs) == pytest.approx(
        vt.sigma1 / s + vt.sigma2, rel=1e-12)


def test_sigma_terms_empty_raises():
    with pytest.raises(ValueError):
        compress.sigma_terms(elementwise_of(np.zeros(2)))


def test_variance_worked_example():
    d = elementwise_of([3.0, 2.0, 1.0])
    probs = compress.probabilities(d, 2.0)
    assert compress.variance_closed_form(d, probs) == pytest.approx(4.0, abs=1e-12)


# ---- serialization ---- #

def test_serialize_elementwise_twelve_bytes_per_atom():
    d = elementwise_of([3.0, 2.0, 1.0, 4.0])
    probs = compress.SelectionProbabilities(np.ones(4))
    cg = compress.select(d, probs, np.ones(4, dtype=bool))
    blob = serialize(cg)
    assert len(blob) == 12 * 4
    import struct as _s
    idx0, coeff0 = _s.unpack_from("<Id", blob, 0)
    assert idx0 == 0 and coeff0 == 3.0


def test_serialize_lowrank_length_formula():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((3, 5))
    d = lowrank_of(mat, r=2)
    cg = compress.select(d, compress.SelectionProbabilities(np.ones(d.n_atoms)),
                         np.ones(d.n_atoms, dtype=bool))
    blob = serialize(cg)
    # a (u32 offset, u32 m, u32 n) header, u, v and the coefficient per atom
    assert d.n_atoms == 2
    assert len(blob) == 2 * (12 + 8 * (3 + 5) + 8)


@settings(max_examples=200, deadline=None)
@given(masked_decompositions())
def test_payload_bits_is_the_serialized_size(case):
    # random block shapes and keep masks; the last of n > 1 masks keeps nothing
    decomp, probs, masks = case
    for mask in masks:
        cg = compress.select(decomp, probs, mask)
        assert compress.payload_bits(cg).tolist() == [8 * len(serialize(cg))]


def test_payload_bits_of_a_rank_one_atom_of_a_16_by_32_block():
    d = lowrank_of(np.random.default_rng(2).standard_normal((16, 32)), r=1)
    cg = compress.select(d, compress.SelectionProbabilities(np.ones(1)), np.ones(1, dtype=bool))
    assert compress.payload_bits(cg).tolist() == [3232]
    empty = compress.sample(compress.decompose_elementwise(np.zeros(5)),
                            compress.SelectionProbabilities(np.empty(0)),
                            [substream(0, "compress", 0, 0)])
    assert compress.payload_bits(empty).tolist() == [0] and serialize(empty) == b""


# ---- budget projection oracle self-check ---- #

def test_budget_projection_oracle_behaves():
    lam = np.array([10.0, 1.0, 1.0])
    p = project_budget_box(lam * 2.0 / lam.sum(), 2.0)
    assert p.sum() == pytest.approx(2.0, abs=1e-9)
    assert p.max() <= 1.0 + 1e-12 and p.min() >= 0.0


LO = 1e-12  # the projection's default floor


def assert_budget_box_projection(p, s, x):
    """x sums to s, lies in [LO, 1] and is clip(p - shift, LO, 1) for one shift:
    every shift bound p_i - x_i from an entry below the cap is <= every one
    from an entry above the floor."""
    assert abs(x.sum() - s) <= 1e-12 * max(1.0, s)
    assert x.min() >= LO and x.max() <= 1.0
    gaps = p - x
    assert gaps[x < 1.0].max(initial=-np.inf) <= (
        gaps[x > LO].min(initial=np.inf) + 1e-13 * max(1.0, np.abs(p).max()))


@st.composite
def budget_box_inputs(draw):
    n = draw(st.integers(1, 7))
    # |p| <= 100: the shift is rounded to ulp(p), and every free entry carries
    # that error into the sum, so far beyond ~1e3 it outgrows the 1e-12 tolerance
    p = draw(hnp.arrays(np.float64, n, elements=st.floats(-100.0, 100.0, allow_nan=False)))
    s = draw(st.floats(n * LO, float(n)))
    return p, s


@settings(max_examples=300, deadline=None)
@given(budget_box_inputs())
def test_budget_projection_is_exact_property(inputs):
    p, s = inputs
    assert_budget_box_projection(p, s, project_budget_box(p, s))


def test_budget_projection_full_budget_gives_all_ones():
    p = np.random.default_rng(5).standard_normal(7)
    assert np.array_equal(project_budget_box(p, 7.0), np.ones(7))


def test_budget_projection_keeps_a_feasible_point():
    p = np.array([0.3, 0.5, 0.2, 1.0, LO, 0.75])
    x = project_budget_box(p, float(p.sum()))
    np.testing.assert_allclose(x, p, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("p, s, expected", [
    ([0.7] * 5, 2.0, [0.4] * 5),
    ([3.0, 3.0, 0.1, 0.1], 2.1, [1.0, 1.0, 0.05, 0.05]),
    ([-2.0, -2.0, -2.0], 3.0 * LO, [LO] * 3),
    ([0.5, 0.5, 9.0, 9.0, 9.0], 4.0, [0.5, 0.5, 1.0, 1.0, 1.0]),
])
def test_budget_projection_handles_ties(p, s, expected):
    p = np.array(p)
    x = project_budget_box(p, s)
    np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-15)
    assert_budget_box_projection(p, s, x)


# ---- the selftest's oracle against its np.clip form ---- #

def sized_trials():
    """One (lam, s) draw of every size 1-7, s in [1, size]."""
    rng = np.random.default_rng(31)
    return [(np.exp(rng.standard_normal(n)), float(rng.uniform(1.0, n))) for n in range(1, 8)]


@pytest.mark.parametrize("trials, iters", [
    pytest.param(selftest.probability_trials, 400, id="selftest_trials-400"),
    pytest.param(sized_trials, 50, id="sized_trials-50"),
])
def test_minimum_equals_the_np_clip_form_bitwise(trials, iters):
    for lam, s in trials():
        assert (minimize_variance_numeric(lam, s, iters).hex()
                == minimize_variance_reference(lam, s, iters).hex())


def test_projection_equals_the_np_clip_form_bitwise():
    rng = np.random.default_rng(29)
    for n in range(1, 8):
        for scale in (0.1, 1.0, 100.0):
            p = scale * rng.standard_normal(n)
            for s in (float(rng.uniform(n * LO, n)), float(rng.uniform(1.0, n)), float(n)):
                x = project_budget_box(p, s)
                assert x.tobytes() == project_budget_box_reference(p, s).tobytes()


@pytest.mark.parametrize("size", [1, 4, 7])
def test_both_early_returns_equal_the_np_clip_form(size):
    # the budget's two ends: every entry at its cap, and n floors added in
    # order (np.sum adds fewer than 8 values in sequence), where the
    # projection is the floor up to the rounding of q - shift
    lam = np.exp(np.random.default_rng(size).standard_normal(size))
    p = lam / lam.sum()
    assert np.array_equal(project_budget_box(p, float(size)), np.ones(size))
    for s in (float(size), float(np.sum(np.full(size, LO)))):
        x = project_budget_box(p, s)
        assert x.tobytes() == project_budget_box_reference(p, s).tobytes()
        assert (minimize_variance_numeric(lam, s, 20).hex()
                == minimize_variance_reference(lam, s, 20).hex())


@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_oracle_refuses_a_budget_the_box_cannot_meet(n):
    """n values in [LO, 1] sum to at least n floors added in order and at
    most n; a budget outside that range has no projection, and both ends
    stay valid."""
    lam = np.exp(np.random.default_rng(n).standard_normal(n))
    floor = float(np.sum(np.full(n, LO)))
    for s in (n * LO / 2, np.nextafter(floor, -np.inf), np.nextafter(n, np.inf), n + 1.0, -1.0,
              math.nan):
        with pytest.raises(ValueError, match="budget s = .* is outside"):
            project_budget_box(lam, s)
        with pytest.raises(ValueError, match="budget s = .* is outside"):
            minimize_variance_numeric(lam, s, 20)
    for s in (floor, float(n)):
        assert project_budget_box(lam, s).shape == (n,)
        assert math.isfinite(minimize_variance_numeric(lam, s, 20))
    if n == 2:  # before the check these returned [1, 1], [LO, LO] and 5.0
        for s in (3.0, -1.0):
            with pytest.raises(ValueError, match=rf"budget s = {s} is outside \[2e-12, 2\]"):
                project_budget_box(np.array([0.5, 0.5]), s)
        with pytest.raises(ValueError, match="budget s = 3.0 is outside"):
            minimize_variance_numeric(np.array([1.0, 2.0]), 3.0)


TIED_KNOTS = [
    [0.3, 0.3, 0.3, 0.3],  # every knot tied with three others
    [2.0, 2.0, 0.5, -1.0, 0.5, 2.0, 0.25],
    [0.75 + LO, 1.75, 0.25],  # p - lo of one entry is p - 1 of another
    [1.0 + LO, 2.0, 0.0, 1.0],
    np.random.default_rng(41).choice([-0.5, 0.2, 0.7, 1.5], 7),  # 7 draws of 4 values tie
]


@pytest.mark.parametrize("p", TIED_KNOTS)
def test_a_budget_equal_to_a_knots_total_equals_the_np_clip_form(p):
    p = np.array(p)
    # the knots and their clipped sums as project_budget_box_reference has them
    knots = np.sort(np.concatenate((p - 1.0, p - LO)))
    assert np.unique(knots).size < knots.size  # the bisection meets tied knots
    totals = np.clip(p - knots[:, None], LO, 1.0).sum(axis=1)
    for s in totals.tolist():  # each knot's sum, from the cap n to the floor n * lo
        x = project_budget_box(p, s)
        assert x.tobytes() == project_budget_box_reference(p, s).tobytes()
        # and a budget a step to either side of it, inside the box: a step
        # past either end is refused (test_the_oracle_refuses_a_budget_the_box_cannot_meet)
        for t in (np.nextafter(s, -np.inf), np.nextafter(s, np.inf)):
            if np.sum(np.full(p.size, LO)) <= t <= p.size:
                assert (project_budget_box(p, float(t)).tobytes()
                        == project_budget_box_reference(p, float(t)).tobytes())


def hinted_projection_cases():
    """(p, s) pairs: every knot's own total of the tied-knot inputs and a
    step to either side of it, then random p of every size 1-7 with a
    budget inside the box and at either end of it."""
    for p in map(np.array, TIED_KNOTS):
        knots = np.sort(np.concatenate((p - 1.0, p - LO)))
        for s in np.clip(p - knots[:, None], LO, 1.0).sum(axis=1).tolist():
            for t in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)):
                yield p.tolist(), float(t)
    rng = np.random.default_rng(53)
    for n in range(1, 8):
        p = rng.standard_normal(n)
        for s in (float(rng.uniform(n * LO, n)), float(rng.uniform(1.0, n)), float(n),
                  float(np.sum(np.full(n, LO)))):
            yield p.tolist(), s


def record_calls(monkeypatch, name):
    """A list that grows by (args, result) for each call of selftest.<name>."""
    calls = []
    real = getattr(selftest, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(selftest, name, spy)
    return calls


def test_a_hinted_projection_equals_the_cold_one(monkeypatch):
    """Every hint, in range or not, gives the cold projection's bytes, index
    and objective: the right hint settles the bracket without a bisection
    sum, and every other hint bisects."""
    sums = record_calls(monkeypatch, "_clipped_sum")
    rng = np.random.default_rng(67)
    for p, s in hinted_projection_cases():
        lam2 = np.exp(rng.standard_normal(len(p))).tolist()
        cold, j, value = _project(p, s, LO, 0, lam2)
        # np.sum adds fewer than 8 values in sequence, as _project does
        assert value.hex() == float(np.sum(np.array(lam2) / np.array(cold))).hex()
        for hint in range(2 * len(p) + 2):
            before = len(sums)
            x, k, v = _project(p, s, LO, hint, lam2)
            assert (np.array(x).tobytes(), k, v.hex()) == (np.array(cold).tobytes(), j, value.hex())
            assert (len(sums) == before) == (hint == j and 0 < j < 2 * len(p)), (p, s, hint)


def test_clipped_sum_equals_the_sum_of_the_clipped_list_bitwise():
    """The bisection's sum against np.sum of np.clip, at sizes 1-7, where
    numpy adds in sequence."""
    rng = np.random.default_rng(59)
    for n in range(1, 8):
        for scale in (0.1, 1.0, 100.0):
            p = scale * rng.standard_normal(n)
            for shift in (*rng.uniform(-2.0, 2.0, 4).tolist(), p.min() - 1.0, p.max()):
                expected = float(np.sum(np.clip(p - shift, LO, 1.0)))
                assert _clipped_sum(p.tolist(), shift, LO).hex() == expected.hex(), (n, shift)


def test_the_descent_takes_about_two_sums_per_projection(monkeypatch):
    """A count, not a timing: each iteration of the descent on the
    selftest's draws sums at its previous bracket's two knots in one pass,
    and bisects all the knots only on its cold start and when the bracket
    moved: 98 bisection sums in these 40,000 iterations."""
    sums = record_calls(monkeypatch, "_clipped_sum")
    iters = 4000
    for lam, s in selftest.probability_trials():
        minimize_variance_numeric(lam, s, iters)
    assert len(sums) < 0.005 * len(selftest.probability_trials()) * iters


def test_the_descent_runs_its_hinted_step_and_its_cold_fallback(monkeypatch):
    """On the draws of test_minimum_equals_the_np_clip_form_bitwise
    [sized_trials-50]: each iteration is one _project call, which settles at
    its inner hint without a bisection sum, or misses it and bisects."""
    sums = record_calls(monkeypatch, "_clipped_sum")
    real = selftest._project
    calls = []

    def spy(q, s, lo, j, lam2):
        before = len(sums)
        result = real(q, s, lo, j, lam2)
        calls.append((0 < j < 2 * len(q), len(sums) > before, j == result[1]))
        return result

    monkeypatch.setattr(selftest, "_project", spy)
    for lam, s in sized_trials():
        minimize_variance_numeric(lam, s, 50)
    assert len(calls) == len(sized_trials()) * 51  # a cold start, then one per iteration
    settled = [kept for inner, bisected, kept in calls if inner and not bisected]
    missed = [kept for inner, bisected, kept in calls if inner and bisected]
    assert settled and all(settled)
    assert missed and not any(missed)


def test_minimum_of_7_values_equals_the_np_clip_form_bitwise():
    """The most values the oracle takes; 400 iterations give the rounding
    room to tell another order of the additions."""
    rng = np.random.default_rng(78)
    for _ in range(3):
        lam, s = np.exp(rng.standard_normal(7)), float(rng.uniform(1.0, 7))
        assert (minimize_variance_numeric(lam, s, 400).hex()
                == minimize_variance_reference(lam, s, 400).hex())


@pytest.mark.parametrize("n", [0, 8])
def test_the_oracle_refuses_0_or_8_values(n):
    """No values cannot sum to the budget, and numpy adds 8 or more in
    pairwise lanes, not in the order the oracle adds in."""
    lam = np.ones(n)
    with pytest.raises(ValueError, match=f"takes 1-7 values, got {n}"):
        selftest.minimize_variance_numeric(lam, 1.0)
    with pytest.raises(ValueError, match=f"takes 1-7 values, got {n}"):
        project_budget_box(lam, 1.0)


def test_budget_projection_returns_a_new_float64_vector_of_its_inputs_length():
    p = np.random.default_rng(43).standard_normal(7)
    before = p.tobytes()
    for s in (7.0, 3.5, 7 * LO):  # all capped, interpolated, all floored
        x = project_budget_box(p, s)
        assert x.dtype == np.float64 and x.shape == p.shape
        assert x is not p and p.tobytes() == before
