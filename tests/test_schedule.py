import math

import numpy as np
import pytest

from fflsim import schedule
from fflsim.schedule import BoundParams, RoundPlan, SchedulerState

from oracles import draw_smooth_regime, psi_reference

EXAMPLE = dict(eta=0.01, L=0.5, sigma1=1.0, sigma2=2.0, alpha=0.001, M=8,
               T_k=100.0, Y_k=0.01)


def example_params(**overrides):
    return BoundParams(**{**EXAMPLE, **overrides})


# ---- psi ---- #

def test_psi_tau_one_drops_third_term():
    p = example_params()
    F = 1.0
    got = schedule.psi(1, 3.0, p, F)
    a = 2.0 * F / (p.eta * p.T_k)
    want = a * (p.Y_k + p.alpha * 3.0) + p.eta * p.L * (p.sigma1 / 3.0 + p.sigma2) / p.M
    assert got == pytest.approx(want, rel=1e-15)


def test_psi_matches_reference_oracle():
    p = example_params()
    for tau in (1, 2, 7, 30):
        for s in (1.0, 2.5, 9.0):
            want = psi_reference(tau, s, p.eta, p.L, p.sigma1, p.sigma2, p.alpha,
                                 p.M, p.T_k, 1.0, 0.0, p.Y_k)
            assert schedule.psi(tau, s, p, 1.0) == pytest.approx(want, rel=1e-12)


def test_psi_difference_hand_expanded():
    # psi(tau, s) - psi(tau, s') isolates the s-dependent pieces
    p = example_params()
    F, tau, s, s2 = 1.0, 4, 2.0, 5.0
    a = 2.0 * F / (p.eta * p.T_k)
    want = (a * p.alpha * (s - s2) / tau
            + (p.eta * p.L / p.M + p.eta**2 * p.L**2 * (tau - 1)) * p.sigma1 * (1 / s - 1 / s2))
    got = schedule.psi(tau, s, p, F) - schedule.psi(tau, s2, p, F)
    assert got == pytest.approx(want, rel=1e-12)


def test_psi_monotone_pieces():
    p = example_params()
    # first term strictly decreasing in tau, third strictly increasing
    taus = [1, 2, 5, 10, 30]
    first = [2.0 / (p.eta * p.T_k) * (p.Y_k + p.alpha * 5.0 / t) for t in taus]
    third = [p.eta**2 * p.L**2 * (p.sigma1 / 5.0 + p.sigma2) * (t - 1) for t in taus]
    assert all(x > y for x, y in zip(first, first[1:]))
    assert all(x < y for x, y in zip(third, third[1:]))


def test_psi_domain_errors():
    p = example_params()
    with pytest.raises(ValueError):
        schedule.psi(0, 2.0, p, 1.0)
    with pytest.raises(ValueError):
        schedule.psi(2, 0.5, p, 1.0)
    with pytest.raises(ValueError):
        schedule.psi(2, 2.0, example_params(F_inf=0.5), 0.25)


# ---- hessian ---- #

def test_hessian_matches_finite_differences():
    p = example_params()
    F, tau, s = 1.0, 5.0, 3.0
    h = schedule.hessian(tau, s, p, F)
    eps = 1e-4

    def f(t, ss):
        return schedule.psi(t, ss, p, F)

    fd = np.empty((2, 2))
    fd[0, 0] = (f(tau + eps, s) - 2 * f(tau, s) + f(tau - eps, s)) / eps**2
    fd[1, 1] = (f(tau, s + eps) - 2 * f(tau, s) + f(tau, s - eps)) / eps**2
    fd[0, 1] = fd[1, 0] = (
        f(tau + eps, s + eps) - f(tau + eps, s - eps)
        - f(tau - eps, s + eps) + f(tau - eps, s - eps)
    ) / (4 * eps**2)
    assert np.allclose(h, fd, rtol=1e-4)


def test_hessian_diagonal_positive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        kwargs, tau, s, F = draw_smooth_regime(rng)
        h = schedule.hessian(tau, s, BoundParams(**kwargs), F)
        assert h[0, 0] > 0 and h[1, 1] > 0


def test_hessian_psd_under_smooth_regime():
    rng = np.random.default_rng(1)
    for _ in range(100):
        kwargs, tau, s, F = draw_smooth_regime(rng)
        psd, h = schedule.hessian_check(tau, s, BoundParams(**kwargs), F)
        assert psd, f"indefinite Hessian {h} for {kwargs}, tau={tau}, s={s}"


# ---- optimal_full ---- #

def grid_min(p, F, tau_ub, s_ub):
    best = math.inf
    s_values = np.arange(1.0, s_ub + 1e-9, 0.1)
    for t in range(1, tau_ub + 1):
        for s in s_values:
            best = min(best, schedule.psi(t, float(s), p, F))
    return best


def test_optimal_full_beats_grid_on_smooth_draws():
    rng = np.random.default_rng(2)
    for _ in range(10):
        kwargs, tau, s, F = draw_smooth_regime(rng)
        p = BoundParams(**kwargs)
        plan = schedule.optimal_full(p, F, tau_ub=30, s_ub=9.0)
        assert 1 <= plan.tau_k <= 30 and 1.0 <= plan.s_k <= 9.0
        assert schedule.psi(plan.tau_k, plan.s_k, p, F) <= grid_min(p, F, 30, 9.0) + 1e-9


def test_optimal_full_zero_sigma1_minimal_budget():
    p = example_params(sigma1=0.0, sigma2=0.1)
    plan = schedule.optimal_full(p, 1.0, tau_ub=30, s_ub=9.0)
    assert plan.s_k == 1.0
    assert schedule.psi(plan.tau_k, 1.0, p, 1.0) <= grid_min(p, 1.0, 30, 9.0) + 1e-9


def test_optimal_full_s_scales_with_sqrt_budget():
    # with tau pinned at 1 the optimal s is sqrt(B*sigma1/(A*alpha)); A ~ 1/T
    base = example_params(sigma1=4.0, sigma2=0.0)
    quad = example_params(sigma1=4.0, sigma2=0.0, T_k=400.0)
    s1 = schedule.optimal_full(base, 1.0, tau_ub=1, s_ub=9.0).s_k
    s2 = schedule.optimal_full(quad, 1.0, tau_ub=1, s_ub=9.0).s_k
    assert 1.0 < s1 < s2 < 9.0
    assert s2 / s1 == pytest.approx(2.0, rel=1e-6)


def test_optimal_full_respects_bounds_and_errors():
    p = example_params()
    with pytest.raises(ValueError):
        schedule.optimal_full(p, 1.0, tau_ub=0, s_ub=9.0)
    with pytest.raises(ValueError):
        schedule.optimal_full(example_params(F_inf=2.0), 1.0, tau_ub=5, s_ub=9.0)
    plan = schedule.optimal_full(p, 1.0, tau_ub=3, s_ub=2.0)
    assert plan.tau_k <= 3 and plan.s_k <= 2.0


# ---- cube-root schedule ---- #

def fresh_state(**overrides):
    kwargs = dict(tau0=30, s0=5.0, tau_ub=30, s_ub=9.0, loss_smoothing=0.0, F0=2.0)
    kwargs.update(overrides)
    return SchedulerState(**kwargs)


def test_plan_next_identity_at_anchor_loss():
    plan = schedule.plan_next(fresh_state(), 2.0)
    assert (plan.tau_k, plan.s_k) == (30, 5.0)


def test_plan_next_worked_example():
    plan = schedule.plan_next(fresh_state(), 0.25)
    assert plan.tau_k == 15
    assert plan.s_k == 9.0  # clamp(10, 1, 9)


def test_plan_next_saturates():
    plan = schedule.plan_next(fresh_state(), 1e-12)
    assert (plan.tau_k, plan.s_k) == (1, 9.0)
    plan_up = schedule.plan_next(fresh_state(), 1e9)
    assert (plan_up.tau_k, plan_up.s_k) == (30, 1.0)


def test_plan_next_rounds_ties_to_even():
    # F/F0 = (1/2)^3 * ((2k+1)/tau0 for a .5 raw value); pick raw tau = 4.5
    state = fresh_state(tau0=9, s0=5.0)
    plan = schedule.plan_next(state, 2.0 * 0.125)  # ratio 0.5 -> raw 4.5
    assert plan.tau_k == 4  # banker's rounding


def test_conclusive_ratio_law():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fa, fb = rng.uniform(1e-3, 10.0, 2)
        ta, sa = schedule.conclusive_raw(fa, 2.0, 30, 5.0)
        tb, sb = schedule.conclusive_raw(fb, 2.0, 30, 5.0)
        assert ta / tb == pytest.approx((fa / fb) ** (1 / 3), rel=1e-12)
        assert sa / sb == pytest.approx((fb / fa) ** (1 / 3), rel=1e-12)


def test_conclusive_monotone_in_loss():
    losses = [2.0, 1.5, 1.5, 0.9, 0.4, 0.1, 0.01]
    raws = [schedule.conclusive_raw(f, 2.0, 30, 5.0) for f in losses]
    taus = [t for t, _ in raws]
    ss = [s for _, s in raws]
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    assert all(a <= b for a, b in zip(ss, ss[1:]))


def test_conclusive_raw_errors():
    with pytest.raises(ValueError):
        schedule.conclusive_raw(0.0, 2.0, 30, 5.0)
    with pytest.raises(ValueError):
        schedule.conclusive_raw(1.0, -1.0, 30, 5.0)


def test_observe_loss_ema_and_anchor():
    state = SchedulerState(tau0=30, s0=5.0, tau_ub=30, s_ub=9.0, loss_smoothing=0.3)
    first = schedule.observe_loss(state, 2.0)
    assert first == 2.0 and state.F0 == 2.0  # anchored on first observation
    second = schedule.observe_loss(state, 1.0)
    assert second == pytest.approx(0.3 * 2.0 + 0.7 * 1.0, rel=1e-15)
    assert state.F0 == 2.0  # anchor does not move


def test_observe_loss_preset_anchor_kept():
    state = fresh_state(loss_smoothing=0.3)
    schedule.observe_loss(state, 0.5)
    assert state.F0 == 2.0
    assert state.smoothed == 0.5


def test_observe_loss_rejects_bad_values():
    state = fresh_state()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            schedule.observe_loss(state, bad)


def test_plan_next_uses_smoothed_loss():
    state = fresh_state(loss_smoothing=0.5)
    schedule.plan_next(state, 2.0)
    plan = schedule.plan_next(state, 0.25)  # smoothed = 0.5*2 + 0.5*0.25 = 1.125
    raw_tau, _ = schedule.conclusive_raw(1.125, 2.0, 30, 5.0)
    assert plan.tau_k == round(raw_tau)


def test_scheduler_state_validation():
    with pytest.raises(ValueError):
        SchedulerState(tau0=0, s0=5.0, tau_ub=30, s_ub=9.0)
    with pytest.raises(ValueError):
        SchedulerState(tau0=31, s0=5.0, tau_ub=30, s_ub=9.0)
    with pytest.raises(ValueError):
        SchedulerState(tau0=30, s0=10.0, tau_ub=30, s_ub=9.0)
    with pytest.raises(ValueError):
        SchedulerState(tau0=30, s0=5.0, tau_ub=30, s_ub=9.0, loss_smoothing=1.0)


def test_round_plan_validation():
    with pytest.raises(ValueError):
        RoundPlan(0, 2.0)
    with pytest.raises(ValueError):
        RoundPlan(2, 0.5)


BOUND_KEYS = ("eta", "L", "sigma1", "sigma2", "alpha", "M", "T_k", "Y_k", "F_inf")


# NaN compares false with every number, so each range check is written to
# fail on it: `not x >= 1`, not `x < 1`
@pytest.mark.parametrize("call, message", [
    *(pytest.param(lambda key=key: example_params(**{key: math.nan}), f"{key} must be",
                   id=f"BoundParams.{key}") for key in BOUND_KEYS),
    pytest.param(lambda: RoundPlan(math.nan, 2.0), "tau_k must be", id="RoundPlan.tau_k"),
    pytest.param(lambda: RoundPlan(3, math.nan), "s_k must be", id="RoundPlan.s_k"),
    pytest.param(lambda: fresh_state(F0=math.nan), "F0 must be", id="SchedulerState.F0"),
    pytest.param(lambda: schedule.psi(math.nan, 2.0, example_params(), 1.0), "psi needs",
                 id="psi.tau"),
    pytest.param(lambda: schedule.psi(2, math.nan, example_params(), 1.0), "psi needs",
                 id="psi.s"),
    pytest.param(lambda: schedule.psi(2, 2.0, example_params(), math.nan), "below F_inf",
                 id="psi.F_k"),
    pytest.param(lambda: schedule.optimal_full(example_params(), math.nan, 30, 9.0),
                 "below F_inf", id="optimal_full.F_k"),
    pytest.param(lambda: schedule.optimal_full(example_params(), 1.0, 30, math.nan),
                 "need tau_ub >= 1", id="optimal_full.s_ub"),
    pytest.param(lambda: schedule.conclusive_raw(math.nan, 2.0, 30, 5.0), "losses must be",
                 id="conclusive_raw.F_hat"),
    pytest.param(lambda: schedule.conclusive_raw(1.0, math.nan, 30, 5.0), "losses must be",
                 id="conclusive_raw.F0"),
])
def test_nan_fails_every_range_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("key", BOUND_KEYS)
@pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_inf_fails_every_bound_params_check(key, inf):
    # an infinite constant would make psi inf or nan and leave the planner
    # nothing to compare
    with pytest.raises(ValueError, match=f"{key} must be finite, got {inf}"):
        example_params(**{key: inf})


# ---- bound constants ---- #

def test_bound_params_validation():
    with pytest.raises(ValueError):
        example_params(eta=0.0)
    with pytest.raises(ValueError):
        example_params(L=-1.0)
    with pytest.raises(ValueError):
        example_params(sigma1=-0.1)
    with pytest.raises(ValueError):
        example_params(alpha=0.0)
    with pytest.raises(ValueError):
        example_params(M=0)
    with pytest.raises(ValueError):
        example_params(T_k=0.0)
