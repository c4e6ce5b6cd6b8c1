"""Acceptance suite: every release gate in one module, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The end-to-end criteria (08, 09) use a frozen desk-scale task: 4 Gaussian
classes in 16 dimensions, spread 0.30, 4000 training samples, 8 workers on
100 kbps links — small enough for laptop wall-clock, hard enough that the
schemes separate.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from fflsim import cli, compress, federation, nn, schedule
from fflsim.config import ExperimentConfig
from fflsim.data import sample_minibatch
from fflsim.federation import Experiment
from fflsim.rng import substream

from oracles import draw_smooth_regime, finite_diff_gradient, minimize_variance_numeric


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_decomposition(rng, max_atoms=64, min_atoms=8):
    b = int(rng.integers(min_atoms, max_atoms + 1))
    vec = rng.standard_normal(b)
    vec += np.sign(vec) * 0.05  # keep atoms away from zero
    return compress.decompose_elementwise(vec)


def _desk_cfg(scheme, seed, p_fail=0.0, budget=120.0):
    return ExperimentConfig(
        seed=seed, scheme=scheme, stop="time", T_budget_s=budget,
        workers=8, eta=0.01, server_momentum=0.9, batch_size=64,
        hidden_layers=[32], tau0=30, tau_ub=30, s0=5.0, s_ub=9.0,
        dataset="synthetic", synthetic_classes=4, synthetic_per_class=1000,
        synthetic_test_per_class=250, synthetic_dim=16, synthetic_spread=0.30,
        uplink_rate_bps=1e5, downlink_rate_bps=1e5,
        target_accuracy=0.9, packet_failure_prob=p_fail, round_cap=20000,
    )


# --------------------------------------------------------------------------- #

def test_criterion_01_unbiasedness():
    rng = substream(202, "acceptance", "unbiased")
    n = 100_000
    started = time.perf_counter()
    worst_sigmas = 0.0
    for case in range(20):
        decomp = _random_decomposition(rng)
        s = float(rng.uniform(1.0, decomp.n_atoms))
        if case < 2:
            s = float(decomp.n_atoms)  # saturated: every probability is 1
        probs = compress.probabilities(decomp, s)
        mask = rng.random((n, decomp.n_atoms)) < probs.probs
        total = np.zeros(decomp.dim)
        for chunk in np.split(mask, 10):  # 10,000 samples per call
            total += compress.reconstruct_rows(decomp, probs, chunk).sum(axis=0)
        mean = total / n
        g = decomp.reconstruct_full()
        per_coord_var = decomp.coeffs**2 * (1.0 / probs.probs - 1.0)
        stderr = np.sqrt(per_coord_var / n)
        # the 1e-9 absorbs float accumulation on the deterministic p = 1 atoms
        gap = np.abs(mean - g) - 3.0 * stderr
        assert (gap <= 1e-9).all(), f"case {case}: worst overrun {gap.max():.3g}"
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = np.abs(mean - g) / np.where(stderr > 0, stderr, np.inf)
        worst_sigmas = max(worst_sigmas, float(sigmas.max()))
    elapsed = time.perf_counter() - started
    _report(1, "unbiased estimator (3-sigma, N=100000, 20 decompositions)",
            elapsed < 30.0,
            f"worst deviation {worst_sigmas:.2f} sigma, runtime {elapsed:.1f}s < 30s")


def test_criterion_02_variance_law():
    rng = substream(102, "acceptance", "variance")
    n = 100_000
    worst_rel = 0.0
    for case in range(20):
        if case < 10:
            decomp = _random_decomposition(rng, max_atoms=32)
            s = float(rng.uniform(1.0, decomp.n_atoms * 0.8))
        else:
            # near-uniform coefficients stay s-balanced: probabilities unclipped
            b = int(rng.integers(8, 17))
            vec = rng.uniform(0.5, 1.5, b) * np.where(rng.random(b) < 0.5, -1.0, 1.0)
            decomp = compress.decompose_elementwise(vec)
            s = float(rng.uniform(1.0, b * 0.6))
        probs = compress.probabilities(decomp, s)
        closed = compress.variance_closed_form(decomp, probs)
        lam = decomp.coeffs
        mask = rng.random((n, decomp.n_atoms)) < probs.probs
        sq_err = (((mask / probs.probs) - 1.0) * lam) ** 2
        empirical = float(sq_err.sum(axis=1).mean())
        # the matrix shortcut must agree with the production reconstruction
        g = decomp.reconstruct_full()
        for row in mask[:100]:
            rec = compress.reconstruct(compress.select(decomp, probs, row))
            direct = float((((row / probs.probs) - 1.0) * lam) @
                           (((row / probs.probs) - 1.0) * lam))
            assert math.isclose(float(np.sum((rec - g) ** 2)), direct,
                                rel_tol=1e-9, abs_tol=1e-9)
        rel = abs(empirical - closed) / closed if closed else 0.0
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05, f"case {case}: empirical {empirical} vs closed {closed}"
        if probs.probs.max() < 1.0:
            terms = compress.sigma_terms(decomp)
            sigma_form = terms.sigma1 / s + terms.sigma2
            assert math.isclose(closed, sigma_form, rel_tol=1e-12)
            assert abs(empirical - sigma_form) / sigma_form <= 0.05

    # the worked instance: lambda = (3, 2, 1), s = 2 has variance exactly 4
    decomp = compress.decompose_elementwise(np.array([3.0, 2.0, 1.0]))
    probs = compress.probabilities(decomp, 2.0)
    closed = compress.variance_closed_form(decomp, probs)
    assert closed == 4.0
    mask = rng.random((n, 3)) < probs.probs
    empirical = float(((((mask / probs.probs) - 1.0) * decomp.coeffs) ** 2)
                      .sum(axis=1).mean())
    assert abs(empirical - 4.0) / 4.0 <= 0.05
    _report(2, "sampling variance matches closed form (5%, worked instance = 4.0)",
            True, f"worst relative gap {worst_rel:.3f}, worked instance MC {empirical:.3f}")


def test_criterion_03_probability_optimality():
    rng = substream(103, "acceptance", "optimal")
    worst_slack = -math.inf
    for _ in range(50):
        b = int(rng.integers(2, 7))
        lam = np.abs(rng.standard_normal(b)) + 0.1
        s_max = float(lam.sum() / lam.max())
        s = float(rng.uniform(1.0, max(1.0, s_max)))
        decomp = compress.decompose_elementwise(lam)
        probs = compress.probabilities(decomp, s)
        obj_closed = float(np.sum(lam**2 / probs.probs))
        obj_numeric = minimize_variance_numeric(lam, s)
        slack = obj_closed - obj_numeric
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-6, f"closed {obj_closed} vs numeric {obj_numeric}"
    _report(3, "closed-form probabilities beat a numeric minimizer (50 balanced draws)",
            True, f"worst closed-minus-numeric objective {worst_slack:.2e} <= 1e-6")


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(104)
    sizes_list = [(8, 12, 4), (10, 8, 5), (6, 6, 6, 3), (15, 9, 2), (4, 10, 5, 2)]
    worst = 0.0
    for sizes in sizes_list:
        params = nn.init_params(nn.MlpSpec(sizes, "tanh"),
                                substream(104, "init", *sizes))
        assert params.dim <= 200
        batch = nn.MiniBatch(rng.standard_normal((6, sizes[0])),
                             rng.integers(0, sizes[-1], 6))
        _, grad = nn.loss_and_grad(params, batch)

        def loss_at(flat, params=params, batch=batch):
            return nn.loss_and_grad(params.from_flat(flat), batch)[0]

        fd = finite_diff_gradient(loss_at, params.flatten())
        got = grad.flatten()
        rel = np.abs(fd - got) / np.maximum.reduce(
            [np.abs(fd), np.abs(got), np.full_like(fd, 1e-6)])
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"sizes {sizes}: max rel {rel.max():.3g}"
    _report(4, "backprop matches finite differences (5 MLPs, d <= 200)",
            True, f"worst relative error {worst:.2e} < 1e-4")


def test_criterion_05_degenerate_equivalence():
    # (a) one worker, tau = 1, no compression == centralized SGD, 1e-12
    cfg = ExperimentConfig(
        seed=7, scheme="vanilla", stop="rounds", round_cap=50, workers=1,
        synthetic_classes=3, synthetic_per_class=60, synthetic_test_per_class=30,
        synthetic_dim=8, hidden_layers=[8], batch_size=8, tau0=1, s0=5.0,
        server_momentum=0.0, eval_stride=1000,
    )
    exp = Experiment(cfg)
    ref = exp.params.copy()
    shard = exp.workers[0].shard
    rng = substream(cfg.seed, "worker", 0)
    worst_a = 0.0
    for _ in range(50):
        exp.run_round()
        mb = sample_minibatch(shard, exp.train_set, cfg.batch_size, rng)
        _, grad = nn.loss_and_grad(ref, mb)
        ref, _ = nn.sgd_step(ref, grad, cfg.eta)
        worst_a = max(worst_a, float(np.abs(exp.params.flatten() - ref.flatten()).max()))
    assert worst_a <= 1e-12

    # (b) s = model dimension: lossless compression == uncompressed, 1e-9
    d = float(Experiment(cfg).params.dim)
    cfg_plain = dataclasses.replace(cfg, workers=2, server_momentum=0.9)
    cfg_lossless = dataclasses.replace(cfg_plain, scheme="fixed", s0=d, s_ub=d)
    exp_p, exp_c = Experiment(cfg_plain), Experiment(cfg_lossless)
    worst_b = 0.0
    for _ in range(30):
        exp_p.run_round()
        exp_c.run_round()
        worst_b = max(worst_b, float(np.abs(exp_p.params.flatten()
                                            - exp_c.params.flatten()).max()))
    assert worst_b <= 1e-9
    _report(5, "degenerate FL equals centralized SGD / lossless equals dense",
            True, f"max drifts {worst_a:.1e} <= 1e-12 and {worst_b:.1e} <= 1e-9")


def test_criterion_06_schedule_law():
    # (a) pre-clamp cube-root ratio law at 1e-12 relative
    rng = np.random.default_rng(106)
    for _ in range(50):
        fa, fb = rng.uniform(1e-3, 10.0, 2)
        ta, sa = schedule.conclusive_raw(fa, 2.0, 30, 5.0)
        tb, sb = schedule.conclusive_raw(fb, 2.0, 30, 5.0)
        assert abs(ta / tb - (fa / fb) ** (1 / 3)) <= 1e-12 * abs(ta / tb)
        assert abs(sa / sb - (fb / fa) ** (1 / 3)) <= 1e-12 * abs(sa / sb)

    # (b) a real run: every broadcast plan equals the law applied to the
    # previous round's smoothed loss, and monotone loss stretches give
    # monotone plans (tau down, s up)
    cfg = dataclasses.replace(_desk_cfg("ffl", 0), stop="rounds", round_cap=120)
    records, _ = Experiment(cfg).run()
    f0 = records[0].smoothed_loss
    checked_pairs = 0
    for k in range(1, len(records)):
        raw_tau, raw_s = schedule.conclusive_raw(
            records[k - 1].smoothed_loss, f0, cfg.tau0, cfg.s0)
        want_tau = int(min(max(round(raw_tau), 1), cfg.tau_ub))
        want_s = min(max(raw_s, 1.0), cfg.s_ub)
        assert records[k].tau_k == want_tau
        assert math.isclose(records[k].s_k, want_s, rel_tol=1e-12)
        if k >= 2 and records[k - 2].smoothed_loss >= records[k - 1].smoothed_loss:
            assert records[k - 1].tau_k >= records[k].tau_k
            assert records[k - 1].s_k <= records[k].s_k
            checked_pairs += 1
    assert checked_pairs > 20

    # (c) a synthetic non-increasing loss sequence drives tau down, s up
    state = schedule.SchedulerState(tau0=30, s0=5.0, tau_ub=30, s_ub=9.0,
                                    loss_smoothing=0.3, F0=2.0)
    plans = [schedule.plan_next(state, f)
             for f in (2.0, 1.6, 1.6, 1.1, 0.7, 0.4, 0.2, 0.1)]
    taus = [p.tau_k for p in plans]
    ss = [p.s_k for p in plans]
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    assert all(a <= b for a, b in zip(ss, ss[1:]))
    _report(6, "cube-root schedule law (ratio 1e-12, run consistency, monotone shape)",
            True, f"{checked_pairs} monotone pairs verified on the live run")


def test_criterion_07_plan_optimality_and_curvature():
    rng = np.random.default_rng(107)
    worst_gap = -math.inf
    for _ in range(10):
        kwargs, tau, s, F = draw_smooth_regime(rng)
        p = schedule.BoundParams(**kwargs)
        plan = schedule.optimal_full(p, F, tau_ub=30, s_ub=9.0)
        plan_value = schedule.psi(plan.tau_k, plan.s_k, p, F)
        grid_best = min(
            schedule.psi(t, float(sv), p, F)
            for t in range(1, 31)
            for sv in np.arange(1.0, 9.0 + 1e-9, 0.1)
        )
        worst_gap = max(worst_gap, plan_value - grid_best)
        assert plan_value <= grid_best + 1e-9

    psd_failures = 0
    for _ in range(100):
        kwargs, tau, s, F = draw_smooth_regime(rng)
        psd, _ = schedule.hessian_check(tau, s, schedule.BoundParams(**kwargs), F)
        psd_failures += 0 if psd else 1
    assert psd_failures == 0
    _report(7, "exact plan beats the exhaustive grid; Hessian PSD in-regime",
            True, f"worst plan-minus-grid {worst_gap:.2e} <= 1e-9, 100/100 draws PSD")


def test_criterion_08_end_to_end_speed_ordering():
    seeds = (0, 1, 2)
    lines = []
    ok = True
    for seed in seeds:
        times = {}
        for scheme in ("ffl", "atomo_like", "adacomm_like"):
            started = time.perf_counter()
            _, summary = Experiment(_desk_cfg(scheme, seed)).run()
            wall = time.perf_counter() - started
            assert wall < 600.0, f"{scheme} seed {seed} took {wall:.0f}s wall"
            times[scheme] = summary["time_to_target_s"]
        ffl_t = times["ffl"]
        ok = ok and ffl_t != "inf" and all(
            times[other] == "inf" or ffl_t < times[other]
            for other in ("atomo_like", "adacomm_like")
        )
        fmt = {k: (v if v == "inf" else f"{v:.1f}s") for k, v in times.items()}
        speed = {
            k: ("n/a" if times[k] == "inf" or ffl_t == "inf"
                else f"{times[k] / ffl_t:.2f}x")
            for k in ("atomo_like", "adacomm_like")
        }
        lines.append(f"seed {seed}: ffl {fmt['ffl']} vs atomo {fmt['atomo_like']} "
                     f"({speed['atomo_like']}) vs adacomm {fmt['adacomm_like']} "
                     f"({speed['adacomm_like']})")
    _report(8, "adaptive scheme strictly fastest to 90% on 3 seeds",
            ok, "; ".join(lines))


def test_criterion_09_packet_failure_robustness():
    baseline = Experiment(_desk_cfg("ffl", 0, p_fail=0.0, budget=60.0)).run()[1]
    t0 = baseline["time_to_target_s"]
    assert t0 != "inf"
    results = {}
    for p, factor in ((0.1, 1.25), (0.4, 2.0)):
        summary = Experiment(_desk_cfg("ffl", 0, p_fail=p, budget=60.0)).run()[1]
        t = summary["time_to_target_s"]
        assert t != "inf", f"target never reached at failure prob {p}"
        assert t <= factor * t0, f"p={p}: {t:.2f}s exceeds {factor}x baseline {t0:.2f}s"
        results[p] = t / t0
    _report(9, "target reached within 1.25x / 2x time under 10% / 40% packet loss",
            True, f"ratios {results[0.1]:.2f}x and {results[0.4]:.2f}x vs baseline {t0:.1f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    payload = {
        "scheme": "ffl", "stop": "rounds", "round_cap": 8, "workers": 4,
        "synthetic_classes": 3, "synthetic_per_class": 60,
        "synthetic_test_per_class": 30, "synthetic_dim": 8,
        "hidden_layers": [8], "batch_size": 8, "tau0": 5, "s0": 5.0, "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    blobs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        blobs.append((out_dir / "metrics.csv").read_bytes())
    capsys.readouterr()
    identical = blobs[0] == blobs[1]
    _report(10, "re-running a config emits byte-identical metrics",
            identical, f"{len(blobs[0])} bytes compared")


# SHA-256 of metrics.csv for the desk task at seed 0, pinned so that a change
# to the simulator's arithmetic shows as a moved byte, not as a shifted figure.
# A plain scheme name runs the desk config as is; a suffixed name runs it with
# the overrides DESK_GOLDEN_VARIANTS gives, so the lowrank basis, a lossy
# channel, the tanh activation, two hidden layers and ten classes are pinned
# too.  Ten classes matter: numpy sums a class axis of 8 or more in pairwise
# lanes, so a loss that regroups that sum moves these bytes and not the
# 4-class ones.
DESK_GOLDEN_SHA256 = {
    "ffl": "5b4992256953867d039b33cebe8dd0aa5f411f0864ad52620a51b6b5030740e1",
    "atomo_like": "2f596bcd20e1027d0d51d4a6b34edeb4a4a59f9eac2889138cb93bd35b729914",
    "adacomm_like": "4797475fe2c8c84def0056e1272e875cae8fe5af76d1c875af6264b350155c17",
    "ffl-lowrank": "f322d5469fa1786d068e747c9525b5aee76a675cc5d1072e8c9f9be7eb68910b",
    "atomo_like-lowrank": "72fb7dc4c332441328ed6c5a7e5f7acf5f4028d87b3f0958bf50d89e7da97a9d",
    "ffl-p_fail_0.1": "588178edcb3d406b54416d1174e53cd70b8638306dd19fa9908deb2500f223a8",
    "ffl-tanh": "85a929667627720a237512c982a3c75d234e249700d31c9cdc92c47ebded01ec",
    "ffl-two_hidden": "b4bbc5a73ed249029843598953d139828bf80743bc8216bdfbe1ea4c582b8bf8",
    "ffl-classes10": "8606f6443d00a4de6d2d2f6413e4c434eaae5281ff18691b013e6b0a96ec0be1",
}
DESK_GOLDEN_VARIANTS = {
    "lowrank": {"basis": "lowrank"},
    "p_fail_0.1": {"packet_failure_prob": 0.1},
    "tanh": {"activation": "tanh"},
    "two_hidden": {"hidden_layers": [32, 16]},
    "classes10": {
        "synthetic_classes": 10, "synthetic_per_class": 400, "synthetic_test_per_class": 100,
    },
}


@pytest.mark.parametrize("name", sorted(DESK_GOLDEN_SHA256))
def test_desk_metrics_golden_sha256(name, tmp_path):
    scheme, _, variant = name.partition("-")
    cfg = dataclasses.replace(_desk_cfg(scheme, 0), **DESK_GOLDEN_VARIANTS.get(variant, {}))
    records, _ = Experiment(cfg).run()
    path = tmp_path / "metrics.csv"
    federation.write_metrics_csv(records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_GOLDEN_SHA256[name]
