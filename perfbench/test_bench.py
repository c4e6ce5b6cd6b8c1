"""Tests of the benchmark harness itself (not of fflsim).

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import spans  # noqa: E402
from fflsim import nn, schedule, selftest  # noqa: E402


def _tree() -> spans.Spans:
    """root [0, 100) with children a [10, 40) and b [50, 90); a has child
    a1 [15, 25); b has children b1 [55, 65) and b2 [70, 80)."""
    s = spans.Spans()
    root = s.add("federation.run_round", -1, 0, 100)
    a = s.add("nn.local_update_run", root, 10, 40)
    s.add("nn.loss_and_grad", a, 15, 25)
    b = s.add("compress.decompose_bundle", root, 50, 90)
    s.add("compress.decompose_lowrank", b, 55, 65)
    s.add("compress.decompose_lowrank", b, 70, 80)
    return s


def test_self_time_subtracts_time_covered_by_children():
    assert spans.self_times(_tree()) == [30, 20, 10, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    s = spans.Spans()
    parent = s.add("compress.decompose_bundle", -1, 0, 40)
    s.add("compress.decompose_lowrank", parent, 5, 20)
    s.add("compress.decompose_lowrank", parent, 15, 30)
    s.add("compress.decompose_lowrank", parent, 35, 50)  # runs past the parent's end
    assert spans.self_times(s)[0] == 40 - 25 - 5


def test_summary_and_layer_split_add_up_to_the_root_span():
    stats = spans.summarize(_tree())
    assert stats["compress.decompose_lowrank"].calls == 2
    assert stats["compress.decompose_lowrank"].total_ns == 20
    assert stats["compress.decompose_lowrank"].self_ns == 20
    layers = spans.layer_self_ns(stats)
    assert layers == {**{layer: 0 for layer in spans.LAYERS},
                      "federation": 30, "nn": 30, "compress": 40}
    assert sum(layers.values()) == 100


def test_tracer_patches_callers_lookups_and_restores_them():
    original = nn.sample_minibatch
    tracer = spans.Tracer()
    with tracer.installed():
        assert nn.sample_minibatch is not original
        schedule.plan_next(schedule.SchedulerState(30, 5.0, 30, 9.0, 0.0, F0=2.0), 0.25)
    assert nn.sample_minibatch is original
    recorded = tracer.reset()
    assert recorded.names[0] == "schedule.plan_next"
    assert "schedule.conclusive_raw" in recorded.names
    assert all(p >= 0 for p in recorded.parents[1:])


def test_traced_run_gives_the_untraced_bytes(tmp_path):
    workload = dataclasses.replace(
        bench.WORKLOADS["atomo_lowrank"],
        config=dict(bench.WORKLOADS["atomo_lowrank"].config, round_cap=3),
        accuracy_floor=0.0,
    )
    plain = bench.run_once(workload, 1, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = bench.run_once(workload, 1, tmp_path)
    assert plain.error is None and traced.error is None
    assert traced.digest == plain.digest
    metrics = bench.layer_metrics(tracer.reset(), traced.seconds)
    assert metrics["nn.worker_steps"] == 3 * 8
    assert metrics["compress.decompose_bundle.us"] > 0


def test_a_wrong_oracle_minimum_counts_as_a_failed_run(monkeypatch, tmp_path):
    monkeypatch.setattr(selftest, "minimize_variance_numeric", lambda lam, s, iters: 0.0)
    workload = bench.WORKLOADS["selftest_oracle"]
    result = bench.measure_end_to_end(workload, 0, 0.01, checkout_root(tmp_path))
    assert result.attempted >= 1 and result.failed == result.attempted
    assert "exceeds the numeric minimum" in result.errors[0]


def test_an_accuracy_floor_miss_and_a_digest_mismatch_count_as_failures(tmp_path):
    workload = dataclasses.replace(
        bench.WORKLOADS["desk_ffl"],
        config=dict(bench.WORKLOADS["desk_ffl"].config, round_cap=2),
        accuracy_floor=1.01,
    )
    run = bench.run_once(workload, 0, tmp_path)
    assert run.error is not None and "floor" in run.error

    passing = [bench.Run(seconds=1.0, digest="a"), bench.Run(seconds=1.0, digest="b")]
    bench._check_identity(passing)
    assert passing[0].ok and not passing[1].ok


def checkout_root(tmp_path: Path) -> Path:
    """A checkout-shaped root: the real sources under src, outputs in tmp."""
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    return tmp_path
