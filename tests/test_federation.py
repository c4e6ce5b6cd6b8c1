import csv
import dataclasses
import hashlib
import json
import math
import re
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from fflsim import compress, data, federation, netsim, nn
from fflsim import rng as rng_module
from fflsim.config import SCHEMES, ExperimentConfig, load_config
from fflsim.data import Dataset, MiniBatch, sample_minibatch
from fflsim.errors import ConfigError
from fflsim.federation import Experiment, evaluate, policy_for
from fflsim.rng import substream

from oracles import serialize
from test_acceptance import DESK_GOLDEN_VARIANTS, _desk_cfg
from test_nn import kernel_cross_entropy


def base_cfg(**overrides):
    cfg = ExperimentConfig(
        seed=3,
        scheme="vanilla",
        stop="rounds",
        round_cap=10,
        workers=2,
        synthetic_classes=3,
        synthetic_per_class=60,
        synthetic_test_per_class=30,
        synthetic_dim=8,
        hidden_layers=[8],
        batch_size=8,
        eval_stride=1000,
        tau0=1,
        tau_ub=30,
        s0=5.0,
        s_ub=9.0,
    )
    return dataclasses.replace(cfg, **overrides)


def run_params_trajectory(cfg, rounds):
    exp = Experiment(cfg)
    out = []
    for _ in range(rounds):
        exp.run_round()
        out.append(exp.params.flatten())
    return exp, out


# ---- degenerate equivalences ---- #

def test_single_worker_tau_one_equals_centralized_sgd():
    cfg = base_cfg(workers=1, server_momentum=0.0, eta=0.01)
    exp = Experiment(cfg)
    ref_params = exp.params.copy()
    shard = exp.workers[0].shard
    rng = substream(cfg.seed, "worker", 0)
    for _ in range(50):
        exp.run_round()
        mb = sample_minibatch(shard, exp.train_set, cfg.batch_size, rng)
        _, grad = nn.loss_and_grad(ref_params, mb)
        ref_params, _ = nn.sgd_step(ref_params, grad, cfg.eta)
        diff = np.abs(exp.params.flatten() - ref_params.flatten()).max()
        assert diff <= 1e-12


def test_identical_shards_average_equals_centralized():
    cfg = base_cfg(workers=4, server_momentum=0.0, eta=0.01)
    exp = Experiment(cfg)
    full = np.arange(exp.train_set.n)
    exp.workers = [
        federation.WorkerState(full, substream(cfg.seed, "worker", 0), w.keep_rng)
        for w in exp.workers
    ]
    ref_params = exp.params.copy()
    rng = substream(cfg.seed, "worker", 0)
    for _ in range(30):
        record = exp.run_round()
        assert record.received_workers == 4
        mb = sample_minibatch(full, exp.train_set, cfg.batch_size, rng)
        _, grad = nn.loss_and_grad(ref_params, mb)
        ref_params, _ = nn.sgd_step(ref_params, grad, cfg.eta)
        diff = np.abs(exp.params.flatten() - ref_params.flatten()).max()
        assert diff <= 1e-9


def test_lossless_compression_matches_uncompressed():
    # budget >= model dimension means every atom ships with p = 1
    probe = Experiment(base_cfg())
    d = float(probe.params.dim)
    cfg_plain = base_cfg(scheme="vanilla", tau0=1)
    cfg_lossless = base_cfg(scheme="fixed", tau0=1, s0=d, s_ub=d)
    _, plain = run_params_trajectory(cfg_plain, 12)
    exp_c, compressed = run_params_trajectory(cfg_lossless, 12)
    for a, b in zip(plain, compressed):
        assert np.array_equal(a, b)
    assert all(r.atoms_sent_total > 0 for r in exp_c.records)


# ---- scheme embeddings ---- #

def test_atomo_like_is_fixed_with_tau_one():
    cfg_a = base_cfg(scheme="atomo_like", tau0=7)  # tau0 is ignored: tau pinned to 1
    cfg_b = base_cfg(scheme="fixed", tau0=1)
    _, traj_a = run_params_trajectory(cfg_a, 8)
    _, traj_b = run_params_trajectory(cfg_b, 8)
    for a, b in zip(traj_a, traj_b):
        assert np.array_equal(a, b)


def test_adacomm_like_is_ffl_without_compression():
    cfg_ada = base_cfg(scheme="adacomm_like", tau0=5)
    exp_ada = Experiment(cfg_ada)
    cfg_ffl = base_cfg(scheme="ffl", tau0=5)
    exp_ffl = Experiment(cfg_ffl)
    exp_ffl.policy = policy_for("adacomm_like", cfg_ffl.tau0, cfg_ffl.s0)
    for _ in range(8):
        ra = exp_ada.run_round()
        rf = exp_ffl.run_round()
        assert (ra.tau_k, ra.s_k) == (rf.tau_k, rf.s_k)
        assert np.array_equal(exp_ada.params.flatten(), exp_ffl.params.flatten())


def test_policy_for_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        policy_for("fedavg", 1, 5.0)


def test_scheme_knobs():
    # three knobs per scheme: compression, and a pin for tau and for s
    assert [f.name for f in dataclasses.fields(federation.SchemePolicy)] == [
        "compress", "tau_pin", "s_pin"]
    presets = {scheme: policy_for(scheme, 30, 5.0) for scheme in SCHEMES}
    assert presets == {
        "ffl": federation.SchemePolicy(True, None, None),
        "adacomm_like": federation.SchemePolicy(False, None, 5.0),
        "atomo_like": federation.SchemePolicy(True, 1, 5.0),
        "fixed": federation.SchemePolicy(True, 30, 5.0),
        "vanilla": federation.SchemePolicy(False, 1, 5.0),
    }


def test_pins_are_cast_so_an_integer_budget_prints_as_a_float(tmp_path):
    cfg = base_cfg(scheme="fixed", tau0=2, s0=5, round_cap=2, output_dir=str(tmp_path))
    federation.run_experiment(cfg)
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(row["tau_k"], row["s_k"]) for row in rows] == [("2", "5.0")] * 2


# ---- payload accounting ---- #

def spy_on_probabilities(monkeypatch):
    """Record, for each compress.probabilities call (one a round, for all
    workers), the expected atom count sum(p) and its variance sum(p (1 - p))."""
    sums = []
    real = compress.probabilities

    def probabilities(*args, **kwargs):
        probs = real(*args, **kwargs)
        p = probs.probs
        sums.append((float(p.sum()), float((p * (1.0 - p)).sum())))
        return probs

    monkeypatch.setattr(compress, "probabilities", probabilities)
    return sums


def test_transmitted_atoms_track_expected_count(monkeypatch):
    cfg = base_cfg(scheme="fixed", tau0=1, s0=5.0, workers=4, round_cap=40)
    sums = spy_on_probabilities(monkeypatch)
    exp = Experiment(cfg)
    for _ in range(40):
        exp.run_round()
    assert len(sums) == 40
    observed = sum(r.atoms_sent_total for r in exp.records)
    expected = sum(mean for mean, _ in sums)
    var = sum(v for _, v in sums)
    assert abs(observed - expected) <= 3.0 * math.sqrt(var) + 1e-9


def test_expected_atoms_close_to_budget_times_workers(monkeypatch):
    cfg = base_cfg(scheme="fixed", tau0=1, s0=5.0, workers=3)
    sums = spy_on_probabilities(monkeypatch)
    Experiment(cfg).run_round()
    # sum of probabilities per worker is min(s, B); here B >> s
    assert sums[0][0] == pytest.approx(3 * 5.0, rel=1e-9)


# ---- training sanity ---- #

def test_vanilla_training_reduces_smoothed_loss():
    cfg = base_cfg(scheme="vanilla", round_cap=40, workers=2, eta=0.01)
    exp = Experiment(cfg)
    records, summary = exp.run()
    assert summary["rounds"] == 40
    assert records[-1].smoothed_loss < records[0].train_loss


def test_ffl_schedule_moves_with_loss():
    cfg = base_cfg(scheme="ffl", tau0=20, s0=5.0, round_cap=30, eta=0.05)
    exp = Experiment(cfg)
    records, _ = exp.run()
    taus = [r.tau_k for r in records]
    ss = [r.s_k for r in records]
    assert all(1 <= t <= cfg.tau_ub for t in taus)
    assert all(1.0 <= s <= cfg.s_ub for s in ss)
    # loss drops on this task, so tau should come down from its anchor
    assert taus[-1] < taus[0]
    assert ss[-1] > ss[0]


# ---- packet failure ---- #

def test_all_packets_lost_skips_updates():
    cfg = base_cfg(packet_failure_prob=1.0, round_cap=5)
    exp = Experiment(cfg)
    w0 = exp.params.flatten()
    records, summary = exp.run()
    assert summary["skipped_rounds"] == 5
    assert all(r.received_workers == 0 for r in records)
    assert all(math.isnan(r.train_loss) for r in records)
    assert np.array_equal(exp.params.flatten(), w0)
    assert summary["time_to_target_s"] == "inf"
    # the clock still advances
    assert records[-1].sim_time_s > records[0].sim_time_s > 0


def test_partial_packet_loss_still_updates():
    cfg = base_cfg(packet_failure_prob=0.5, workers=4, round_cap=12, seed=1)
    exp = Experiment(cfg)
    records, summary = exp.run()
    received = [r.received_workers for r in records]
    assert max(received) >= 1
    assert summary["skipped_rounds"] == sum(1 for c in received if c == 0)


def worker_payloads(exp, g_rows_per_round, basis):
    """Every worker's payload of every round, compressed on its own through
    the one-gradient API from the gradient row the round computed for it,
    with the masks drawn on in round order from a fresh copy of the worker's
    keep-mask stream."""
    keep_rngs = [substream(exp.cfg.seed, "compress", j) for j in range(exp.cfg.workers)]
    out = []
    for record, g_rows in zip(exp.records, g_rows_per_round):
        for g_row, rng in zip(g_rows, keep_rngs):
            decomp = compress.decompose_bundle(exp.params.from_flat(g_row), basis, record.s_k)
            probs = compress.probabilities(decomp, record.s_k)
            out.append(compress.sample(decomp, probs, [rng]))
    return out


@pytest.mark.parametrize("scheme,basis", [
    ("ffl", "elementwise"), ("ffl", "lowrank"), ("adacomm_like", "elementwise"),
])
def test_server_mean_equals_the_worker_order_loop(monkeypatch, scheme, basis):
    # every worker's gradient row and every survival draw are recorded; each
    # payload is rebuilt on its own, and the server's update direction is
    # compared with the mean taken by a loop over the surviving payloads in
    # worker order
    cfg = base_cfg(scheme=scheme, basis=basis, workers=3, packet_failure_prob=0.5, round_cap=30)
    grads, survived, directions = [], [], []
    real_run, real_survives, real_step = nn.local_update_run, netsim.packets_survive, nn.sgd_step

    def local_update_run(*args, **kwargs):
        out = real_run(*args, **kwargs)
        grads.append(out[0].copy())
        return out

    def packets_survive(*args, **kwargs):
        out = real_survives(*args, **kwargs)
        survived.extend(out.tolist())
        return out

    def sgd_step(params, grad, *args, **kwargs):
        directions.append(grad.flat.copy())
        return real_step(params, grad, *args, **kwargs)

    monkeypatch.setattr(nn, "local_update_run", local_update_run)
    monkeypatch.setattr(netsim, "packets_survive", packets_survive)
    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    exp = Experiment(cfg)
    records, _ = exp.run()
    if scheme == "adacomm_like":
        payloads = [row for g_rows in grads for row in g_rows]
    else:
        payloads = [compress.reconstruct(cg)[0] for cg in worker_payloads(exp, grads, basis)]

    expected = []
    for k, record in enumerate(records):
        kept = [p for p, ok in zip(payloads[3 * k : 3 * k + 3], survived[3 * k : 3 * k + 3]) if ok]
        assert record.received_workers == len(kept)
        if kept:
            mean = kept[0].copy()
            for other in kept[1:]:
                mean += other
            mean /= len(kept)
            expected.append(mean)
    assert len(payloads) == len(survived) == 3 * len(records)
    counts = [r.received_workers for r in records]
    assert 0 in counts and 1 in counts
    assert len(directions) == len(expected)
    for got, want in zip(directions, expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme,basis", [
    ("ffl", "elementwise"), ("ffl", "lowrank"), ("adacomm_like", "elementwise"),
])
def test_uplink_charges_the_bits_each_payload_serialises_to(monkeypatch, scheme, basis):
    # each payload is rebuilt on its own from the worker's recorded gradient row
    rates = [1e4, 2e4, 5e4]
    cfg = base_cfg(scheme=scheme, basis=basis, workers=3, round_cap=6, uplink_rate_bps=rates)
    grads = []
    real_run = nn.local_update_run

    def local_update_run(*args, **kwargs):
        out = real_run(*args, **kwargs)
        grads.append(out[0].copy())
        return out

    monkeypatch.setattr(nn, "local_update_run", local_update_run)
    exp = Experiment(cfg)
    records, _ = exp.run()
    if scheme == "adacomm_like":
        sent_bits = [64 * exp.params.dim] * (3 * len(records))  # dense float64 uploads
    else:
        sent_bits = [8 * len(serialize(cg)) for cg in worker_payloads(exp, grads, basis)]
    assert len(sent_bits) == 3 * len(records)
    for k, record in enumerate(records):
        bits = sent_bits[3 * k : 3 * k + 3]
        assert record.uplink_max_s == max(b / rate for b, rate in zip(bits, rates))


@pytest.mark.parametrize("p_fail", [0.0, 0.5])
def test_no_round_builds_a_stream(monkeypatch, p_fail):
    # every stream is built by Experiment.__init__; rounds only draw on them
    cfg = base_cfg(scheme="atomo_like", workers=3, packet_failure_prob=p_fail)
    exp = Experiment(cfg)
    built = []

    def spy(seed, *path):
        built.append(path)
        return substream(seed, *path)

    for module in (rng_module, federation, netsim):
        monkeypatch.setattr(module, "substream", spy, raising=False)
    exp.run_round()
    exp.run_round()
    assert built == []
    assert all(r.atoms_sent_total > 0 for r in exp.records)


def test_no_round_derives_a_link_rate(monkeypatch):
    # the rates are fixed input: Experiment.__init__ builds the (M,) array
    # once, and every round charges its uploads against that array
    callers = []
    real_rates = netsim.uplink_rates

    def spy(cfg):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, type(frame.f_locals.get("self")).__name__))
        return real_rates(cfg)

    monkeypatch.setattr(netsim, "uplink_rates", spy)
    exp = Experiment(base_cfg(scheme="ffl", workers=3, uplink_rate_bps=[1e6, 2e6, 3e6]))
    assert callers == [("__init__", "Experiment")]
    assert exp.uplink_bps.tolist() == [1e6, 2e6, 3e6]
    for _ in range(3):
        exp.run_round()
    assert callers == [("__init__", "Experiment")]


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("cfg", [
    load_config(str(SCENARIOS / "desk.json")),
    load_config(str(SCENARIOS / "uplink_bound.json")),
    base_cfg(scheme="ffl", basis="lowrank", workers=3),
    base_cfg(scheme="adacomm_like", workers=3),  # dense uploads
    base_cfg(scheme="ffl", workers=3, packet_failure_prob=0.5),
    base_cfg(scheme="ffl", workers=4, uplink_rate_bps=[1e4, 2e4, 5e4, 1e5]),
], ids=["desk", "uplink_bound", "lowrank", "adacomm_like", "packet_failure_half",
        "unequal_links"])
def test_every_round_is_priced_by_one_round_cost_call(monkeypatch, cfg):
    # the clock's one cost model: a record's four cost columns are the
    # fields of the round's one netsim.round_cost result, bit for bit
    costs = []
    real = netsim.round_cost

    def spy(*args):
        costs.append(real(*args))
        return costs[-1]

    monkeypatch.setattr(netsim, "round_cost", spy)
    exp = Experiment(cfg)
    for k in range(4):
        record = exp.run_round()
        assert len(costs) == k + 1
        got = (record.compute_max_s, record.uplink_max_s, record.downlink_s, record.round_time_s)
        assert all(type(value) is float for value in got)
        assert np.array(got).tobytes() == np.array(costs[-1]).tobytes()
    if cfg.packet_failure_prob == 0.5:
        assert {r.received_workers for r in exp.records} != {cfg.workers}


@pytest.mark.parametrize("basis", compress.BASIS_KINDS)
def test_zero_gradient_rows_are_counted_as_empty_payloads(monkeypatch, basis):
    real_run = nn.local_update_run

    def local_update_run(*args, **kwargs):
        g_rows, losses = real_run(*args, **kwargs)
        g_rows[[0, 2]] = 0.0
        return g_rows, losses

    monkeypatch.setattr(nn, "local_update_run", local_update_run)
    exp = Experiment(base_cfg(scheme="ffl", basis=basis, workers=3))
    for _ in range(2):
        record = exp.run_round()
        assert record.empty_payloads == 2
        assert record.received_workers == 3 and record.atoms_sent_total > 0
    assert exp.summary()["empty_payloads"] == 4


# ---- evaluate ---- #

def test_evaluate_separable_oracle_weights():
    features = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    labels = np.array([0] * 5 + [1] * 5)
    ds = Dataset(features, labels, 2)
    params = nn.ParameterSet([np.eye(2) * 4.0], [np.zeros(2)])
    loss, acc = evaluate(params, ds)
    assert acc == 1.0
    assert loss < 0.05


def test_evaluate_random_weights_chance_accuracy():
    rng = np.random.default_rng(0)
    n, C = 3000, 4
    ds = Dataset(rng.random((n, 6)), rng.integers(0, C, n), C)
    params = nn.init_params(nn.MlpSpec((6, 8, C)), substream(0, "init"))
    _, acc = evaluate(params, ds)
    stderr = math.sqrt(0.25 * 0.75 / n)
    assert abs(acc - 0.25) <= 3 * stderr


def test_evaluate_loss_matches_training_loss_path():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.random((64, 5)), rng.integers(0, 3, 64), 3)
    params = nn.init_params(nn.MlpSpec((5, 4, 3)), substream(1, "init"))
    loss, _ = evaluate(params, ds)
    ref, _ = nn.loss_and_grad(params, MiniBatch(ds.features, ds.labels))
    assert loss == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [1, 7, 512, 600])
@pytest.mark.parametrize("classes", [2, 4, 7, 8, 10])
def test_evaluate_loss_is_softmax_cross_entropys_bitwise(classes, n):
    # one forward pass over the whole set, then its loss has the bits of
    # nn.cross_entropy over those logits, which are the training kernel
    # _cross_entropy's, and its accuracy is the argmax count over n
    rng = np.random.default_rng(classes * 100 + n)
    ds = Dataset(3.0 * rng.standard_normal((n, 5)), rng.integers(0, classes, n), classes)
    params = nn.init_params(nn.MlpSpec((5, 6, classes)), substream(classes, "init"))
    logits = nn.forward_rows(params, ds.rows)
    want = nn.cross_entropy(logits, ds.labels)
    assert want.tobytes() == kernel_cross_entropy(logits, ds.labels)[0].tobytes()
    loss, acc = evaluate(params, ds)
    assert np.float64(loss).tobytes() == want.tobytes()
    assert acc == np.count_nonzero(logits.argmax(axis=1) == ds.labels) / n


def test_evaluate_gives_a_perfectly_classified_set_the_loss_plus_zero():
    # a margin of 200 puts every picked log-probability at exactly 0.0, whose
    # negated mean is -0.0
    ds = Dataset(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 4), np.array([0] * 3 + [1] * 4), 2)
    params = nn.ParameterSet([np.array([[100.0, -100.0], [-100.0, 100.0]])], [np.zeros(2)])
    loss, acc = evaluate(params, ds)
    assert acc == 1.0
    assert loss == 0.0 and not np.signbit(loss)


# ---- run loop and outputs ---- #

def test_time_budget_checked_after_round():
    cfg = base_cfg(stop="time", T_budget_s=1e-6)
    exp = Experiment(cfg)
    records, _ = exp.run()
    assert len(records) == 1  # one round always executes


def test_round_cap_honored():
    cfg = base_cfg(stop="rounds", round_cap=7)
    records, summary = Experiment(cfg).run()
    assert len(records) == 7
    assert summary["rounds"] == 7


def test_summary_time_to_target():
    cfg = base_cfg(round_cap=25, workers=2, eta=0.05, target_accuracy=0.5,
                   eval_stride=1, loss_smoothing=0.0)
    records, summary = Experiment(cfg).run()
    t = summary["time_to_target_s"]
    if t == "inf":
        assert all(r.smoothed_acc < 0.5 for r in records)
    else:
        hit = next(r for r in records if r.smoothed_acc >= 0.5)
        assert t == hit.sim_time_s


def test_metrics_csv_byte_identical_across_runs(tmp_path):
    cfg = base_cfg(scheme="ffl", round_cap=6)
    blobs = []
    for name in ("a.csv", "b.csv"):
        records, _ = Experiment(cfg).run()
        path = tmp_path / name
        federation.write_metrics_csv(records, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_metrics_csv_schema(tmp_path):
    cfg = base_cfg(round_cap=2)
    records, _ = Experiment(cfg).run()
    path = tmp_path / "metrics.csv"
    federation.write_metrics_csv(records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("round,sim_time_s,tau_k,s_k,train_loss,smoothed_loss,test_acc,"
                       "received_workers,atoms_sent_total,round_time_s,uplink_max_s,"
                       "downlink_s,compute_max_s")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


def test_readme_lists_the_metrics_csv_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### metrics.csv columns", 1)[1].split("`")[1]
    assert tuple(column.strip() for column in block.split(",")) == federation.CSV_COLUMNS


def test_readme_lists_the_stream_labels_a_run_derives(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("fans out into named substreams", 1)[1].split(".", 1)[0]
    listed = re.findall(r"`([^`]+)`", sentence)
    derived = []

    def spy(seed, *path):
        derived.append(path[0])
        return substream(seed, *path)

    monkeypatch.setattr(federation, "substream", spy)
    Experiment(base_cfg(scheme="ffl", packet_failure_prob=0.5))
    assert len(listed) == len(set(listed)) and set(listed) == set(derived)


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = base_cfg(round_cap=3, output_dir=str(tmp_path / "out"))
    records, summary = federation.run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    import json
    loaded = json.loads((out / "summary.json").read_text())
    assert loaded["rounds"] == 3
    assert loaded["scheme"] == "vanilla"
    assert loaded["config"]["seed"] == cfg.seed


def test_summary_best_accuracy_and_time_totals_match_metrics_csv(tmp_path):
    cfg = base_cfg(scheme="ffl", seed=0, round_cap=12, eval_stride=1, packet_failure_prob=0.3,
                   output_dir=str(tmp_path))
    federation.run_experiment(cfg)
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads((tmp_path / "summary.json").read_text())

    def column(name):
        return [float(row[name]) for row in rows]

    assert summary["best_acc"] == max(column("test_acc"))
    assert summary["best_acc"] > summary["final_acc"]  # accuracy dips after its peak here
    assert summary["total_compute_s"] == sum(column("compute_max_s"))
    assert summary["total_uplink_s"] == sum(column("uplink_max_s"))
    assert summary["total_downlink_s"] == sum(column("downlink_s"))
    assert summary["total_uplink_s"] > 0.0


def test_summary_json_is_strict_when_the_last_round_is_lost(tmp_path):
    cfg = base_cfg(workers=2, packet_failure_prob=0.5, round_cap=3, seed=0,
                   output_dir=str(tmp_path))
    records, summary = federation.run_experiment(cfg)
    assert [r.received_workers for r in records] == [1, 2, 0]
    assert math.isnan(summary["final_train_loss"])

    def reject(constant):
        raise ValueError(f"summary.json holds the non-JSON constant {constant}")

    import json
    loaded = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert loaded["final_train_loss"] is None
    assert loaded["final_smoothed_loss"] == summary["final_smoothed_loss"]
    assert loaded["rounds"] == 3


def diverge_on_round(monkeypatch, bad_round, module=nn, name="local_update_run"):
    """Make `module.name`, called once a round, raise as the non-finite
    checks do, from round `bad_round` on."""
    calls = []
    real = getattr(module, name)

    def diverging(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) > bad_round:
            raise FloatingPointError("non-finite values in gradient")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, diverging)


def load_strict(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds the non-JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_a_diverging_run_writes_the_rounds_so_far_and_its_status(tmp_path, monkeypatch):
    cfg = base_cfg(scheme="ffl", round_cap=6, output_dir=str(tmp_path))
    finished = federation.run_experiment(dataclasses.replace(cfg, round_cap=3, output_dir=""))
    diverge_on_round(monkeypatch, 3)
    _, returned = federation.run_experiment(cfg)
    assert returned["status"] == "diverged"
    assert returned["error"] == "non-finite values in gradient"
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["round"] for row in rows] == ["0", "1", "2"]
    summary = load_strict(tmp_path / "summary.json")
    assert summary["status"] == "diverged"
    assert summary["error"] == "non-finite values in gradient"
    assert summary["rounds"] == 3
    # the rounds that completed are the first three rounds of a finished run
    assert summary["final_acc"] == finished[1]["final_acc"]
    assert summary["total_sim_time_s"] == finished[1]["total_sim_time_s"]
    assert finished[1]["status"] == "ok"


def test_a_run_that_diverges_in_its_first_round_writes_an_empty_table(tmp_path, monkeypatch):
    cfg = base_cfg(round_cap=4, output_dir=str(tmp_path))
    diverge_on_round(monkeypatch, 0)
    records, returned = federation.run_experiment(cfg)
    assert records == [] and returned["status"] == "diverged"
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines == [",".join(federation.CSV_COLUMNS)]
    summary = load_strict(tmp_path / "summary.json")
    assert summary["status"] == "diverged" and summary["rounds"] == 0
    assert summary["final_acc"] is None and summary["best_acc"] is None
    assert summary["total_sim_time_s"] == 0.0 and summary["time_to_target_s"] == "inf"


@pytest.mark.parametrize("scheme,stage", [("fixed", "local_update_run"), ("vanilla", "evaluate")])
def test_a_run_that_diverges_in_its_first_round_reports_no_simulated_time(scheme, stage):
    # a worker's first local step at eta 1e200 leaves weights near 1e200: with
    # tau 3 its next step overflows the logits inside local SGD; with tau 1
    # the server's step does the same, and the evaluation after it overflows
    cfg = base_cfg(scheme=scheme, tau0=3, eta=1e200, server_momentum=0.0)
    experiment = Experiment(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        records, summary = experiment.run()
    assert stage in [frame.name for frame in traceback.extract_tb(experiment.error.__traceback__)]
    assert records == [] and summary["status"] == "diverged"
    assert summary["rounds"] == 0 and summary["total_sim_time_s"] == 0.0


def test_a_run_that_diverges_in_evaluate_reports_the_clock_of_its_last_row(tmp_path, monkeypatch):
    # round 3 raises in its evaluation, after its model step and its round time
    diverge_on_round(monkeypatch, 3, federation, "evaluate")
    cfg = base_cfg(scheme="ffl", eval_stride=1, output_dir=str(tmp_path))
    _, returned = federation.run_experiment(cfg)
    assert returned["status"] == "diverged" and returned["rounds"] == 3
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["round"] for row in rows] == ["0", "1", "2"]
    summary = load_strict(tmp_path / "summary.json")
    assert summary["total_sim_time_s"] == float(rows[-1]["sim_time_s"])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_run_whose_training_loss_overflows_ends_diverged_with_its_artifacts(tmp_path):
    # at eta 1e155 round 1's logits and gradients stay finite, but a batch's
    # summed loss overflows to inf; the summed loss of a 3-row test set does not
    cfg = base_cfg(eta=1e155, synthetic_test_per_class=1, output_dir=str(tmp_path))
    _, returned = federation.run_experiment(cfg)
    assert returned["status"] == "diverged"
    assert returned["error"] == "non-finite values in loss"
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["round"] for row in rows] == ["0"]
    summary = load_strict(tmp_path / "summary.json")
    assert summary["status"] == "diverged"
    assert summary["error"] == "non-finite values in loss"
    assert summary["rounds"] == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_run_whose_test_loss_overflows_ends_diverged_at_round_0():
    # round 0's step leaves finite logits, but the 90-row test set's summed loss overflows
    records, summary = Experiment(base_cfg(eta=1e155)).run()
    assert records == []
    assert summary["status"] == "diverged" and summary["rounds"] == 0
    assert summary["error"] == "non-finite values in test loss"
    assert math.isnan(summary["final_test_loss"])  # no round completed


def zero_loss_cfg(scheme, output_dir):
    """Two classes of identical points (spread 0) and a large step: the
    training loss reaches exactly 0.0 within a few rounds."""
    return ExperimentConfig(
        seed=0, scheme=scheme, workers=4, synthetic_classes=2, synthetic_per_class=200,
        synthetic_test_per_class=50, synthetic_dim=4, synthetic_spread=0.0, hidden_layers=[8],
        eta=1.0, batch_size=8, tau0=5, tau_ub=5, stop="rounds", round_cap=300,
        output_dir=output_dir,
    )


@pytest.mark.parametrize("scheme,rounds", [("ffl", 8), ("vanilla", 19)])
def test_a_run_stops_with_its_artifacts_when_the_training_loss_is_zero(tmp_path, scheme, rounds):
    records, summary = federation.run_experiment(zero_loss_cfg(scheme, str(tmp_path)))
    assert len(records) == rounds
    assert records[-1].train_loss == 0.0
    assert all(r.train_loss > 0.0 for r in records[:-1])
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["round"] for row in rows] == [str(k) for k in range(rounds)]
    assert float(rows[-1]["train_loss"]) == 0.0
    written = load_strict(tmp_path / "summary.json")
    assert summary["status"] == written["status"] == "zero_loss"
    assert written["rounds"] == rounds and written["final_train_loss"] == 0.0


@pytest.mark.parametrize("p_fail,status,skipped", [(1.0, "all_rounds_lost", 9), (0.1, "ok", 0)])
def test_a_run_that_loses_every_packet_ends_with_its_own_status(tmp_path, p_fail, status, skipped):
    # the desk config (p_fail 0.1 is one of its golden variants) fits 9
    # rounds in 5 simulated seconds
    cfg = dataclasses.replace(_desk_cfg("ffl", 0, p_fail=p_fail, budget=5.0),
                              output_dir=str(tmp_path))
    records, summary = federation.run_experiment(cfg)
    written = load_strict(tmp_path / "summary.json")
    assert summary["status"] == written["status"] == status
    assert written["rounds"] == len(records) == 9
    assert written["skipped_rounds"] == skipped
    assert (written["final_train_loss"] is None) == (skipped == 9)
    assert (written["max_train_loss_ratio"] is None) == (skipped == 9)


# SHA-256 of summary.json, pinned beside the metrics.csv goldens of
# test_acceptance.py so that every summary entry, the status and the clock
# included, is held to the bytes too.  The nine desk golden variants and the
# noniid scenario's deal run for 15 simulated seconds; four more runs end
# with each other status or evaluate only every third round.
SUMMARY_SHA256 = {
    "adacomm_like": "76784268a2bfeb9119f86b2b0a8c36db22ac3c8d6f3d6184d34d284ec3fbf025",
    "atomo_like": "920307209e0e5b85320da7b4fc68614fbebf20812503b89b58c857630cc8e8e3",
    "atomo_like-lowrank": "f2d1a1709da0eef07c43e51f79d776046817379e5613dd0e87e4cdd820f79a1f",
    "ffl": "041299cd831a1bc73f11bda0918f20f271ff829d9226c804c10cb5132f677fed",
    "ffl-classes10": "a74a587b52755c2f836fe088543326375b4ece5fe72a28f2e38f1cf8b3a64aaf",
    "ffl-lowrank": "3ab7d8a2eccbb6958e0d210e6488755ae66bc78d7788f5c96826fe89734d075a",
    "ffl-noniid": "04a424a9af6708d22a11266af1475481152cdc3838348387b77e44adfddda346",
    "ffl-p_fail_0.1": "e181d8c622f953d0af4a854e9a0603b1f24cf6bf3db9ed0322492426982f3700",
    "ffl-tanh": "c52deeb7907b8f38a7441227c850a5dd63e50b0282da53da9585f8966c9b7f6f",
    "ffl-two_hidden": "0db2c656b0740a7ac8402047fa58fc071853ab88a54952ff16fa682f646da752",
    "ffl-p_fail_1.0": "7b503e1998387cbf4f36db751f06df81a86d883d0c1bc6bd7db85bfb2b62da2a",
    "ffl-zero_loss": "e8218e7a829626bc2e32f72687fa958781bbb189c6eff4fe6e2ac07f1c7a12da",
    "ffl-eval_stride_3": "588748fc42209dbdbfeaa28a8290b692d93919996b6520b8a066e2b91bafc2a7",
    "vanilla-diverged": "5f5526c0376363892445640ab0e18d127190c2c514f98e42a63d82ce342c081b",
}
# the metrics.csv of the diverged run: its header alone, as round 0's test loss overflowed
DIVERGED_METRICS_SHA256 = "24b5b192900270d0e2f468ea40c660b26929b5fde1f22012b52020c95f3ebc6a"


def summary_golden_cfg(name):
    if name == "ffl-p_fail_1.0":
        return _desk_cfg("ffl", 0, p_fail=1.0, budget=5.0)  # all_rounds_lost
    if name == "ffl-zero_loss":
        return zero_loss_cfg("ffl", "")
    if name == "ffl-eval_stride_3":
        return dataclasses.replace(_desk_cfg("ffl", 0, budget=15.0), eval_stride=3)
    if name == "ffl-noniid":  # scenarios/noniid.json's deal
        return dataclasses.replace(_desk_cfg("ffl", 0, budget=15.0), partition_mode="by_class",
                                   classes_per_worker=2)
    if name == "vanilla-diverged":
        return base_cfg(eta=1e155)  # the test loss overflows in round 0
    scheme, _, variant = name.partition("-")
    return dataclasses.replace(_desk_cfg(scheme, 0, budget=15.0),
                               **DESK_GOLDEN_VARIANTS.get(variant, {}))


OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


SUMMARY_GOLDENS = [pytest.param(name, marks=OVERFLOWS if name.endswith("diverged") else ())
                   for name in sorted(SUMMARY_SHA256)]


@pytest.mark.parametrize("name", SUMMARY_GOLDENS)
def test_summary_json_golden_sha256(name, tmp_path):
    # written here, not by run_experiment, so the config echo carries no tmp path
    _, summary = Experiment(summary_golden_cfg(name)).run()
    federation.write_summary_json(summary, str(tmp_path / "summary.json"))
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert digest == SUMMARY_SHA256[name]


@pytest.mark.parametrize("name", SUMMARY_GOLDENS)
def test_every_summary_key_keeps_one_json_type_across_statuses(name, tmp_path):
    # a run with no completed round once wrote the three sums as the integer 0
    _, summary = Experiment(summary_golden_cfg(name)).run()
    federation.write_summary_json(summary, str(tmp_path / "summary.json"))
    written = json.loads((tmp_path / "summary.json").read_text())
    floats = ("total_sim_time_s", "total_compute_s", "total_uplink_s", "total_downlink_s")
    ints = ("rounds", "skipped_rounds", "empty_payloads", "dropped_samples", "total_atoms_sent")
    assert {key: type(written[key]) for key in floats + ints} == {
        **dict.fromkeys(floats, float), **dict.fromkeys(ints, int)}


def test_summary_json_writes_a_top_level_nan_as_null_and_refuses_a_nested_one(tmp_path):
    # only the top level is mapped to null; the config echo is finite by
    # validation, and a non-finite value below it fails the write
    path = tmp_path / "summary.json"
    federation.write_summary_json({"final_train_loss": math.nan, "rounds": 0}, str(path))
    assert json.loads(path.read_text()) == {"final_train_loss": None, "rounds": 0}
    with pytest.raises(ValueError, match="not JSON compliant"):
        federation.write_summary_json({"config": {"eta": math.nan}}, str(path))


@OVERFLOWS
def test_a_diverged_runs_metrics_csv_golden_sha256(tmp_path):
    records, _ = Experiment(summary_golden_cfg("vanilla-diverged")).run()
    federation.write_metrics_csv(records, str(tmp_path / "metrics.csv"))
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == DIVERGED_METRICS_SHA256


# The outcome of the two lowrank desk goldens without the columns that carry
# the last bits of the losses: the SHA-256 of metrics.csv cut to its exact
# columns, and the final losses to 1e-12.  A change that only rounds the
# rank-1 sums differently moves the goldens of test_acceptance.py but not
# these pins.
LOWRANK_OUTCOME = {
    "ffl": ("549933ac9afbd02b10dd6a748759d5dee94b781d28dac28b4feffae74ac9a2b7",
            0.13835822640732773, 0.17754819139149283),
    "atomo_like": ("c42f3aa989889757a521deb36c1a09dcb0c613fb5523bd606b5f6474e7e6737b",
                   0.5983109989487111, 0.5985401242300692),
}
ROUNDED_COLUMNS = ("train_loss", "smoothed_loss", "s_k")


@pytest.mark.parametrize("scheme", sorted(LOWRANK_OUTCOME))
def test_lowrank_desk_outcome_is_pinned_apart_from_rounding(scheme, tmp_path):
    cfg = dataclasses.replace(_desk_cfg(scheme, 0), basis="lowrank")
    records, summary = Experiment(cfg).run()
    path = tmp_path / "metrics.csv"
    federation.write_metrics_csv(records, str(path))
    table = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, column in enumerate(table[0]) if column not in ROUNDED_COLUMNS]
    exact = "".join(",".join(row[i] for i in keep) + "\n" for row in table)
    digest, train_loss, test_loss = LOWRANK_OUTCOME[scheme]
    assert len(keep) == len(federation.CSV_COLUMNS) - len(ROUNDED_COLUMNS)
    assert hashlib.sha256(exact.encode()).hexdigest() == digest
    assert summary["final_train_loss"] == pytest.approx(train_loss, rel=1e-12, abs=0.0)
    assert summary["final_test_loss"] == pytest.approx(test_loss, rel=1e-12, abs=0.0)


def test_a_by_class_run_gives_each_worker_one_class_and_runs_to_the_end():
    cfg = base_cfg(scheme="ffl", partition_mode="by_class", classes_per_worker=1, workers=4,
                   synthetic_classes=4, round_cap=2)
    exp = Experiment(cfg)
    want = data.partition(exp.train_set, "by_class", 4, substream(cfg.seed, "partition"), 1)
    classes = [set(exp.train_set.labels[w.shard].tolist()) for w in exp.workers]
    assert all(len(held) == 1 for held in classes)
    assert set().union(*classes) == {0, 1, 2, 3}
    assert len(exp.workers) == len(want) == 4
    for worker, shard in zip(exp.workers, want):
        assert np.array_equal(worker.shard, shard)
    records, summary = exp.run()
    assert len(records) == 2
    assert summary["status"] == "ok"


def test_a_by_class_run_counts_the_samples_its_deal_drops():
    # four workers, one class each, over three classes of 60: two workers
    # share a class, 30 samples each, so the other two keep 31 of their 60
    cfg = base_cfg(scheme="ffl", partition_mode="by_class", classes_per_worker=1, workers=4,
                   round_cap=1)
    exp = Experiment(cfg)
    _, summary = exp.run()
    assert sorted(len(w.shard) for w in exp.workers) == [30, 30, 31, 31]
    assert summary["dropped_samples"] == exp.train_set.n - sum(len(w.shard) for w in exp.workers)
    assert summary["dropped_samples"] == 3 * 60 - 122


def test_a_run_that_loses_only_some_rounds_is_ok():
    records, summary = Experiment(base_cfg(packet_failure_prob=0.5, workers=1)).run()
    assert 0 < summary["skipped_rounds"] < len(records)
    assert summary["status"] == "ok"
    # a lost round's NaN loss is left out of the ratio
    losses = [r.train_loss for r in records if r.received_workers]
    assert summary["max_train_loss_ratio"] == max(losses) / losses[0]


def test_a_run_whose_training_loss_grows_without_overflowing_reports_the_growth():
    # every loss stays finite, so the run is "ok", but the largest is over 1e5 times the first
    records, summary = Experiment(base_cfg(eta=1e4, round_cap=20)).run()
    losses = [r.train_loss for r in records]
    assert summary["status"] == "ok"
    assert summary["max_train_loss_ratio"] == max(losses) / losses[0] > 1e5


def test_sim_time_is_the_running_sum_of_round_times():
    cfg = base_cfg(scheme="ffl", round_cap=8, workers=3)
    records, summary = Experiment(cfg).run()
    clock = 0.0
    for r in records:
        clock += r.round_time_s
        assert r.sim_time_s == clock  # exact: one left-to-right float sum
    assert summary["total_sim_time_s"] == clock


@pytest.mark.parametrize("scheme", ["ffl", "adacomm_like"])
def test_summary_final_test_loss_is_the_last_evaluation(scheme):
    cfg = base_cfg(scheme=scheme, round_cap=5, eval_stride=1)
    experiment = Experiment(cfg)
    _, summary = experiment.run()
    loss, acc = evaluate(experiment.params, experiment.test_set)
    assert summary["final_test_loss"] == loss
    assert summary["final_acc"] == acc


def test_rounds_between_evaluations_carry_the_last_one_over(monkeypatch):
    cfg = base_cfg(scheme="ffl", tau0=10, eta=0.05, round_cap=11, eval_stride=3,
                   loss_smoothing=0.3)
    evaluations = []
    real = federation.evaluate

    def evaluate(*args, **kwargs):
        evaluations.append(real(*args, **kwargs))
        return evaluations[-1]

    monkeypatch.setattr(federation, "evaluate", evaluate)
    records, summary = Experiment(cfg).run()
    assert len(evaluations) == 4  # rounds 0, 3, 6 and 9
    assert len({acc for _, acc in evaluations}) > 1
    smoothed = None
    for record in records:
        if record.round % 3 == 0:
            loss, acc = evaluations[record.round // 3]
            # the EMA of the evaluated accuracies only
            smoothed = acc if smoothed is None else 0.3 * smoothed + 0.7 * acc
        assert (record.test_loss, record.test_acc, record.smoothed_acc) == (loss, acc, smoothed)
    assert records[-1].round == 10
    assert summary["final_test_loss"] == evaluations[-1][0]


def test_timing_fields_consistent():
    cfg = base_cfg(round_cap=4, workers=3)
    records, _ = Experiment(cfg).run()
    for r in records:
        assert r.round_time_s == pytest.approx(
            r.compute_max_s + r.uplink_max_s + r.downlink_s, rel=1e-12)
    sims = [r.sim_time_s for r in records]
    assert all(b > a for a, b in zip(sims, sims[1:]))
    assert sims[-1] == pytest.approx(sum(r.round_time_s for r in records), rel=1e-12)
