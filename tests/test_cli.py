import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from fflsim import cli, federation
from fflsim.compress import BASIS_KINDS
from fflsim.config import DATASETS, SCHEMES, STOPS, ExperimentConfig, load_config
from fflsim.data import PARTITION_MODES
from fflsim.nn import ACTIVATIONS
from fflsim.errors import ConfigError

from test_acceptance import _desk_cfg
from test_data import write_idx_pair

MINIMAL = {
    "scheme": "vanilla",
    "stop": "rounds",
    "round_cap": 4,
    "workers": 2,
    "synthetic_classes": 3,
    "synthetic_per_class": 40,
    "synthetic_test_per_class": 20,
    "synthetic_dim": 6,
    "hidden_layers": [6],
    "batch_size": 8,
    "tau0": 1,
    "s0": 5.0,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_rounds(monkeypatch):
    def run_round(self):
        raise AssertionError("a round ran before the output directory was made")

    monkeypatch.setattr(federation.Experiment, "run_round", run_round)


# ---- run ---- #

def test_run_minimal_config_writes_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "results"
    code, out, _ = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    assert code == 0
    assert "scheme=vanilla" in out
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert len(metrics) >= 2  # header + >= 1 data row
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["rounds"] == 4
    assert summary["status"] == "ok"


def test_a_run_that_loses_every_packet_exits_0_with_its_status(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**MINIMAL, "packet_failure_prob": 1.0})
    out_dir = tmp_path / "results"
    code, out, _ = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    assert code == 0
    assert "status=all_rounds_lost rounds=4" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "all_rounds_lost"
    assert summary["skipped_rounds"] == 4 and summary["final_train_loss"] is None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_diverging_run_exits_1_and_still_writes_its_artifacts(tmp_path, capsys):
    # a step of 1e300 drives the weights past the float range in the first round
    cfg_path = write_config(tmp_path, {**MINIMAL, "eta": 1e300})
    out_dir = tmp_path / "results"
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    assert code == 1
    assert "non-finite values" in err
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["error"] in err
    assert summary["rounds"] == len(metrics) - 1 == 0


def test_a_diverging_run_prints_one_error_line_from_a_shell(tmp_path):
    # in a process of its own, so that no pytest warning filter hides what
    # numpy prints: stderr holds the error line alone
    cfg_path = write_config(tmp_path, {**MINIMAL, "eta": 1e300})
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "fflsim.cli", "run", "--config", cfg_path,
         "--out", str(tmp_path / "results")],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: non-finite values in logits"]
    assert "status=diverged" in done.stdout


def test_an_unexpected_exception_prints_its_traceback_and_exits_1(tmp_path, capsys,
                                                                  monkeypatch):
    def run_experiment(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    code, out, err = run_main(["run", "--config", write_config(tmp_path, MINIMAL)], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-2:] == ["RuntimeError: boom", "error: boom"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_run_whose_training_loss_overflows_exits_1_with_its_artifacts(tmp_path, capsys):
    # round 0's step leaves finite logits, but the summed test loss overflows
    cfg_path = write_config(tmp_path, {
        **MINIMAL, "seed": 3, "round_cap": 10, "synthetic_per_class": 60,
        "synthetic_test_per_class": 30, "synthetic_dim": 8, "hidden_layers": [8],
        "eta": 1e155,
    })
    out_dir = tmp_path / "results"
    code, out, err = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    assert code == 1
    # the summary line, then one error line and no traceback
    assert out.startswith("scheme=vanilla status=diverged rounds=0 ")
    assert err.splitlines() == ["error: non-finite values in test loss"]
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["rounds"] == len(metrics) - 1 == 0

def test_a_run_whose_training_loss_reaches_zero_exits_0_with_its_artifacts(tmp_path, capsys):
    # two classes of identical points and a large step: the loss reaches 0.0
    cfg_path = write_config(tmp_path, {
        "scheme": "ffl", "seed": 0, "workers": 4, "synthetic_classes": 2,
        "synthetic_per_class": 200, "synthetic_test_per_class": 50, "synthetic_dim": 4,
        "synthetic_spread": 0, "hidden_layers": [8], "eta": 1.0, "batch_size": 8,
        "tau0": 5, "tau_ub": 5, "stop": "rounds", "round_cap": 300,
    })
    out_dir = tmp_path / "results"
    code, out, _ = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    assert code == 0
    assert "status=zero_loss rounds=8" in out
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "zero_loss"
    assert summary["rounds"] == len(metrics) - 1 == 8
    assert summary["final_train_loss"] == 0.0


def test_run_rejects_negative_eta_with_key_in_message(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**MINIMAL, "eta": -1})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "eta" in err


# learning_rate was never a key; schedule, L, sigma1, sigma2, F_inf and probe_rounds
# belonged to the deleted `full` schedule; bits_per_atom to sec_per_atom_compress
# were channel keys that disagreed with the wire format or that nothing read;
# worker_momentum was a local-SGD knob that no run set; snr and bandwidth_hz
# were a second form of the uplink rate that no run used, so a summary echo
# that names them no longer loads
UNKNOWN_KEYS = {"learning_rate": 0.1, "schedule": "conclusive", "L": 0.5, "sigma1": 1.0,
                "sigma2": 1.0, "F_inf": 0.0, "probe_rounds": 2, "bits_per_atom": 96,
                "bits_per_weight": 64, "noise_watts": 1e-3, "sec_per_atom_compress": 0.0,
                "worker_momentum": 0.5, "snr": 1.0, "bandwidth_hz": 1e6}


@pytest.mark.parametrize("key", UNKNOWN_KEYS)
def test_run_rejects_unknown_key(tmp_path, capsys, key):
    cfg_path = write_config(tmp_path, {**MINIMAL, key: UNKNOWN_KEYS[key]})
    code, _, err = run_main(["run", "--config", cfg_path], capsys)
    assert code == 2
    assert repr(key) in err


def test_run_missing_config_file(tmp_path, capsys):
    code, _, err = run_main(["run", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "absent.json" in err


def test_run_rejects_a_config_directory(tmp_path, capsys):
    code, _, err = run_main(["run", "--config", str(tmp_path)], capsys)
    assert code == 2
    assert str(tmp_path) in err


def test_run_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_main(["run", "--config", str(path)], capsys)
    assert code == 2
    assert "utf16.json" in err


def test_run_rejects_a_key_given_twice(tmp_path, capsys):
    # json.load alone keeps the last value: this run would train at eta 0.5
    path = tmp_path / "twice.json"
    path.write_text('{"eta": 0.01, "eta": 0.5, "stop": "rounds", "round_cap": 1,'
                    ' "output_dir": ""}')
    code, _, err = run_main(["run", "--config", str(path)], capsys)
    assert code == 2
    assert "'eta'" in err


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_main(["run", "--config", str(path)], capsys)
    assert code == 2


def test_run_metrics_byte_identical(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    blobs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
        assert code == 0
        blobs.append((out_dir / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_seed_override_changes_metrics(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    outs = {}
    for seed in ("0", "1"):
        out_dir = tmp_path / f"s{seed}"
        code, _, _ = run_main(
            ["run", "--config", cfg_path, "--out", str(out_dir), "--seed", seed], capsys)
        assert code == 0
        outs[seed] = (out_dir / "metrics.csv").read_bytes()
    assert outs["0"] != outs["1"]


def test_run_scheme_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "o"
    code, out, _ = run_main(
        ["run", "--config", cfg_path, "--out", str(out_dir), "--scheme", "fixed"], capsys)
    assert code == 0
    assert "scheme=fixed" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["scheme"] == "fixed"


def test_summary_config_echo_reproduces_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_a = tmp_path / "a"
    run_main(["run", "--config", cfg_path, "--out", str(out_a)], capsys)
    echo = json.loads((out_a / "summary.json").read_text())["config"]
    echo_path = write_config(tmp_path, echo, name="echo.json")
    out_b = tmp_path / "b"
    code, _, _ = run_main(["run", "--config", echo_path, "--out", str(out_b)], capsys)
    assert code == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_csv_header_byte_exact(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "o"
    run_main(["run", "--config", cfg_path, "--out", str(out_dir)], capsys)
    header = (out_dir / "metrics.csv").read_bytes().split(b"\r\n")[0]
    assert header == (b"round,sim_time_s,tau_k,s_k,train_loss,smoothed_loss,test_acc,"
                      b"received_workers,atoms_sent_total,round_time_s,uplink_max_s,"
                      b"downlink_s,compute_max_s")


# ---- compare ---- #

def test_compare_requires_two_schemes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    code, _, err = run_main(["compare", "--config", cfg_path, "ffl"], capsys)
    assert code == 2


def test_compare_rejects_unknown_scheme(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    code, _, err = run_main(["compare", "--config", cfg_path, "ffl", "fancy"], capsys)
    assert code == 2
    assert "fancy" in err


def test_compare_rejects_a_repeated_scheme_before_any_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "cmp"
    code, out, err = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla", "ffl"], capsys)
    assert code == 2
    assert "'ffl'" in err
    assert out == "" and not out_dir.exists()


def test_compare_writes_per_scheme_and_joined_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "cmp"
    code, out, _ = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla"], capsys)
    assert code == 0
    for scheme in ("ffl", "vanilla"):
        assert (out_dir / f"metrics_{scheme}.csv").is_file()
        assert (out_dir / f"summary_{scheme}.json").is_file()
    lines = (out_dir / "compare.csv").read_text().splitlines()
    assert lines[0] == ("scheme,time_to_target_s,final_acc,final_test_loss,rounds,total_atoms,"
                        "speedup_vs_ffl,status")
    assert len(lines) == 3
    # the paper's objective, the test loss at the end of the run, per scheme
    for line, scheme in zip(lines[1:], ("ffl", "vanilla")):
        summary = json.loads((out_dir / f"summary_{scheme}.json").read_text())
        fields = line.split(",")
        assert fields[0] == scheme
        assert float(fields[3]) == summary["final_test_loss"]
    header, *table = out.splitlines()[-3:]
    assert header.split() == ["scheme", "time_to_target_s", "final_acc", "final_test_loss",
                              "rounds", "total_atoms", "status"]
    for row, line in zip(table, lines[1:]):
        assert row.split()[3] == f"{float(line.split(',')[3]):.4f}"


def test_compare_reports_each_scheme_status(tmp_path, capsys):
    # no packet ever arrives, so neither scheme's model moves
    cfg_path = write_config(tmp_path, {**MINIMAL, "packet_failure_prob": 1.0})
    out_dir = tmp_path / "cmp"
    code, out, _ = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla"], capsys)
    assert code == 0
    rows = (out_dir / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["all_rounds_lost"] * 2
    assert [line.split()[-1] for line in out.splitlines()[-2:]] == ["all_rounds_lost"] * 2
    for scheme in ("ffl", "vanilla"):
        summary = json.loads((out_dir / f"summary_{scheme}.json").read_text())
        assert summary["status"] == "all_rounds_lost"


def test_compare_unreached_target_reports_inf(tmp_path, capsys):
    # 4 tiny rounds never reach 90% accuracy
    cfg_path = write_config(tmp_path, {**MINIMAL, "target_accuracy": 0.99})
    out_dir = tmp_path / "cmp"
    code, _, _ = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla"], capsys)
    assert code == 0
    rows = (out_dir / "compare.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[1] == "inf"
    summaries = json.loads((out_dir / "summary_ffl.json").read_text())
    assert summaries["time_to_target_s"] == "inf"


@pytest.mark.parametrize("where", ["config", "--out"])
def test_compare_with_an_empty_output_dir_prints_its_table_and_writes_nothing(
        tmp_path, monkeypatch, capsys, where):
    cfg_path = write_config(tmp_path, {**MINIMAL, "output_dir": "" if where == "config" else "cmp"})
    out_args = ["--out", ""] if where == "--out" else []
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(["compare", "--config", cfg_path, *out_args, "ffl", "vanilla"],
                              capsys)
    assert code == 0, err
    assert [line.split()[0] for line in out.splitlines()[-3:]] == ["scheme", "ffl", "vanilla"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_compare_writes_the_artifacts_of_a_diverging_scheme_and_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**MINIMAL, "eta": 1e300})
    out_dir = tmp_path / "cmp"
    code, _, err = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla"], capsys)
    assert code == 1
    assert "non-finite values" in err
    metrics = (out_dir / "metrics_ffl.csv").read_text().splitlines()
    summary = json.loads((out_dir / "summary_ffl.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["error"] in err
    assert summary["rounds"] == len(metrics) - 1 == 0
    # every scheme runs, and each diverged one gets its row
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "compare.csv", "metrics_ffl.csv", "metrics_vanilla.csv", "summary_ffl.json",
        "summary_vanilla.json"]
    rows = (out_dir / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["diverged"] * 2


def test_compare_runs_every_scheme_after_one_that_diverges(tmp_path, monkeypatch, capsys):
    # vanilla diverges in its third round; ffl before it and fixed after it
    # run to the end, the table and compare.csv hold all three, and the exit
    # code is 1, as `run` gives a diverged run
    real_run_round = federation.Experiment.run_round

    def run_round(self):
        if self.cfg.scheme == "vanilla" and len(self.records) == 2:
            raise FloatingPointError("non-finite values in gradient")
        return real_run_round(self)

    monkeypatch.setattr(federation.Experiment, "run_round", run_round)
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "cmp"
    code, out, err = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla", "fixed"],
        capsys)
    assert code == 1
    assert err.strip().splitlines() == [
        "error: scheme vanilla diverged: non-finite values in gradient"]
    rows = [row.split(",") for row in (out_dir / "compare.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[4], row[-1]) for row in rows] == [
        ("ffl", "4", "ok"), ("vanilla", "2", "diverged"), ("fixed", "4", "ok")]
    assert [line.split()[-1] for line in out.splitlines()[-3:]] == ["ok", "diverged", "ok"]
    for scheme, rounds in (("ffl", 4), ("vanilla", 2), ("fixed", 4)):
        summary = json.loads((out_dir / f"summary_{scheme}.json").read_text())
        assert summary["rounds"] == rounds
        assert len((out_dir / f"metrics_{scheme}.csv").read_text().splitlines()) == rounds + 1


def test_compare_exits_2_before_any_run_when_the_output_path_is_under_a_file(
        tmp_path, monkeypatch, capsys):
    forbid_rounds(monkeypatch)
    cfg_path = write_config(tmp_path, MINIMAL)
    (tmp_path / "taken").write_text("a file")
    out_dir = tmp_path / "taken" / "cmp"
    code, out, err = run_main(
        ["compare", "--config", cfg_path, "--out", str(out_dir), "ffl", "vanilla"], capsys)
    assert code == 2 and out == ""
    assert err == (f"config error: output_dir={str(out_dir)!r} cannot be made a directory: "
                   "Not a directory\n")


def test_compare_shares_seed_across_schemes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "cmp"
    run_main(["compare", "--config", cfg_path, "--out", str(out_dir),
              "vanilla", "adacomm_like"], capsys)
    seeds = set()
    for scheme in ("vanilla", "adacomm_like"):
        summary = json.loads((out_dir / f"summary_{scheme}.json").read_text())
        seeds.add(summary["config"]["seed"])
    assert seeds == {0}  # every scheme ran under the shared default seed


# ---- selftest ---- #

def test_selftest_passes(capsys):
    code, out, _ = run_main(["selftest"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "PASS  compression unbiasedness: max |mean - g| = 1.91e-02",
        "PASS  compression variance law: worst relative variance gap = 0.004",
        "PASS  selection probability optimality: max relative gap to the Lagrange dual = 2.37e-16",
        "PASS  backprop gradient check: max relative gradient error = 6.01e-09",
        "PASS  cube-root schedule: identity, ratio law, and monotonicity hold",
    ]


def test_only_the_cli_names_np_errstate():
    # main alone silences numpy's float warnings, for a run's one error line;
    # library code that did so would hide a numeric fault from the tests'
    # error::RuntimeWarning filter
    src = Path(__file__).resolve().parents[1] / "src" / "fflsim"
    naming = {path.name for path in src.glob("*.py") if "errstate" in path.read_text("utf-8")}
    assert naming == {"cli.py"}


def test_no_module_logs():
    # a run is explained by its artifacts alone: a second channel, silent
    # at its default level, would hide what summary.json must show
    src = Path(__file__).resolve().parents[1] / "src" / "fflsim"
    logs = re.compile(r"^\s*(?:import|from)\s+logging\b|getLogger|FFL_LOG", re.MULTILINE)
    naming = {path.name for path in src.glob("*.py") if logs.search(path.read_text("utf-8"))}
    assert naming == set()
    path = os.pathsep.join(filter(None, [str(src.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import fflsim, sys; assert 'logging' not in sys.modules"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr


# ---- config loading ---- #

def test_load_config_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    cfg = load_config(cfg_path)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.scheme == "vanilla"
    assert cfg.workers == 2


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_validation_names_bad_keys():
    for field, value in [("workers", 0), ("batch_size", 0), ("tau0", 0),
                         ("s0", 0.5), ("server_momentum", 1.5), ("stop", "never"),
                         ("scheme", "unknown"), ("basis", "fourier")]:
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert field in str(err.value)


# one wrongly typed value per field: a float where an int belongs, a string
# or a bool where a number belongs, a non-list or a bad item where a list belongs
WRONG_TYPES = {
    "seed": 1.5, "scheme": 1, "output_dir": None, "tau0": 2.5, "tau_ub": "30", "s0": "5",
    "s_ub": True, "loss_smoothing": None, "eta": "0.01", "server_momentum": [0.9],
    "batch_size": 8.5, "hidden_layers": "32", "activation": None, "basis": 0, "workers": 2.5,
    "stop": False, "T_budget_s": "600", "round_cap": 2e4, "target_accuracy": None,
    "eval_stride": 1.0, "dataset": ["synthetic"], "synthetic_classes": 4.0,
    "synthetic_per_class": "1000", "synthetic_test_per_class": True, "synthetic_dim": 16.5,
    "synthetic_spread": "0.35", "mnist_dir": 1, "subset_n": 2000.0, "test_subset_n": None,
    "partition_mode": None, "classes_per_worker": 1.5, "uplink_rate_bps": [1e5, "2e5"],
    "downlink_rate_bps": True,
    "packet_failure_prob": None, "sec_per_local_step": "5e-3",
}


def test_every_field_has_a_wrongly_typed_case():
    assert set(WRONG_TYPES) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("key", WRONG_TYPES)
def test_a_wrongly_typed_value_is_a_config_error_naming_its_key(key):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{key: WRONG_TYPES[key]}).validate()
    assert str(err.value).startswith(f"{key} must be of type ")


@pytest.mark.parametrize("key, value", [
    ("workers", True), ("hidden_layers", [32, 16.0]), ("hidden_layers", [True]),
    ("uplink_rate_bps", [1e5, None]), ("uplink_rate_bps", (1e5, 1e5)),
])
def test_bools_and_list_items_are_type_checked(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be of type "):
        ExperimentConfig(**{"workers": 2, key: value}).validate()


def test_an_int_is_accepted_where_a_float_is_expected():
    ExperimentConfig(workers=2, eta=1, s0=5, s_ub=9, T_budget_s=60, uplink_rate_bps=[1, 3.0],
                     mnist_dir=None, classes_per_worker=None).validate()


@pytest.mark.parametrize("key, value", [("workers", 2.5), ("batch_size", 8.5),
                                        ("hidden_layers", "32"), ("eta", "0.01"),
                                        ("tau0", 2.5)])
def test_run_exits_2_on_a_wrongly_typed_value(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, {**MINIMAL, key: value})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"config error: {key} must be of type " in err
    assert not (tmp_path / "o").exists()


HINTS = typing.get_type_hints(ExperimentConfig, include_extras=True)
RULES = {name: typing.get_args(hint)[1] for name, hint in HINTS.items()
         if typing.get_origin(hint) is typing.Annotated}
FLOAT_FIELDS = [name for name, hint in typing.get_type_hints(ExperimentConfig).items()
                if hint is float or float in typing.get_args(hint)]

# one well-typed value outside its field's rule, for every field that declares one
OUT_OF_RANGE = {
    "seed": -1, "scheme": "fedavg", "tau0": 0, "tau_ub": 0, "s0": 0.5, "s_ub": 0.5,
    "loss_smoothing": 1.0, "eta": 0.0, "server_momentum": -0.1, "batch_size": 0,
    "hidden_layers": [32, 0], "activation": "sigmoid", "basis": "fourier", "workers": 0,
    "stop": "never", "T_budget_s": -1.0, "round_cap": 0, "target_accuracy": 0.0,
    "eval_stride": 0, "dataset": "cifar", "synthetic_classes": 1, "synthetic_per_class": 0,
    "synthetic_test_per_class": 0, "synthetic_dim": 0, "synthetic_spread": -0.1,
    "subset_n": 0, "test_subset_n": 0, "partition_mode": "striped", "classes_per_worker": 0,
    "uplink_rate_bps": 0.0, "downlink_rate_bps": -1e5, "packet_failure_prob": 1.5,
    "sec_per_local_step": 0.0,
}


def test_every_field_with_a_rule_has_an_out_of_range_case():
    assert set(OUT_OF_RANGE) == set(RULES)
    assert set(RULES) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {
        "output_dir", "mnist_dir"}
    assert len(FLOAT_FIELDS) == 12 and set(FLOAT_FIELDS) <= set(RULES)


def assert_rejected_by_rule(key, overrides):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**overrides).validate()
    message = str(err.value)
    assert message.startswith(f"{key} must be ") and " of type " not in message


@pytest.mark.parametrize("key", OUT_OF_RANGE)
def test_an_out_of_range_value_is_a_config_error_naming_its_key(key):
    assert_rejected_by_rule(key, {"workers": 2, key: OUT_OF_RANGE[key]})


@pytest.mark.parametrize("key, value", [
    *((key, math.nan) for key in FLOAT_FIELDS),
    ("uplink_rate_bps", [1e5, math.nan]),
    *((key, inf) for inf in (math.inf, -math.inf) for key in FLOAT_FIELDS),
    *(("uplink_rate_bps", [1e5, inf]) for inf in (math.inf, -math.inf)),
])
def test_nan_fails_every_float_rule(key, value):
    # +-inf too: no float setting accepts a non-finite value
    assert_rejected_by_rule(key, {"workers": 2, key: value})


def test_every_default_satisfies_its_rule():
    # validate checks every field's rule, the synthetic_* ones whatever the dataset
    ExperimentConfig().validate()
    ExperimentConfig(dataset="mnist", mnist_dir="idx").validate()


@pytest.mark.parametrize("key", ["eta", "T_budget_s"])
def test_run_exits_2_on_a_bare_nan(tmp_path, capsys, key):
    # and on a bare Infinity or -Infinity, which json.load reads as well
    for value, literal in ((math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")):
        cfg_path = write_config(tmp_path, {**MINIMAL, "stop": "time", key: value})
        assert f'"{key}": {literal}' in Path(cfg_path).read_text()
        out = tmp_path / "o"
        code, _, err = run_main(["run", "--config", cfg_path, "--out", str(out)], capsys)
        assert code == 2
        assert f"config error: {key} must be finite and > 0, got {value}" in err
        assert not out.exists()


def test_run_exits_2_when_iid_workers_outnumber_training_rows(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**MINIMAL, "synthetic_classes": 2,
                                       "synthetic_per_class": 2, "workers": 8})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "config error: workers=8 exceeds the 4 training rows" in err
    assert not (tmp_path / "o").exists()


def test_run_exits_2_when_mnist_dir_has_no_idx_files(tmp_path, capsys):
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    cfg_path = write_config(tmp_path, {**MINIMAL, "dataset": "mnist", "mnist_dir": str(idx_dir)})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"config error: mnist_dir={str(idx_dir)!r} has no IDX file train-images-idx3-ubyte" in err
    assert not (tmp_path / "o").exists()


def test_run_exits_2_before_round_0_when_the_output_path_is_a_file(tmp_path, monkeypatch,
                                                                   capsys):
    forbid_rounds(monkeypatch)
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "taken"
    out.write_text("a file")
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"config error: output_dir={str(out)!r} cannot be made a directory: File exists\n"
    assert out.read_text() == "a file"


def test_run_exits_1_on_a_malformed_idx_file(tmp_path, capsys):
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    (idx_dir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x08\x01")  # a labels magic
    cfg_path = write_config(tmp_path, {**MINIMAL, "dataset": "mnist", "mnist_dir": str(idx_dir)})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "bad magic 2049" in err


def write_mnist_dir(tmp_path, train, test):
    """An mnist_dir with the train and t10k IDX pairs of two (images, labels)."""
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    for prefix, (images, labels) in (("train", train), ("t10k", test)):
        pair_dir = tmp_path / prefix
        pair_dir.mkdir()
        img_path, lab_path = write_idx_pair(pair_dir, images, labels)
        img_path.rename(idx_dir / f"{prefix}-images-idx3-ubyte")
        lab_path.rename(idx_dir / f"{prefix}-labels-idx1-ubyte")
    return idx_dir


def idx_images(n, side, labels):
    rng = np.random.default_rng(n + side)
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    return images, np.array([labels[i % len(labels)] for i in range(n)], dtype=np.uint8)


@pytest.mark.parametrize("test_pair,message", [
    # a t10k label the model, sized by the train labels 0-2, has no logit for
    (idx_images(10, 2, [0, 1, 2, 3]), "t10k labels reach 3, train labels only 2"),
    # t10k images of another size than the model's input
    (idx_images(10, 3, [0, 1, 2]), "t10k images have 9 pixels, train images 4"),
], ids=["label", "size"])
def test_run_exits_2_before_round_0_on_a_mismatched_mnist_pair(tmp_path, capsys, test_pair,
                                                                message):
    idx_dir = write_mnist_dir(tmp_path, idx_images(20, 2, [0, 1, 2]), test_pair)
    cfg_path = write_config(tmp_path, {**MINIMAL, "dataset": "mnist", "mnist_dir": str(idx_dir)})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"config error: mnist_dir={str(idx_dir)!r}: {message}" in err
    assert not (tmp_path / "o").exists()


def test_run_accepts_a_t10k_set_with_fewer_classes(tmp_path, capsys):
    idx_dir = write_mnist_dir(tmp_path, idx_images(20, 2, [0, 1, 2]), idx_images(10, 2, [0, 1]))
    cfg_path = write_config(tmp_path, {**MINIMAL, "dataset": "mnist", "mnist_dir": str(idx_dir)})
    code, out, _ = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 0 and "status=ok rounds=4" in out


def test_readme_lists_only_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Selected config keys", 1)[1].split("\n### ", 1)[0]
    bullets = section[section.index("\n- "):]
    names = set(re.findall(r"`([^`]+)`", bullets))
    values = {*SCHEMES, *STOPS, *DATASETS, *PARTITION_MODES, *ACTIVATIONS, *BASIS_KINDS}
    keys = names - values
    assert len(keys) >= 20
    assert keys <= {f.name for f in dataclasses.fields(ExperimentConfig)}


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("name, changes", [
    ("desk", {}),
    ("uplink_bound", {"downlink_rate_bps": 1e7, "uplink_rate_bps": 1e4}),
    ("noniid", {"partition_mode": "by_class", "classes_per_worker": 2}),
])
def test_a_scenario_file_is_the_acceptance_desk_config(name, changes):
    """Field by field, output_dir included: the acceptance tests' desk
    config stays the source of truth for the committed scenarios."""
    expected = dataclasses.asdict(dataclasses.replace(_desk_cfg("ffl", 0), **changes))
    assert dataclasses.asdict(load_config(str(SCENARIOS / f"{name}.json"))) == expected


@pytest.mark.parametrize("name", sorted(path.stem for path in SCENARIOS.glob("*.json")))
def test_every_scenario_runs_through_compare(name, tmp_path, capsys):
    # a 3 s budget: a few rounds of each scheme
    payload = json.loads((SCENARIOS / f"{name}.json").read_text())
    cfg_path = write_config(tmp_path, {**payload, "T_budget_s": 3.0})
    out_dir = tmp_path / "cmp"
    schemes = ["ffl", "fixed", "adacomm_like", "atomo_like"]
    code, _, err = run_main(["compare", "--config", cfg_path, "--out", str(out_dir), *schemes],
                            capsys)
    assert code == 0 and err == ""
    rows = [row.split(",") for row in (out_dir / "compare.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [(scheme, "ok") for scheme in schemes]


def test_readme_lists_every_scenario_with_its_compare_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenarios", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"`fflsim compare --config scenarios/(\w+)\.json ", section)
    assert listed == sorted(path.stem for path in SCENARIOS.glob("*.json"))

