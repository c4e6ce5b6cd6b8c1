import json

import pytest

from fflsim import cli
from fflsim.config import ExperimentConfig, load_config
from fflsim.errors import ConfigError

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


def test_run_rejects_negative_eta_with_key_in_message(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**MINIMAL, "eta": -1})
    code, _, err = run_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "eta" in err


# learning_rate was never a key; schedule, L, sigma1, sigma2, F_inf and probe_rounds
# belonged to the deleted `full` schedule; the last four were channel keys that
# disagreed with the wire format or that nothing read
UNKNOWN_KEYS = {"learning_rate": 0.1, "schedule": "conclusive", "L": 0.5, "sigma1": 1.0,
                "sigma2": 1.0, "F_inf": 0.0, "probe_rounds": 2, "bits_per_atom": 96,
                "bits_per_weight": 64, "noise_watts": 1e-3, "sec_per_atom_compress": 0.0}


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
                        "speedup_vs_ffl")
    assert len(lines) == 3
    # the paper's objective, the test loss at the end of the run, per scheme
    for line, scheme in zip(lines[1:], ("ffl", "vanilla")):
        summary = json.loads((out_dir / f"summary_{scheme}.json").read_text())
        fields = line.split(",")
        assert fields[0] == scheme
        assert float(fields[3]) == summary["final_test_loss"]
    header, *table = out.splitlines()[-3:]
    assert header.split() == ["scheme", "time_to_target_s", "final_acc", "final_test_loss",
                              "rounds", "total_atoms"]
    for row, line in zip(table, lines[1:]):
        assert row.split()[3] == f"{float(line.split(',')[3]):.4f}"


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
    assert "PASS" in out
    assert "FAIL" not in out


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


def test_snr_config_replaces_default_rate(tmp_path):
    cfg_path = write_config(tmp_path, {**MINIMAL, "snr": 1.0})
    cfg = load_config(cfg_path)
    channel = cfg.channel()
    assert channel.uplink_rate_bps is None
    assert channel.snr == 1.0
    channel.validate(cfg.workers)


def test_logging_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("FFL_LOG", "verbose")
    cli._setup_logging()
    err = capsys.readouterr().err
    assert "FFL_LOG" in err
