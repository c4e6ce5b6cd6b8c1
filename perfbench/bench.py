"""Workloads, output checks and metrics of the fflsim benchmark.

Every workload run drives the simulator through its public API in this
process.  `measure_end_to_end` repeats untraced runs of one seed for about a
given number of seconds; `measure_layers` alternates untraced and traced
runs of the seed and derives the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import LAYERS, Spans, Tracer, layer_self_ns, outermost, summarize

# The acceptance "desk" task (tests/test_acceptance.py::_desk_cfg), stopped
# after a fixed round count so simulated-airtime changes cannot move host work.
DESK = dict(
    scheme="ffl", stop="rounds", workers=8, eta=0.01, server_momentum=0.9, batch_size=64,
    hidden_layers=[32], tau0=30, tau_ub=30, s0=5.0, s_ub=9.0,
    dataset="synthetic", synthetic_classes=4, synthetic_per_class=1000,
    synthetic_test_per_class=250, synthetic_dim=16, synthetic_spread=0.30,
    uplink_rate_bps=1e5, downlink_rate_bps=1e5, target_accuracy=0.9, packet_failure_prob=0.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str  # layer expected to hold the largest self-time share
    config: dict | None = None  # ExperimentConfig fields but the seed; None runs the oracle
    accuracy_floor: float = 0.0  # a run whose final test accuracy is lower fails


WORKLOADS = {
    "desk_ffl": Workload("desk_ffl", "nn", dict(DESK, round_cap=20), accuracy_floor=0.7),
    "atomo_lowrank": Workload(
        "atomo_lowrank", "compress",
        dict(DESK, scheme="atomo_like", basis="lowrank", round_cap=50), accuracy_floor=0.35,
    ),
    "selftest_oracle": Workload("selftest_oracle", "selftest"),
}
# An oracle run is ORACLE_TRIALS calls ("rounds"), like the selftest's
# optimality check, of ORACLE_ITERS projected-gradient iterations each.  The
# selftest runs 4000 per call; every iteration does the same work, and short
# calls let a window repeat each one ~100 times and keep the fastest.
ORACLE_TRIALS = 10
ORACLE_ITERS = 50

END_TO_END = {
    "run_s": "s", "round_ms_p50": "ms", "round_ms_p95": "ms", "steps_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "nn.loss_and_grad.us": "us", "nn.sgd_step.us": "us", "nn.local_update_run.self_us": "us",
    "data.sample_minibatch.us": "us", "nn.worker_steps": "count",
    "compress.decompose_bundle.us": "us", "compress.lowrank_fallback_share": "fraction",
    "compress.probabilities.us": "us", "compress.sample.us": "us", "compress.reconstruct.us": "us",
    "compress.sigma_terms.us": "us", "compress.atoms_decomposed": "count",
    "compress.atoms_sent": "count",
    "rng.substream.us": "us", "rng.substream.calls": "count", "federation.evaluate.us": "us",
    "federation.run_round.self_us": "us", "schedule.plan_next.us": "us",
    "selftest.minimize_variance_numeric.ms": "ms",
    "data.gen_synthetic.ms": "ms", "data.partition.ms": "ms", "nn.init_params.ms": "ms",
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.overhead_share": "fraction",
}

SETUPS = 9  # fresh-interpreter set-ups per untraced measurement

# Imports fflsim and builds the workload's Experiment in a fresh interpreter;
# prints the seconds that took.  argv[1] is the JSON config, null for the oracle.
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import fflsim
config = json.loads(sys.argv[1])
if config is None:
    import fflsim.selftest
else:
    fflsim.Experiment(fflsim.ExperimentConfig.from_dict(config))
print(time.perf_counter() - start)
"""


# ---- one run ------------------------------------------------------------- #


@dataclass
class Run:
    seconds: float = math.nan
    round_s: list[float] = field(default_factory=list)
    steps: int = 0  # local SGD steps (sum of tau_k * M); oracle iterations
    digest: str = ""  # SHA-256 of metrics.csv, or of the oracle's minimum
    error: str | None = None  # why the run failed, None if it passed every check

    @property
    def ok(self) -> bool:
        return self.error is None


def run_config(workload: Workload, seed: int) -> dict:
    return dict(workload.config, seed=seed)


def run_once(workload: Workload, seed: int, out_dir: Path) -> Run:
    """One workload run with its output checks; never raises."""
    try:
        if workload.config is None:
            return _run_oracle(seed)
        return _run_experiment(workload, seed, out_dir)
    except Exception:  # a run that raises is a failed run, not a crashed benchmark
        return Run(error="raised " + traceback.format_exc().strip().splitlines()[-1])


def _run_experiment(workload: Workload, seed: int, out_dir: Path) -> Run:
    from fflsim import federation
    from fflsim.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(run_config(workload, seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    clock = time.perf_counter
    start = clock()
    experiment = federation.Experiment(cfg)
    round_s = []
    for _ in range(cfg.round_cap):
        t0 = clock()
        experiment.run_round()
        round_s.append(clock() - t0)
    federation.write_metrics_csv(experiment.records, str(csv_path))
    seconds = clock() - start

    records = experiment.records
    run = Run(
        seconds=seconds,
        round_s=round_s,
        steps=sum(r.tau_k for r in records) * cfg.workers,
        digest=hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    )
    if any(not math.isfinite(r.train_loss) for r in records):
        run.error = "non-finite train_loss"
    elif records[-1].test_acc < workload.accuracy_floor:
        run.error = f"final accuracy {records[-1].test_acc:.3f} < floor {workload.accuracy_floor}"
    return run


def oracle_inputs(seed: int) -> list[tuple[np.ndarray, float]]:
    """(coefficients, budget) per trial, drawn the way the selftest's
    probability-optimality check draws them, its first three with a clipped
    atom."""
    rng = np.random.default_rng(seed)
    trials = []
    for trial in range(ORACLE_TRIALS):
        size = int(rng.integers(2, 7))
        lam = np.exp(rng.standard_normal(size))
        if trial < 3:
            lam[0] *= 20.0
        trials.append((lam, float(rng.uniform(1.0, size))))
    return trials


def _run_oracle(seed: int) -> Run:
    """Projected-gradient minimisations, each checked against the
    closed-form probabilities the way the selftest checks them."""
    from fflsim import compress, selftest

    clock = time.perf_counter
    round_s, minima, errors = [], [], []
    for lam, s in oracle_inputs(seed):
        probs = compress.probabilities(compress.decompose_elementwise(lam), s)
        closed = float(np.sum(lam**2 / probs.probs))
        start = clock()
        numeric = selftest.minimize_variance_numeric(lam, s, iters=ORACLE_ITERS)
        round_s.append(clock() - start)
        minima.append(numeric)
        if not closed - numeric <= 1e-6:
            errors.append(f"closed form {closed!r} exceeds the numeric minimum {numeric!r} by > 1e-6")
    return Run(
        seconds=sum(round_s),
        round_s=round_s,
        steps=ORACLE_TRIALS * ORACLE_ITERS,
        digest=hashlib.sha256(repr(minima).encode()).hexdigest(),
        error=errors[0] if errors else None,
    )


# ---- host speed ----------------------------------------------------------- #

# Timings are reported in seconds scaled to a host that runs the reference
# loop in this long (a quiet stretch of the host the benchmark was written on
# takes about as long).
REFERENCE_SECONDS = 1e-3
_REF_A = np.linspace(0.0, 1.0, 64 * 16).reshape(64, 16)
_REF_B = np.linspace(1.0, 0.0, 16 * 32).reshape(16, 32)
_REF_P = np.linspace(0.1, 0.9, 5)
_REF_ROWS = (np.arange(32) * 7) % 64


def reference_seconds() -> float:
    """Best of 3 timings of a fixed loop of the small numpy operations fflsim
    spends its time in (matmul, clip, gather, sum); it runs no fflsim code,
    so it measures only how fast the host runs this process right now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(100):
            h = np.maximum(_REF_A @ _REF_B, 0.0)
            np.clip(_REF_P - 0.3, 1e-12, 1.0).sum()
            h[_REF_ROWS].sum(axis=0)
        best = min(best, time.perf_counter() - start)
    return best


# ---- set-up in a fresh interpreter ---------------------------------------- #


def setup_once(workload: Workload, seed: int, src: Path) -> float:
    """Seconds to import fflsim and build the workload's Experiment, timed
    inside a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    config = None if workload.config is None else run_config(workload, seed)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(config)],
        env=env, cwd=src.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---- measurement ---------------------------------------------------------- #


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    samples: dict[str, str]  # name -> how the value was formed
    attempted: int
    failed: int
    errors: list[str]
    digests: list[str]
    extra: dict = field(default_factory=dict)


def _result(runs: list[Run], metrics: dict, samples: dict, extra: dict) -> Result:
    return Result(
        metrics=metrics,
        samples=samples,
        attempted=len(runs),
        failed=sum(not r.ok for r in runs),
        errors=[r.error for r in runs if not r.ok],
        digests=sorted({r.digest for r in runs if r.digest}),
        extra=extra,
    )


def _check_identity(runs: list[Run]) -> None:
    """Every run of one seed must reproduce the first passing run's output
    bytes; a mismatch fails the later run."""
    first = next((r.digest for r in runs if r.ok), None)
    for run in runs:
        if run.ok and run.digest != first:
            run.error = f"output digest {run.digest[:12]} differs from the first run's {first[:12]}"


def _keep_going(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another run only if a typical one still fits in the window."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def measure_end_to_end(workload: Workload, seed: int, seconds: float, root: Path) -> Result:
    """Untraced runs of one seed for about `seconds`, with fresh-interpreter
    set-ups spread over the same window.  Timings are best-of-N and scaled by
    the fastest reference-loop time of the window: the host's speed shifts by
    up to 1.8x for seconds to minutes at a time (see README.md)."""
    out_dir = root / ".bench_out" / workload.name / f"seed{seed}"
    src = root / "src"
    runs: list[Run] = []
    setups: list[float] = []
    references: list[float] = []

    def setup() -> None:
        references.append(reference_seconds())
        setups.append(setup_once(workload, seed, src))

    setup()
    start = time.perf_counter()
    while True:
        references.append(reference_seconds())
        runs.append(run_once(workload, seed, out_dir))
        elapsed = time.perf_counter() - start
        while len(setups) < 1 + (SETUPS - 1) * min(1.0, elapsed / seconds):
            setup()
        if not _keep_going(start, seconds, [r.seconds if r.ok else 0.0 for r in runs]):
            break
    while len(setups) < SETUPS:
        setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_identity(runs)

    passed = [r for r in runs if r.ok]
    scale = REFERENCE_SECONDS / min(references)
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, str] = {}
    if passed:
        # Round k does the same work in every run of the seed, so each round,
        # and the rest of the run (build, CSV), is timed as its fastest repeat
        # and a run as the sum of those: no single run has to fall wholly
        # within a quiet stretch of the host.
        round_best = np.min(np.array([r.round_s for r in passed]), axis=0) * scale
        rest_best = min(r.seconds - sum(r.round_s) for r in passed) * scale
        run_best = rest_best + float(round_best.sum())
        steps = passed[0].steps
        how = f"fastest of {len(passed)} runs"
        metrics["run_s"] = (run_best, "s")
        samples["run_s"] = f"sum over the {round_best.size} rounds and the rest, each the " + how
        metrics["round_ms_p50"] = (float(np.percentile(round_best, 50)) * 1e3, "ms")
        metrics["round_ms_p95"] = (float(np.percentile(round_best, 95)) * 1e3, "ms")
        samples["round_ms_p50"] = samples["round_ms_p95"] = (
            f"over {round_best.size} rounds, each the " + how
        )
        metrics["steps_per_s"] = (steps / run_best, "1/s")
        samples["steps_per_s"] = f"{steps} steps per run over run_s"
    metrics["setup_s"] = (min(setups) * scale, "s")
    samples["setup_s"] = f"fastest of {len(setups)} fresh interpreters"
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    samples["peak_rss_mb"] = "ru_maxrss of the benchmark process"
    extra = {
        "reference_ms": min(references) * 1e3,
        "host_seconds_per_reference_second": 1.0 / scale,
        "median_run_s_unscaled": statistics.median(r.seconds for r in passed) if passed else None,
        "fastest_setup_s_unscaled": min(setups),
        "each_run_s_unscaled": [round(r.seconds, 6) for r in runs],
    }
    return _result(runs, metrics, samples, extra)


# ---- per-layer metrics from one traced run -------------------------------- #


def layer_metrics(spans: Spans, run_seconds: float) -> dict[str, float]:
    """Every PER_LAYER metric but the trace overhead, from one run's spans."""
    stats = summarize(spans)
    layers = layer_self_ns(stats)

    def per_call(name: str, scale: float, self_time: bool = False) -> float:
        entry = stats.get(name)
        if entry is None:
            return 0.0
        return (entry.self_ns if self_time else entry.total_ns) / entry.calls / scale

    out = {
        "nn.loss_and_grad.us": per_call("nn.loss_and_grad", 1e3),
        "nn.sgd_step.us": per_call("nn.sgd_step", 1e3),
        "nn.local_update_run.self_us": per_call("nn.local_update_run", 1e3, self_time=True),
        "data.sample_minibatch.us": per_call("data.sample_minibatch", 1e3),
        "compress.decompose_bundle.us": per_call("compress.decompose_bundle", 1e3),
        "compress.probabilities.us": per_call("compress.probabilities", 1e3),
        "compress.sample.us": per_call("compress.sample", 1e3),
        "compress.reconstruct.us": per_call("compress.reconstruct", 1e3),
        "compress.sigma_terms.us": per_call("compress.sigma_terms", 1e3),
        "rng.substream.us": per_call("rng.substream", 1e3),
        "federation.evaluate.us": per_call("federation.evaluate", 1e3),
        "federation.run_round.self_us": per_call("federation.run_round", 1e3, self_time=True),
        "schedule.plan_next.us": per_call("schedule.plan_next", 1e3),
        "data.gen_synthetic.ms": per_call("data.gen_synthetic", 1e6),
        "data.partition.ms": per_call("data.partition", 1e6),
        "nn.init_params.ms": per_call("nn.init_params", 1e6),
        "selftest.minimize_variance_numeric.ms": per_call("selftest.minimize_variance_numeric", 1e6),
    }
    for layer, ns in layers.items():
        out[f"{layer}.share"] = ns / (run_seconds * 1e9)

    rng_calls = stats.get("rng.substream")
    out["rng.substream.calls"] = float(rng_calls.calls if rng_calls else 0)
    out["nn.worker_steps"] = float(sum(
        1 for name, parent in zip(spans.names, spans.parents)
        if name == "nn.loss_and_grad" and parent >= 0
        and spans.names[parent] == "nn.local_update_run"
    ))
    top = [(spans.names[i], spans.values[i]) for i in outermost(spans, "compress.")]
    decomposed = [v for name, v in top if name.startswith("compress.decompose")]
    asked_lowrank = [v for v in decomposed if v[1] == "lowrank"]
    out["compress.atoms_decomposed"] = float(sum(v[0] for v in decomposed))
    out["compress.atoms_sent"] = float(sum(v[0] for name, v in top if name == "compress.sample"))
    out["compress.lowrank_fallback_share"] = (
        sum(v[2] == "elementwise" for v in asked_lowrank) / len(asked_lowrank)
        if asked_lowrank else 0.0
    )
    return out


def measure_layers(workload: Workload, seed: int, seconds: float, root: Path) -> Result:
    """Pairs of an untraced and a traced run of the same seed for about
    `seconds`; per-layer metrics come from the fastest traced run."""
    out_dir = root / ".bench_out" / workload.name / f"seed{seed}"
    tracer = Tracer()
    untraced: list[Run] = []
    traced: list[Run] = []
    fastest: tuple[float, dict[str, float]] | None = None
    start = time.perf_counter()
    references: list[float] = []
    while True:
        references.append(reference_seconds())
        untraced.append(run_once(workload, seed, out_dir))
        with tracer.installed():
            traced.append(run_once(workload, seed, out_dir))
        spans = tracer.reset()
        if traced[-1].ok and (fastest is None or traced[-1].seconds < fastest[0]):
            fastest = (traced[-1].seconds, layer_metrics(spans, traced[-1].seconds))
        del spans
        pair = [u.seconds + t.seconds if u.ok and t.ok else 0.0 for u, t in zip(untraced, traced)]
        if not _keep_going(start, seconds, pair):
            break
    runs = [r for pair in zip(untraced, traced) for r in pair]
    _check_identity(runs)

    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, str] = {}
    plain = [r.seconds for r in untraced if r.ok]
    if fastest is not None and plain:
        scale = REFERENCE_SECONDS / min(references)
        for name, unit in PER_LAYER.items():
            value = fastest[1].get(name, 0.0)
            metrics[name] = (value * scale if unit in ("us", "ms") else value, unit)
            samples[name] = f"fastest of {len(traced)} traced runs"
        metrics["trace.overhead_share"] = (fastest[0] / min(plain) - 1.0, "fraction")
        samples["trace.overhead_share"] = (
            f"fastest traced over fastest untraced run, minus 1 ({len(traced)} pairs)"
        )
    shares = {layer: metrics.get(f"{layer}.share", (0.0, ""))[0] for layer in LAYERS}
    extra = {
        "dominant_layer": max(shares, key=shares.get),
        "expected_dominant_layer": workload.dominant,
    }
    return _result(runs, metrics, samples, extra)


# ---- environment ---------------------------------------------------------- #


def environment() -> dict:
    import platform

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }
