"""The synchronous federated round loop.

Each round the server broadcasts its parameters and the plan (tau_k, s_k);
every worker runs tau_k local SGD steps, sums its per-step mini-batch
gradients, optionally compresses that sum, and uploads it.  The local steps
of all workers run as one stacked pass (nn.local_update_run), which returns
each worker's gradient sum as one row of an (M, d) array in the flat
parameter layout, and its per-step losses; the workers' final parameters are
never formed, since the server steps with the uploads alone.  Compression is
one stage over those rows: one decomposition of all M rows, their keep
probabilities and masks, and one reconstruction into a second (M, d) buffer
whose row j is worker j's payload as the server reconstructs it (the
gradient rows themselves when nothing is compressed).  The server's average
is the sum of the rows whose packets survive, added in worker order, over
their count; it takes one momentum SGD step with the average, and feeds the
workers' mean training loss back into the scheduler for the next plan.  The
round's four clock columns are the fields of one netsim.round_cost call on
tau_k, the bits each worker uploads and the dense model's broadcast bits.
Named schemes are presets of three knobs (compression on/off, a pinned tau
or none, a pinned s or none): every scheme runs the adaptive planner and its
pins override the plan, so the baselines are literally the adaptive engine
with parts switched off.  A round whose training loss is exactly 0 ends the
run: the planner's loss ratio has no meaning there.  A run in which every
round lost every packet ends with its own status, since its model and plan
never left their start.  A round that diverges (a FloatingPointError from
a non-finite check, the test loss's included) ends the run with status
"diverged" and its message.
run_experiment, the one entry point, returns that outcome like any other and
raises no FloatingPointError; an output path it cannot make a directory is a
ConfigError, raised before round 0.

Every random stream is derived once, in Experiment.__init__: "data",
"partition", "init", per worker a "worker" mini-batch stream and a separate
"compress" keep-mask stream (so compressing draws no mini-batch), and one
"net" stream of packet survivals.  Each round draws on from where the last
one stopped.

The round records are the run's only history: the round number, the clock,
the last evaluation, the skipped-round and empty-payload counts, the largest
training loss over the first, and the status are read from them (and from
the error of a round that diverged), so summary.json cannot disagree with
metrics.csv, even after a run diverges mid-round.  Nothing is logged: a
fallback, such as a worker's empty payload or the samples a by_class deal
leaves out, shows as a count in the summary.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import compress, netsim, nn, schedule
from .config import ExperimentConfig
from .data import Dataset, Shard, gen_synthetic, load_idx, partition, split_per_class, take
from .errors import ConfigError
from .rng import substream

CSV_COLUMNS = (
    "round", "sim_time_s", "tau_k", "s_k", "train_loss", "smoothed_loss", "test_acc",
    "received_workers", "atoms_sent_total", "round_time_s", "uplink_max_s", "downlink_s",
    "compute_max_s",
)


@dataclass
class SchemePolicy:
    """Knob preset for one scheme: compression on/off, and a pin that
    replaces the planner's tau or s (None lets that half of the plan adapt)."""

    compress: bool
    tau_pin: int | None = None
    s_pin: float | None = None


def policy_for(scheme: str, tau0: int, s0: float) -> SchemePolicy:
    if scheme == "ffl":
        return SchemePolicy(compress=True)
    if scheme == "adacomm_like":
        return SchemePolicy(compress=False, s_pin=s0)
    if scheme == "atomo_like":
        return SchemePolicy(compress=True, tau_pin=1, s_pin=s0)
    if scheme == "fixed":
        return SchemePolicy(compress=True, tau_pin=tau0, s_pin=s0)
    if scheme == "vanilla":
        return SchemePolicy(compress=False, tau_pin=1, s_pin=s0)
    raise ConfigError(f"unknown scheme {scheme!r}")


@dataclass
class WorkerState:
    shard: Shard
    rng: np.random.Generator  # mini-batch draws
    keep_rng: np.random.Generator  # keep-mask draws of compress.sample


@dataclass
class RoundRecord:
    round: int
    sim_time_s: float
    tau_k: int
    s_k: float
    train_loss: float
    smoothed_loss: float
    test_acc: float
    received_workers: int
    atoms_sent_total: int
    round_time_s: float
    uplink_max_s: float
    downlink_s: float
    compute_max_s: float
    # read by the summary and carried over by rounds that do not evaluate;
    # not part of the CSV schema
    smoothed_acc: float = 0.0
    test_loss: float = math.nan
    empty_payloads: int = 0  # workers whose compressed gradient row was all zeros


def evaluate(params: nn.ParameterSet, test_set: Dataset) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy over a dataset: one
    forward pass over all its rows, then one nn.cross_entropy call and one
    argmax over their logits.  A set classified with certainty, every
    picked log-probability 0.0, has the loss +0.0, not a negated mean's
    -0.0.  A non-finite loss raises FloatingPointError."""
    logits = nn.forward_rows(params, test_set.rows)
    # adding 0.0 turns -0.0 into +0.0 and keeps every other loss's bits
    loss = nn.cross_entropy(logits, test_set.labels) + 0.0
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite values in test loss")
    correct = int(np.count_nonzero(logits.argmax(axis=1) == test_set.labels))
    return loss, correct / test_set.n


def _build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    data_rng = substream(cfg.seed, "data")
    if cfg.dataset == "synthetic":
        full = gen_synthetic(
            cfg.synthetic_classes,
            cfg.synthetic_per_class + cfg.synthetic_test_per_class,
            cfg.synthetic_dim,
            cfg.synthetic_spread,
            data_rng,
        )
        return split_per_class(full, cfg.synthetic_per_class)
    try:
        train = load_idx(
            os.path.join(cfg.mnist_dir, "train-images-idx3-ubyte"),
            os.path.join(cfg.mnist_dir, "train-labels-idx1-ubyte"),
        )
        test = load_idx(
            os.path.join(cfg.mnist_dir, "t10k-images-idx3-ubyte"),
            os.path.join(cfg.mnist_dir, "t10k-labels-idx1-ubyte"),
        )
    except FileNotFoundError as exc:
        raise ConfigError(
            f"mnist_dir={cfg.mnist_dir!r} has no IDX file {os.path.basename(exc.filename)}"
        ) from None
    # the model is sized by the training pair, so the t10k pair must fit it
    if test.d_in != train.d_in:
        raise ConfigError(f"mnist_dir={cfg.mnist_dir!r}: t10k images have {test.d_in} pixels, "
                          f"train images {train.d_in}")
    if test.n_classes > train.n_classes:
        raise ConfigError(f"mnist_dir={cfg.mnist_dir!r}: t10k labels reach {test.n_classes - 1}, "
                          f"train labels only {train.n_classes - 1}")
    if cfg.subset_n < train.n:
        train = take(train, data_rng.choice(train.n, size=cfg.subset_n, replace=False))
    if cfg.test_subset_n < test.n:
        test = take(test, data_rng.choice(test.n, size=cfg.test_subset_n, replace=False))
    return train, test


class Experiment:
    """One configured run: dataset, workers, server state, and the round loop."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.policy = policy_for(cfg.scheme, cfg.tau0, cfg.s0)
        self.train_set, self.test_set = _build_datasets(cfg)
        shards = partition(self.train_set, cfg.partition_mode, cfg.workers,
                           substream(cfg.seed, "partition"), cfg.classes_per_worker)
        self.workers = [
            WorkerState(shards[j], substream(cfg.seed, "worker", j),
                        substream(cfg.seed, "compress", j))
            for j in range(cfg.workers)
        ]
        self.net_rng = substream(cfg.seed, "net")
        self.uplink_bps = netsim.uplink_rates(cfg)
        mlp = nn.MlpSpec(
            (self.train_set.d_in, *cfg.hidden_layers, self.train_set.n_classes), cfg.activation
        )
        self.params = nn.init_params(mlp, substream(cfg.seed, "init"))
        self.velocity: nn.ParameterSet | None = None
        self.scheduler = schedule.SchedulerState(
            tau0=cfg.tau0, s0=cfg.s0, tau_ub=cfg.tau_ub, s_ub=cfg.s_ub,
            loss_smoothing=cfg.loss_smoothing,
        )
        self.records: list[RoundRecord] = []
        self.error: FloatingPointError | None = None  # set by run() when a round diverges
        self._next_plan = self._apply_policy(schedule.RoundPlan(cfg.tau0, cfg.s0))

    # ---- plan handling ------------------------------------------------- #

    def _apply_policy(self, plan: schedule.RoundPlan) -> schedule.RoundPlan:
        """The plan with the scheme's pins in place of the planner's values."""
        tau = plan.tau_k if self.policy.tau_pin is None else self.policy.tau_pin
        s = plan.s_k if self.policy.s_pin is None else self.policy.s_pin
        return schedule.RoundPlan(int(tau), float(s))

    # ---- the round ----------------------------------------------------- #

    def run_round(self) -> RoundRecord:
        cfg = self.cfg
        last = self.records[-1] if self.records else None
        k = len(self.records)
        plan = self._next_plan
        d = self.params.dim

        g_rows, losses = nn.local_update_run(
            self.params, self.train_set, [w.shard for w in self.workers], plan.tau_k, cfg.eta,
            cfg.batch_size, [w.rng for w in self.workers],
        )
        worker_losses = np.add.reduce(losses, axis=1) / losses.shape[1]
        if self.policy.compress:
            decomp = compress.decompose_bundle(self.params.from_flat(g_rows), cfg.basis, plan.s_k)
            empty = int(np.count_nonzero(decomp.atom_counts == 0))
            probs = compress.probabilities(decomp, plan.s_k)
            payloads = compress.sample(decomp, probs, [w.keep_rng for w in self.workers])
            # row j: worker j's update as the server reconstructs it
            rows = compress.reconstruct(payloads)
            bits = compress.payload_bits(payloads)
            atoms_sent = payloads.payload_atoms
        else:
            rows = g_rows
            bits = np.full(cfg.workers, netsim.DENSE_BITS_PER_VALUE * d)
            atoms_sent = empty = 0
        cost = netsim.round_cost(
            cfg, self.uplink_bps, plan.tau_k, bits, netsim.DENSE_BITS_PER_VALUE * d
        )
        received = netsim.packets_survive(cfg, self.net_rng)

        count = np.count_nonzero(received)
        if count:
            # an axis-0 sum adds the received rows in worker order
            ghat = self.params.from_flat(np.add.reduce(rows[received], axis=0) / count)
            self.params, self.velocity = nn.sgd_step(
                self.params, ghat, cfg.eta, cfg.server_momentum, self.velocity
            )
            train_loss = float(np.add.reduce(worker_losses[received]) / count)
            if train_loss > 0.0:
                self._next_plan = self._apply_policy(schedule.plan_next(self.scheduler, train_loss))
        else:
            train_loss = math.nan

        # round 0 always evaluates, so a round that does not has a last record
        if k % cfg.eval_stride == 0:
            test_loss, test_acc = evaluate(self.params, self.test_set)
            c = cfg.loss_smoothing
            smoothed_acc = (
                test_acc if last is None else c * last.smoothed_acc + (1.0 - c) * test_acc
            )
        else:
            test_loss, test_acc, smoothed_acc = last.test_loss, last.test_acc, last.smoothed_acc

        record = RoundRecord(
            round=k,
            sim_time_s=(0.0 if last is None else last.sim_time_s) + cost.round_time_s,
            tau_k=plan.tau_k,
            s_k=plan.s_k,
            train_loss=train_loss,
            smoothed_loss=self.scheduler.smoothed if self.scheduler.smoothed is not None else math.nan,
            test_acc=test_acc,
            received_workers=count,
            atoms_sent_total=atoms_sent,
            **cost._asdict(),
            smoothed_acc=smoothed_acc,
            test_loss=test_loss,
            empty_payloads=empty,
        )
        self.records.append(record)
        return record

    def run(self) -> tuple[list[RoundRecord], dict]:
        cfg = self.cfg
        try:
            while True:
                record = self.run_round()
                if record.train_loss == 0.0:
                    break
                if cfg.stop == "time" and record.sim_time_s >= cfg.T_budget_s:
                    break
                if len(self.records) >= cfg.round_cap:
                    break
        except FloatingPointError as exc:
            self.error = exc
        return self.records, self.summary()

    def summary(self) -> dict:
        """The run so far, read from the config, the workers' shards, the
        round records and self.error alone; the `final_*`, `best_acc` and
        `max_train_loss_ratio` entries are NaN (null in summary.json) when no
        round has completed (the ratio also when no round has a finite
        training loss, or the first one is 0).  "status" is
        "diverged" (the message is the last entry, "error"), "zero_loss",
        "all_rounds_lost" or "ok"."""
        cfg, records = self.cfg, self.records
        last = records[-1] if records else None
        # counted in Python ints: json.dump rejects a numpy integer
        skipped = sum(1 for r in records if r.received_workers == 0)
        losses = [r.train_loss for r in records if math.isfinite(r.train_loss)]
        if self.error is not None:
            status = "diverged"
        elif last is not None and last.train_loss == 0.0:
            status = "zero_loss"
        elif last is not None and skipped == len(records):
            status = "all_rounds_lost"
        else:
            status = "ok"
        time_to_target = next(
            (r.sim_time_s for r in records if r.smoothed_acc >= cfg.target_accuracy), "inf"
        )

        def final(field: str) -> float:
            return math.nan if last is None else getattr(last, field)

        summary = {
            "status": status,
            "scheme": cfg.scheme,
            "config": cfg.to_dict(),
            "rounds": len(records),
            "final_acc": final("test_acc"),
            "best_acc": max((r.test_acc for r in records), default=math.nan),
            "final_smoothed_acc": final("smoothed_acc"),
            "final_train_loss": final("train_loss"),
            "final_smoothed_loss": final("smoothed_loss"),
            "final_test_loss": final("test_loss"),
            "target_accuracy": cfg.target_accuracy,
            "time_to_target_s": time_to_target,
            "total_sim_time_s": 0.0 if last is None else last.sim_time_s,
            # per-round metrics.csv columns summed over rounds
            "total_compute_s": sum(r.compute_max_s for r in records),
            "total_uplink_s": sum(r.uplink_max_s for r in records),
            "total_downlink_s": sum(r.downlink_s for r in records),
            "total_atoms_sent": sum(r.atoms_sent_total for r in records),
            "skipped_rounds": skipped,
            "empty_payloads": sum(r.empty_payloads for r in records),
            # the samples a by_class deal leaves out to keep shard sizes balanced
            "dropped_samples": self.train_set.n - sum(len(w.shard) for w in self.workers),
            # a loss that grows without overflowing still ends "ok"
            "max_train_loss_ratio": max(losses) / losses[0] if losses and losses[0] else math.nan,
        }
        if self.error is not None:
            summary["error"] = str(self.error)
        return summary


def write_metrics_csv(records: list[RoundRecord], path: str) -> None:
    """The per-round metrics table; byte-stable for identical runs."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([getattr(r, col) for col in CSV_COLUMNS])


def _strict_json(value):
    """`value` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def write_summary_json(summary: dict, path: str) -> None:
    """The run summary as strict JSON: a non-finite float, such as the train
    loss of a last round lost to packet failure, is written as null."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_strict_json(summary), f, indent=2, allow_nan=False)
        f.write("\n")


def run_experiment(
    cfg: ExperimentConfig,
    output_dir: str | None = None,
    names: tuple[str, str] = ("metrics.csv", "summary.json"),
) -> tuple[list[RoundRecord], dict]:
    """Run one experiment and write its metrics table and summary, under
    `names`, to the output directory (cfg.output_dir unless overridden
    here; an empty one writes nothing), and return the records and the
    summary, a diverged run's too.  The directory is made after set-up and
    before round 0, so a path that cannot be one is a ConfigError that costs
    no round."""
    experiment = Experiment(cfg)
    output_dir = cfg.output_dir if output_dir is None else output_dir
    if output_dir:
        try:
            os.makedirs(output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"output_dir={output_dir!r} cannot be made a directory: {exc.strerror}"
            ) from None
    records, summary = experiment.run()
    if output_dir:
        write_metrics_csv(records, os.path.join(output_dir, names[0]))
        write_summary_json(summary, os.path.join(output_dir, names[1]))
    return records, summary
