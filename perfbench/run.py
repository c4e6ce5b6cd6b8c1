"""fflsim benchmark: host time of one workload, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk_ffl --seed 0 --seconds 20 --trace 0

`--trace 0` repeats untraced runs of the seed for about `--seconds` seconds
and reports the end-to-end metrics; `--trace 1` alternates untraced and
traced runs of the seed and reports the per-layer metrics.  Every run's
outputs are checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record
(environment, sample counts, output digests) goes to
.bench_out/results/<workload>-seed<seed>-trace<t>.json.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fflsim" / "__init__.py").is_file():
        print(f"error: no fflsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fflsim

    if Path(fflsim.__file__).resolve().parent != SRC / "fflsim":
        print(f"error: imported fflsim from {fflsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    measure = bench.measure_layers if args.trace else bench.measure_end_to_end
    result = measure(workload, args.seed, args.seconds, ROOT)
    wanted = bench.PER_LAYER if args.trace else bench.END_TO_END
    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        print(f"error: every run failed, no value for {missing}: {result.errors[:3]}",
              file=sys.stderr)
        return 1

    env = bench.environment()
    print("env " + json.dumps(env, sort_keys=True))
    for error in result.errors:
        print(f"FAILED run: {error}")
    for name in wanted:
        value, unit = result.metrics[name]
        print(f"{name} = {value:.6g} {unit}  ({result.samples[name]})")
    for key, value in result.extra.items():
        print(f"{key} = {value}")
    print("output sha256 = " + " ".join(result.digests))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": result.attempted,
        "failed": result.failed, "errors": result.errors, "output_sha256": result.digests,
        "metrics": {n: {"value": v, "unit": u, "samples": result.samples[n]}
                    for n, (v, u) in result.metrics.items()},
        **result.extra,
    }
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
                    for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
