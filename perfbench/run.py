"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload newton --seed 1 --seconds 30 --trace 0

Generates the workload's op list from the seed, measures set-up time in
fresh processes and runs the timed phase in another fresh process (see
worker.py).  The op list, the result and, for a traced run, the spans are
written to perfbench/out/<workload>-seed<seed>/.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1.  Exits nonzero, printing no result, when the
program's source is missing or a measured process fails.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up is timed in the measured process and in this many more
SETUP_PROCESSES = 2
# Timings are divided by the machine's speed factor, probe time over
# REF_PROBE_S (worker.probe on a 2-vCPU 2.0 GHz Xeon VM in steady state),
# because a shared host's speed drifts by up to 1.6x; see README.md.
REF_PROBE_S = 1.25e-3
PROBE_WINDOW_S = 1.0
P90_MIN_OPS = 100
RUN_BUDGET_S = 170.0
MAX_LISTED_FAILURES = 10


class WorkerFailed(RuntimeError):
    pass


def _worker(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(op):
    if op["kind"] == "oracle":
        return f"oracle n={op['n']} m={op['m']:.6g} npts={op['npts']}"
    return "dehnfill " + " ".join(op["argv"])


def speed_factors(records, probes):
    """Per op: median probe time within PROBE_WINDOW_S of it / REF_PROBE_S.

    The worker probes within worker.PROBE_EVERY_S (< PROBE_WINDOW_S)
    before every op, so no window is empty.
    """
    times = [t for t, _ in probes]
    factors = []
    for _, _, start, latency, _, _ in records:
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + latency + PROBE_WINDOW_S)
        near = [d for _, d in probes[lo:hi]]
        factors.append(statistics.median(near) / REF_PROBE_S)
    return factors


def timings(raw, setups, normalize):
    """(throughput, latencies, set-up times), optionally speed-normalized."""
    records = raw["ops"]
    latencies = [r[3] for r in records]
    ok = sum(1 for r in records if r[4] == "ok")
    between = (raw["elapsed_s"] - sum(latencies)
               - sum(d for _, d in raw["probes"]))
    if not normalize:
        return (ok / (sum(latencies) + between), latencies,
                [s for s, _ in setups])
    factors = speed_factors(records, raw["probes"])
    latencies = [lat / f for lat, f in zip(latencies, factors)]
    elapsed = sum(latencies) + between / statistics.median(factors)
    return (ok / elapsed, latencies,
            [s * REF_PROBE_S / p for s, p in setups])


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".bytes_written"):
        return "B/op"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    if name.endswith("throughput_ops_per_s"):
        return "1/s"
    return "count/op"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "dehnfill" / "__init__.py").is_file():
        print(f"error: no dehnfill source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    cycles = workloads.generate(args.workload, args.seed)
    ops_path = out / "ops.json"
    ops_path.write_text(workloads.dumps(cycles))

    try:
        setups = [] if args.trace else [
            _worker(["--out", str(out), "--seconds", "0"], deadline)
            for _ in range(SETUP_PROCESSES)]
        raw = _worker(["--ops", str(ops_path), "--out", str(out),
                       "--seconds", str(args.seconds)]
                      + (["--trace"] if args.trace else []), deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [(s["setup_s"], s["setup_probe_s"]) for s in [*setups, raw]]

    records = raw["ops"]
    failures = [(describe(cycles[c][pos]), status, reason)
                for c, pos, _, _, status, reason in records if status != "ok"]
    attempted = len(records)
    raw_throughput, raw_latencies, raw_setup = timings(raw, setups, False)
    throughput, latencies, setup = timings(raw, setups, True)
    p90 = (statistics.quantiles(latencies, n=10)[8]
           if attempted >= P90_MIN_OPS else None)
    if args.trace:
        metrics = {name: (value, _layer_unit(name))
                   for name, value in raw["layers"].items()}
        metrics["traced.throughput_ops_per_s"] = (throughput, "1/s")
    else:
        metrics = {
            "throughput_ops_per_s": (throughput, "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} "
          f"ops in {raw['cycles']} cycles, {raw['elapsed_s']:.3f} s; "
          f"{raw['environment']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':48s} {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    print(f"  {'op_p90_s':48s} "
          + (f"{p90:.6g} s" if p90 is not None
             else f"n/a (fewer than {P90_MIN_OPS} ops)"))
    print(f"  raw (not speed-normalized): throughput {raw_throughput:.6g} "
          f"1/s, op_p50 {statistics.median(raw_latencies):.6g} s, setup "
          f"{statistics.median(raw_setup):.6g} s; speed factor "
          f"{statistics.median(d for _, d in raw['probes']) / REF_PROBE_S:.4g}")
    for desc, status, reason in failures[:MAX_LISTED_FAILURES]:
        print(f"  {status.upper()}: {desc}: {reason}")
    if len(failures) > MAX_LISTED_FAILURES:
        print(f"  ... {len(failures) - MAX_LISTED_FAILURES} more failures "
              f"in {out / f'result-trace{args.trace}.json'}")

    result = {
        "correct": not any(status == "wrong" for _, status, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {
        **result,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fail_ratio": len(failures) / attempted, "op_p90_s": p90,
        "cycles": raw["cycles"], "elapsed_s": raw["elapsed_s"],
        "raw": {"throughput_ops_per_s": raw_throughput,
                "latencies_s": raw_latencies, "setup_s": raw_setup},
        "setup_probes_s": [p for _, p in setups],
        "probes": raw["probes"],
        "environment": raw["environment"],
        "trace_check": raw.get("trace_check"),
        "failures": failures,
        "latencies_s": latencies,
    }
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
