"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

For each workload this runs ``run.py`` with ``--trace 0`` (end-to-end
metrics) and ``--trace 1`` (per-layer metrics), echoes their output,
including every op that failed its gate, and ends with a table of the
end-to-end metrics of all workloads and the tracing overhead (untraced
over traced throughput).  The collected results go to
perfbench/out/report.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}")
    detail = HERE / "out" / f"{workload}-seed{seed}" / f"result-trace{trace}.json"
    return json.loads(detail.read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)

    results = {}
    for workload in workloads.WORKLOADS:
        results[workload] = {
            "untraced": _run(workload, args.seed, args.seconds, 0),
            "traced": _run(workload, args.seed, args.seconds, 1),
        }

    print(f"\nseed {args.seed}, {args.seconds:g} s per run; "
          f"environment {results[workloads.WORKLOADS[0]]['untraced']['environment']}")
    print(f"{'workload':10s} {'metric':24s} {'value':>12s}  unit")
    for workload, res in results.items():
        plain, traced = res["untraced"], res["traced"]
        rows = [(name, m["value"], m["unit"])
                for name, m in plain["metrics"].items()]
        rows.append(("fail_ratio", plain["fail_ratio"],
                     f"({plain['failed']}/{plain['attempted']} ops)"))
        if plain["op_p90_s"] is not None:
            rows.append(("op_p90_s", plain["op_p90_s"], "s"))
        untraced_tp = plain["metrics"]["throughput_ops_per_s"]["value"]
        traced_tp = traced["metrics"]["traced.throughput_ops_per_s"]["value"]
        rows.append(("tracing_overhead", untraced_tp / traced_tp,
                     "untraced/traced throughput"))
        for name, value, unit in rows:
            print(f"{workload:10s} {name:24s} {value:12.6g}  {unit}")
        for desc, status, reason in plain["failures"]:
            print(f"{workload:10s} {status.upper()}: {desc}: {reason}")
    (HERE / "out" / "report.json").write_text(
        json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
