"""One measured process of a benchmark run.

Pins the BLAS thread pools to one thread before numpy is imported, then
times the set-up (importing dehnfill from the checkout's ``src`` plus one
fixed warm-up op).  With ``--seconds 0`` it stops there; otherwise it runs
whole cycles of the op list through ``dehnfill.cli.main`` in-process, one
op after another, checks each output against its gate, times the speed
probe between ops, and prints one JSON line of raw measurements for
``run.py``.

    python3 perfbench/worker.py --ops OPS.json --out DIR --seconds S [--trace]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import spans  # noqa: E402

WARMUP = ["solve", "--n", "4", "--from-glued", "30", "--grid-size", "64"]
OUTPUTS = ("report.csv", "summary.json", "manifest.json")
# the speed probe runs between ops at least this often, and this many times
# right after set-up
PROBE_EVERY_S = 0.25
SETUP_PROBES = 5


def probe():
    """Time a fixed pure-Python loop: it tracks the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - start


def _environment(np, scipy):
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"].get("version")
        except (TypeError, KeyError, AttributeError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Runs ops in one reused output directory and gates their results."""

    def __init__(self, cli, out_dir, tracer=None):
        self.cli = cli
        self.out_dir = out_dir
        self.tracer = tracer
        self.bytes_written = 0
        self.iterations = 0
        out_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _oracle(op):
        # module attributes are looked up per call, so traced wrappers apply
        import numpy as np
        from dehnfill import curvature, numutil, profiles

        metric = profiles.black_hole_metric(op["m"], op["n"])
        rp = metric.profile.r_plus
        grid = numutil.loggrid(1.05 * rp, 50.0 * rp, op["npts"])
        closed = curvature.ricci_and_deficit(metric, grid).deficit_diag
        oracle = curvature.fd_curvature_oracle(metric, grid)["deficit_diag"]
        return {"closed_sup": float(np.max(np.abs(closed))),
                "agreement": float(np.max(np.abs(oracle - closed)))}

    def call_cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.cli.main([*argv, "--out-dir", str(self.out_dir)])
        lines = sink.getvalue().strip().splitlines()
        return rc, lines[-1] if lines else ""

    def run(self, op):
        """(start, latency_s, status, reason); status ok | failed | wrong."""
        for name in OUTPUTS:
            (self.out_dir / name).unlink(missing_ok=True)
        summary = None
        start = time.perf_counter()
        try:
            if op["kind"] == "oracle":
                summary = self._oracle(op)
                rc, message = 0, ""
            else:
                rc, message = self.call_cli(op["argv"])
        except Exception:  # an uncaught error is the CLI's exit 1
            rc, message = 1, traceback.format_exc().strip().splitlines()[-1]
        latency = time.perf_counter() - start
        if op["kind"] != "oracle":
            try:
                summary = json.loads((self.out_dir / "summary.json").read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                summary = None
            if self.tracer is not None:
                self.bytes_written += sum(
                    (self.out_dir / name).stat().st_size
                    for name in OUTPUTS if (self.out_dir / name).exists())
        if op["kind"] == "solve" and summary is not None:
            self.iterations += int(summary.get("iters", 0))
        if rc != 0:
            return start, latency, "failed", f"exit {rc}: {message}"
        reason = gates.check(op, summary)
        if reason is not None:
            return start, latency, "wrong", reason
        return start, latency, "ok", None


def _layers(tracer, runner, num_ops, elapsed):
    totals = tracer.layer_totals()
    out = {}
    for name, (calls, own) in totals.items():
        out[f"{name}.calls"] = calls / num_ops
        out[f"{name}.self_s"] = own / num_ops
    calls = totals[spans.STENCIL][0]
    out[f"{spans.STENCIL}.distinct_ratio"] = (
        tracer.distinct / calls if calls else 0.0)
    out["solver.newton_solve.iterations"] = runner.iterations / num_ops
    out["cli.main.bytes_written"] = runner.bytes_written / num_ops
    self_sum = sum(own for _, own in totals.values())
    return out, {"self_s_sum": self_sum, "wall_s": elapsed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dehnfill
    from dehnfill import cli

    if Path(dehnfill.__file__).resolve().parent != (SRC / "dehnfill").resolve():
        print(f"error: imported dehnfill from {dehnfill.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    warm = Runner(cli, out / "warmup")
    rc, message = warm.call_cli(WARMUP)
    setup_s = time.perf_counter() - start
    if rc != 0:
        print(f"error: warm-up op failed with exit {rc}: {message}",
              file=sys.stderr)
        return 2
    setup_probe_s = sorted(probe() for _ in range(SETUP_PROBES))[
        SETUP_PROBES // 2]
    if args.seconds <= 0:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    import numpy
    import scipy

    cycles = json.loads(Path(args.ops).read_text())
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name == "dehnfill" or name.startswith("dehnfill.")})
    runner = Runner(cli, out / "op", tracer)
    records = []
    probes = []
    done = 0
    t0 = time.perf_counter()
    last_probe = float("-inf")
    while True:
        for pos, op in enumerate(cycles[done % len(cycles)]):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = time.perf_counter()
                probes.append([last_probe - t0, probe()])
            if tracer is not None:
                tracer.begin_op(len(records))
            start, *outcome = runner.run(op)
            records.append([done % len(cycles), pos, start - t0, *outcome])
        done += 1
        elapsed = time.perf_counter() - t0
        # start another whole cycle only if an average one still fits
        if elapsed * (done + 1) / done > args.seconds:
            break
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "probes": probes,
        "elapsed_s": elapsed,
        "cycles": done,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": _environment(numpy, scipy),
    }
    if tracer is not None:
        tracer.finish()
        tracer.uninstall()
        result["layers"], result["trace_check"] = _layers(
            tracer, runner, len(records), elapsed)
        tracer.write(out / "spans.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
