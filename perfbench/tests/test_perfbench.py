"""Tests of the benchmark itself: op generation, output gates, tracing.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _kinds(cycle):
    return sorted((op["kind"], op["argv"][-1] if op["kind"] == "solve"
                   else "") for op in cycle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.dumps(workloads.generate(workload, 7))
    assert first == workloads.dumps(workloads.generate(workload, 7))
    assert first != workloads.dumps(workloads.generate(workload, 8))
    # every cycle has the same composition, whatever the seed
    cycles = workloads.generate(workload, 7) + workloads.generate(workload, 8)
    assert len({json.dumps(_kinds(c)) for c in cycles}) == 1


def test_newton_keeps_the_stall_stratum():
    cycle = workloads.generate("newton", 3)[0]
    large = sorted(float(op["argv"][4]) for op in cycle
                   if op["argv"][-1] == "512")
    assert len(large) == 2 * workloads.NEWTON_STRATA
    assert large[0] < 20.0  # near-floor stalls at N=512 stay in the draw
    assert all(workloads.R_LO <= float(op["argv"][4]) <= workloads.R_HI
               for op in cycle)


def _cli_summary(argv, out_dir):
    from dehnfill import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--out-dir", str(out_dir)])
    assert rc == 0
    return json.loads((out_dir / "summary.json").read_text())


def test_gate_rejects_doctored_solve_summary(tmp_path):
    op = workloads._solve(4, 50.0, 256)
    summary = _cli_summary(op["argv"], tmp_path)
    assert gates.check(op, summary) is None
    for key, value in (("fitted_m", summary["fitted_m"] + 2e-6),
                       ("r_plus", summary["r_plus"] - 2e-6),
                       ("converged", False)):
        assert gates.check(op, {**summary, key: value}) is not None
    assert gates.check(op, None) is not None
    assert gates.check(op, {"converged": True}) is not None


def test_gate_rejects_doctored_survey_summaries(tmp_path):
    rng = workloads.random.Random(0)
    doctored = {
        "scan": lambda s: {**s, "slope": s["slope"] + 0.2},
        "indicial": lambda s: {**s, "roots": {**s["roots"], "jk": [0.0, 0.0]}},
        "lattice": lambda s: {**s, "radii": [s["radii"][0] * (1 + 1e-9)]},
    }
    for kind, doctor in doctored.items():
        op = workloads._survey_op(kind, rng)
        summary = _cli_summary(op["argv"], tmp_path / kind)
        assert gates.check(op, summary) is None, kind
        assert gates.check(op, doctor(summary)) is not None, kind
    op = {"kind": "oracle", "n": 4, "m": 1.0, "npts": 32}
    assert gates.check(op, {"closed_sup": 0.0, "agreement": 1e-9}) is None
    assert gates.check(op, {"closed_sup": 0.0, "agreement": 1e-5}) is not None


def _import_all():
    import dehnfill
    from dehnfill import cli  # noqa: F401

    return {name: mod for name, mod in sys.modules.items()
            if name == "dehnfill" or name.startswith("dehnfill.")}


def test_self_times_sum_within_wall_time(tmp_path):
    modules = _import_all()
    original = modules["dehnfill.numutil"].diff_matrix
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert modules["dehnfill.solver"].diff_matrix is not original
        start = time.perf_counter()
        for i, argv in enumerate((
                ["solve", "--n", "4", "--from-glued", "30",
                 "--grid-size", "64"],
                ["scan", "--n", "4"],
                ["compare", "--n", "4", "--grid-size", "256"])):
            tracer.begin_op(i)
            _cli_summary(argv, tmp_path)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.finish()
    assert modules["dehnfill.solver"].diff_matrix is original
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert 0.0 < sum(own) <= wall
    totals = tracer.layer_totals()
    assert totals["cli.main"][0] == 3
    assert totals["solver.newton_solve"][0] == 1
    assert totals["gluing.decay_scan"][0] == 1
    assert totals["numutil.fornberg_weights"][0] > 0


def test_distinct_ratio_counts_repeats_within_an_op():
    modules = _import_all()
    numutil = modules["dehnfill.numutil"]
    grid = numutil.loggrid(1.0, 10.0, 20)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for op in range(2):
            tracer.begin_op(op)
            numutil.diff_matrix(grid, 1, 5)
            numutil.diff_matrix(grid, 1, 5)
    finally:
        tracer.uninstall()
    tracer.finish()
    calls = tracer.layer_totals()[spans.STENCIL][0]
    assert calls == 80
    assert tracer.distinct == 40


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_normalization_divides_by_the_local_probe_factor():
    import run

    ref = run.REF_PROBE_S
    # two 1 s ops; the machine runs at half speed around the second one
    raw = {"ops": [[0, 0, 0.0, 1.0, "ok", None],
                   [0, 1, 10.0, 1.0, "failed", "exit 3"]],
           "probes": [[-0.1, ref], [9.9, 2 * ref]],
           "elapsed_s": 11.0 + 3 * ref}
    setups = [(0.5, ref), (0.8, 2 * ref)]
    throughput, latencies, setup = run.timings(raw, setups, normalize=False)
    assert latencies == [1.0, 1.0] and setup == [0.5, 0.8]
    assert throughput == pytest.approx(1 / 11.0)
    throughput, latencies, setup = run.timings(raw, setups, normalize=True)
    assert latencies == pytest.approx([1.0, 0.5])
    assert setup == pytest.approx([0.5, 0.4])
    # the 9 s between the ops is scaled by the median factor, 1.5
    assert throughput == pytest.approx(1 / (1.5 + 9.0 / 1.5))
