"""Seeded operation lists for the three workloads.

An operation is a JSON-ready dict: ``kind`` names it, ``n`` is the
dimension, CLI operations carry ``argv`` for ``dehnfill.cli.main`` and
the rest of the keys are what the output gate needs.  Operations come in
cycles of fixed composition; only the values inside a cycle and its
order depend on the seed.  The runner executes whole cycles, so every run
holds the same mix and its latency percentiles fall inside one kind of
operation instead of on the edge between two.

This module imports only the standard library, so the op list can be
written before numpy is loaded.
"""

import json
import math
import random

WORKLOADS = ("newton", "operator", "survey")

# newton: solve --from-glued R at n in {4, 5}.  Each radius stratum gets one
# N=512 solve per n at the stratum's log-midpoint, so every run holds the
# same near-floor stalls (the lowest stratum) instead of a seed-dependent
# number of them; the two N=256 solves per N=512 one draw R log-uniform.
# With N=256 the majority, the median latency sits inside the N=256 band.
R_LO, R_HI = 15.0, 100.0
NEWTON_STRATA = 4
NEWTON_SMALL_PER_LARGE = 2

# operator: compare at the default window; a cycle holds each grid size and
# each n once, in seeded pairing and order.
OPERATOR_SIZES = (1024, 2048, 4096)
OPERATOR_NS = (4, 5, 6)

# survey: cheap closed-form paths.  Scan and the oracle check are the two
# slowest kinds and together make up a quarter of a cycle, so the 90th
# percentile lands inside them.
SURVEY_CYCLE = ("scan", "scan", "oracle", "curvature", "curvature",
                "linearize", "linearize", "indicial", "lattice", "lattice",
                "oracle", "curvature")

CYCLES = {"newton": 16, "operator": 64, "survey": 1024}


def _fmt(x):
    return f"{x:.6g}"


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cli(kind, n, flags, **gate):
    return {"kind": kind, "n": n, "argv": [kind, "--n", str(n), *flags],
            **gate}


def _solve(n, R, grid_size):
    return _cli("solve", n, ["--from-glued", _fmt(R),
                             "--grid-size", str(grid_size)])


def newton_cycle(rng):
    ops = []
    log_lo, log_hi = math.log(R_LO), math.log(R_HI)
    for n in (4, 5):
        for k in range(NEWTON_STRATA):
            t = (k + 0.5) / NEWTON_STRATA
            ops.append(_solve(n, math.exp(log_lo + t * (log_hi - log_lo)),
                              512))
            for _ in range(NEWTON_SMALL_PER_LARGE):
                ops.append(_solve(n, _log_uniform(rng, R_LO, R_HI), 256))
    rng.shuffle(ops)
    return ops


def operator_cycle(rng):
    sizes = list(OPERATOR_SIZES)
    ns = list(OPERATOR_NS)
    rng.shuffle(sizes)
    rng.shuffle(ns)
    return [_cli("compare", n, ["--grid-size", str(size)])
            for n, size in zip(ns, sizes)]


def _r_plus(m, n):
    return (2.0 * m) ** (1.0 / (n - 1))


def _survey_op(kind, rng):
    if kind == "scan":
        n = rng.choice((3, 4, 5, 6))
        lo = _log_uniform(rng, 40.0, 80.0)
        sizes = ",".join(_fmt(lo * 2.0**k) for k in range(5))
        return _cli("scan", n, ["--sizes", sizes, "--grid-size",
                                str(rng.choice((256, 512)))])
    if kind == "curvature":
        n = rng.choice((3, 4, 5, 6))
        profile = rng.choice(("blackhole", "cusp", "glued"))
        if profile == "blackhole":
            m = _log_uniform(rng, 0.5, 2.0)
            rp = _r_plus(m, n)
            flags = ["--m", _fmt(m), "--grid", f"{_fmt(1.05 * rp)}:"
                     f"{_fmt(50.0 * rp)}:64"]
        elif profile == "cusp":
            flags = ["--grid", f"{_fmt(rng.uniform(0.5, 2.0))}:50:64"]
        else:
            R = _log_uniform(rng, R_LO, R_HI)
            flags = ["--R", _fmt(R), "--grid",
                     f"{_fmt(1.05 * _r_plus(1.0, n))}:{_fmt(0.99 * R)}:64"]
        return _cli("curvature", n, ["--profile", profile, *flags],
                    profile=profile)
    if kind == "linearize":
        n = rng.choice((3, 4, 5, 6))
        profile = rng.choice(("blackhole", "cusp", "glued"))
        flags = {"blackhole": ["--m", _fmt(_log_uniform(rng, 0.5, 2.0))],
                 "cusp": [],
                 "glued": ["--R", _fmt(_log_uniform(rng, R_LO, R_HI))]}
        return _cli("linearize", n, ["--profile", profile, *flags[profile]])
    if kind == "indicial":
        return _cli("indicial", rng.randint(3, 8), [])
    if kind == "lattice":
        n = rng.choice((3, 4, 5))
        k = n - 1
        basis = [[round(rng.uniform(4.0, 12.0), 3) if i == j
                  else round(rng.uniform(-1.0, 1.0), 3) for j in range(k)]
                 for i in range(k)]
        sigma = [1] + [rng.randint(-2, 2) for _ in range(k - 1)]
        cusp = json.dumps({"basis": basis, "sigma": sigma})
        return _cli("lattice", n, ["--cusp", cusp], basis=basis, sigma=sigma)
    if kind == "oracle":
        return {"kind": "oracle", "n": rng.choice((4, 5, 6)),
                "m": _log_uniform(rng, 0.5, 2.0), "npts": 32}
    raise ValueError(f"unknown survey op {kind!r}")


def survey_cycle(rng):
    ops = [_survey_op(kind, rng) for kind in SURVEY_CYCLE]
    rng.shuffle(ops)
    return ops


_CYCLE = {"newton": newton_cycle, "operator": operator_cycle,
          "survey": survey_cycle}


def generate(workload, seed):
    """The op list of a run: a list of cycles, each a list of ops."""
    if workload not in _CYCLE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return [_CYCLE[workload](rng) for _ in range(CYCLES[workload])]


def dumps(cycles):
    """Canonical JSON text of an op list (byte-identical per seed)."""
    return json.dumps(cycles, sort_keys=True, indent=1) + "\n"
