"""Command-line front end.

Every subcommand resolves its configuration (flags override --config
file values override built-in defaults), runs, and writes three files
under --out-dir: report.csv, summary.json and manifest.json.  The
manifest records the fully resolved configuration so that re-running it
reproduces report.csv and summary.json byte for byte; only the manifest
carries a timestamp.

Exit codes: 0 success, 2 validation failure, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import ricci_and_deficit
from .errors import DehnFillError, LineSearchFailed, MaxItersExceeded
from .gluing import decay_scan
from .lattice import FlatLattice, GeodesicClass, filling_data
from .linearized import (
    BLOCK_LABELS,
    assemble_L_blackhole,
    assemble_L_cusp,
    bump_deformation,
    compare_operators,
    indicial_roots,
)
from .numutil import csv_lines, loggrid
from .profiles import (
    BlackHoleProfile,
    _check_dimension,
    black_hole_metric,
    cusp_metric,
    glued_metric,
    make_glued_profile,
)
from .solver import NewtonConfig, newton_solve

INDICIAL_LABELS = ("11", "12", "1j", "2j", "jk", "diag")

# settings that must be integers wherever they come from; a config-file
# value such as 256.7 is rejected, not truncated
INTEGER_KEYS = ("n", "grid_size", "max_iters", "num_centers")

# --profile value -> (metric from the resolved config and n, operator
# assembled on that metric); the cusp keeps its exact Euler model.
PROFILES = {
    "blackhole": (lambda cfg, n: black_hole_metric(float(cfg["m"]), n),
                  assemble_L_blackhole),
    "cusp": (lambda cfg, n: cusp_metric(n),
             lambda metric: assemble_L_cusp(metric.n)),
    "glued": (lambda cfg, n: glued_metric(float(cfg["R"]), n),
              assemble_L_blackhole),
}


def _parse_grid(text):
    """lo:hi:num, e.g. 1.3:10:64, mapped to a log-spaced grid."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DehnFillError(f"grid must be lo:hi:num, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    num = int(parts[2])
    if not (0 < lo < hi < math.inf) or num < 2:
        raise DehnFillError(
            f"grid must satisfy 0 < lo < hi < inf, num >= 2: {text!r}")
    return loggrid(lo, hi, num)


def _parse_window(text):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise DehnFillError(f"window must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DehnFillError(f"window bounds must be finite: {text!r}")
    if not (0 < lo < hi):
        raise DehnFillError(f"window must satisfy 0 < lo < hi: {text!r}")
    return lo, hi


def _parse_sizes(value):
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).split(",") if tok.strip()]


def _profile_builders(cfg):
    name = cfg["profile"]
    if name not in PROFILES:
        raise DehnFillError(f"unknown profile {name!r}")
    return PROFILES[name]


def _integer(key, value):
    """value as an int; a whole float passes, anything else is an error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DehnFillError(f"{key} must be an integer, got {value!r}")


def _resolve(args, config, defaults):
    """Flags override config-file values override defaults; the integer
    settings and n are checked."""
    resolved = dict(defaults)
    for key in defaults:
        if key in config:
            resolved[key] = config[key]
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
        if key in INTEGER_KEYS:
            resolved[key] = _integer(key, resolved[key])
    _check_dimension(resolved["n"])
    return resolved


def _write_outputs(out_dir, command, cfg, csv_header, csv_rows, summary,
                   input_hashes):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text("\n".join([csv_header, *csv_rows]) + "\n")
    (out / "summary.json").write_text(_json_text(summary))
    manifest = {
        "command": command,
        "config": cfg,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_hashes": input_hashes,
    }
    (out / "manifest.json").write_text(_json_text(manifest))


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_curvature(args, config, input_hashes):
    defaults = {"n": 4, "profile": "blackhole", "m": 1.0, "R": 10.0,
                "grid": "1.3:10:64", "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    grid = _parse_grid(cfg["grid"])
    build_metric, _ = _profile_builders(cfg)
    rep = ricci_and_deficit(build_metric(cfg, n), grid)
    summary = {
        "n": n,
        "profile": cfg["profile"],
        "rows": int(grid.size),
        "max_deficit": rep.deficit_sup,
        "scalar_min": float(np.min(rep.scalar)),
        "scalar_max": float(np.max(rep.scalar)),
    }
    _write_outputs(cfg["out_dir"], "curvature", cfg, rep.CSV_HEADER,
                   rep.csv_rows(), summary, input_hashes)
    print(f"curvature: {grid.size} rows, max deficit {rep.deficit_sup:.3e}")
    return 0


def cmd_scan(args, config, input_hashes):
    defaults = {"n": 4, "sizes": "40,80,160,320,640", "delta": "auto",
                "grid_size": 512, "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    sizes = _parse_sizes(cfg["sizes"])
    if len(sizes) < 5:
        raise DehnFillError(f"need >= 5 sizes for a slope fit, got {len(sizes)}")
    delta = None if cfg["delta"] in (None, "auto") else float(cfg["delta"])
    result = decay_scan(n, sizes, w=delta, grid_size=cfg["grid_size"])
    cfg["delta"] = "auto" if delta is None else delta
    cfg["sizes"] = list(result.sizes)
    rows = csv_lines(result.sizes, result.norms)
    summary = {
        "n": n,
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "expected_slope": result.expected_slope,
    }
    _write_outputs(cfg["out_dir"], "scan", cfg, "size,norm", rows, summary,
                   input_hashes)
    print(f"scan: slope {result.slope:.4f} (expected {result.expected_slope})")
    return 0


def cmd_linearize(args, config, input_hashes):
    defaults = {"n": 4, "profile": "blackhole", "m": 1.0, "R": 10.0,
                "grid": None, "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    build_metric, build_operator = _profile_builders(cfg)
    sys_l = build_operator(build_metric(cfg, n))
    if cfg["grid"] is None:
        r_plus = sys_l.profile.r_plus
        if r_plus is None:
            cfg["grid"] = "0.5:50:64"
        else:
            hi = min(50 * r_plus, 0.999 * sys_l.profile.domain[1])
            cfg["grid"] = f"{1.05 * r_plus:.6g}:{hi:.6g}:64"
    grid = _parse_grid(cfg["grid"])
    c2, c1 = sys_l.a_coefficients(grid)
    off = sys_l.zeroth_offdiag(grid)
    M = sys_l.coupling_diag(grid)
    header = "r,c2,c1,c12,c1j,c2j,cjk,M00,M01,M0j,M11,M1j,Mjj,Mjk"
    # below n=5 there is no second torus direction; the zero keeps Mjj's sign
    mjk = M[:, 2, 3] if n >= 5 else M[:, 2, 2] * 0.0
    rows = csv_lines(grid, c2, c1, off["12"], off["1j"], off["2j"], off["jk"],
                     M[:, 0, 0], M[:, 0, 1], M[:, 0, 2], M[:, 1, 1],
                     M[:, 1, 2], M[:, 2, 2], mjk)
    summary = {
        "n": n,
        "profile": cfg["profile"],
        "indicial_roots": {lbl: list(indicial_roots(lbl, n))
                           for lbl in INDICIAL_LABELS},
    }
    _write_outputs(cfg["out_dir"], "linearize", cfg, header, rows, summary,
                   input_hashes)
    print(f"linearize: {grid.size} coefficient rows")
    return 0


def cmd_indicial(args, config, input_hashes):
    defaults = {"n": 4, "block": "all", "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    labels = INDICIAL_LABELS if cfg["block"] == "all" else (cfg["block"],)
    roots = {lbl: list(indicial_roots(lbl, n)) for lbl in labels}
    rows = [",".join([lbl, *csv_lines(rr)]) for lbl, rr in roots.items()]
    summary = {"n": n, "roots": roots}
    _write_outputs(cfg["out_dir"], "indicial", cfg, "block,roots", rows,
                   summary, input_hashes)
    for lbl, rr in roots.items():
        print(f"indicial {lbl} (n={n}): {tuple(round(x, 7) for x in rr)}")
    return 0


def cmd_compare(args, config, input_hashes):
    defaults = {"n": 4, "m": 1.0, "window": "5:500", "num_centers": 12,
                "grid_size": 4096, "width": 0.4, "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    if cfg["num_centers"] < 3:
        raise DehnFillError(
            f"num_centers must be >= 3 for the slope fit, got {cfg['num_centers']}")
    lo, hi = _parse_window(cfg["window"])
    width = float(cfg["width"])
    if not (math.isfinite(width) and width > 0):
        raise DehnFillError(
            f"bump width must be finite and positive, got {width}")
    # the first and last bump centers sit width inside each end of the
    # window, so the window must be wider than 2*width in log r
    if math.log(hi) - math.log(lo) <= 2 * width:
        raise DehnFillError(
            f"window {lo}:{hi} is too narrow for bumps of width {width}: "
            f"need log(hi/lo) > 2*width = {2 * width}")
    # the operators' coefficients scale like r**2 and r**(3-n)
    with np.errstate(over="ignore", under="ignore"):
        scales = np.array([lo, hi]) ** np.array([[2.0], [3.0 - n]])
    if not np.all(np.isfinite(scales) & (scales != 0)):
        raise DehnFillError(f"window {lo}:{hi} is out of range for n={n}: "
                            f"r**2 and r**{3 - n} must be finite and nonzero")
    centers = np.geomspace(lo * np.exp(width), hi * np.exp(-width),
                           cfg["num_centers"])
    grid = loggrid(lo, hi, cfg["grid_size"])
    h = bump_deformation(n, grid, centers, width=width)
    comp = compare_operators(h, r_window=(lo, hi), m=float(cfg["m"]),
                             bins=cfg["num_centers"])
    kept = comp.bin_max > 0
    rows = csv_lines(comp.bin_centers[kept], comp.bin_max[kept])
    summary = {
        "n": n,
        "slope": comp.slope,
        "intercept": comp.intercept,
        "residual": comp.residual,
        "expected_slope": float(1 - n),
    }
    _write_outputs(cfg["out_dir"], "compare", cfg, "r,diff_max", rows,
                   summary, input_hashes)
    print(f"compare: slope {comp.slope:.4f} (expected {1 - n})")
    return 0


def cmd_solve(args, config, input_hashes):
    defaults = {"n": 4, "from_glued": None, "from_blackhole": None,
                "tol": 5e-11, "max_iters": 30, "grid_size": 256,
                "r_out": None, "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    if cfg["from_glued"] is not None and cfg["from_blackhole"] is not None:
        raise DehnFillError("give only one of --from-glued / --from-blackhole")
    if cfg["from_glued"] is not None:
        initial = make_glued_profile(float(cfg["from_glued"]), n)
    elif cfg["from_blackhole"] is not None:
        initial = BlackHoleProfile(m=float(cfg["from_blackhole"]), n=n)
    else:
        raise DehnFillError("need --from-glued R or --from-blackhole m")
    ncfg = NewtonConfig(max_iters=cfg["max_iters"],
                        residual_tol=float(cfg["tol"]),
                        grid_size=cfg["grid_size"],
                        r_out=None if cfg["r_out"] is None
                        else float(cfg["r_out"]))
    try:
        result = newton_solve(initial, n, ncfg)
        failure = None
    except (MaxItersExceeded, LineSearchFailed) as exc:
        result = exc.result
        failure = str(exc)
    summary = result.to_dict()
    if failure is not None:
        summary["error"] = failure
    prof = result.profile
    rows = csv_lines(prof.grid, prof.values)
    _write_outputs(cfg["out_dir"], "solve", cfg, "r,V", rows, summary,
                   input_hashes)
    if failure is not None:
        print(f"solve failed: {failure}", file=sys.stderr)
        return 3
    print(f"solve: m={result.fitted_m:.9f} r_plus={result.r_plus:.9f} "
          f"iters={result.iterations}")
    return 0


def cmd_lattice(args, config, input_hashes):
    defaults = {"n": 4, "cusp": None, "out_dir": "."}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    raw = cfg["cusp"]
    if raw is None:
        raise DehnFillError("need at least one --cusp '{\"basis\":..,\"sigma\":..}'")
    if isinstance(raw, (str, dict)):
        raw = [raw]
    cusps = []
    parsed = []
    for item in raw:
        d = json.loads(item) if isinstance(item, str) else item
        parsed.append(d)
        lat = FlatLattice(np.asarray(d["basis"], dtype=float))
        sig = GeodesicClass(tuple(d["sigma"]))
        sig.check_primitive(strict=False)
        cusps.append((lat, sig))
    cfg["cusp"] = parsed
    data = filling_data(cusps, n)
    rows = [f"{i},{line}" for i, line in
            enumerate(csv_lines(data.lengths, data.radii))]
    summary = {
        "n": n,
        "lengths": list(data.lengths),
        "radii": list(data.radii),
        "size": data.size,
        "two_pi_ok": data.two_pi_ok,
        "beta1": data.beta1,
    }
    _write_outputs(cfg["out_dir"], "lattice", cfg, "cusp,length,radius", rows,
                   summary, input_hashes)
    print(f"lattice: size {data.size:.6g}, two_pi_ok={data.two_pi_ok}")
    return 0


def _add_common(sub):
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--config")
    sub.add_argument("--n", type=int)


@functools.cache
def build_parser():
    """The `dehnfill` argument parser, built once per process.

    The parser is shared by every `main` call, so callers must not mutate
    it.  Each parse_args call returns a fresh Namespace, and the one
    list-valued flag (lattice --cusp, default None) gets a new list each
    time, so no state carries over from one call to the next."""
    ap = argparse.ArgumentParser(
        prog="dehnfill",
        description="Numerical toolkit for Dehn-filled approximate Einstein "
                    "metrics on solid tori",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("curvature", help="curvature report along a profile")
    _add_common(p)
    p.add_argument("--profile", choices=list(PROFILES))
    p.add_argument("--m", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--grid")
    p.set_defaults(func=cmd_curvature)

    p = sp.add_parser("scan", help="deficit-norm decay scan")
    _add_common(p)
    p.add_argument("--sizes")
    p.add_argument("--delta")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=cmd_scan)

    p = sp.add_parser("linearize", help="operator coefficient tables")
    _add_common(p)
    p.add_argument("--profile", choices=list(PROFILES))
    p.add_argument("--m", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--grid")
    p.set_defaults(func=cmd_linearize)

    p = sp.add_parser("indicial", help="indicial roots of the cusp model")
    _add_common(p)
    p.add_argument("--block")
    p.set_defaults(func=cmd_indicial)

    p = sp.add_parser("compare", help="cusp vs black-hole operator decay")
    _add_common(p)
    p.add_argument("--m", type=float)
    p.add_argument("--window")
    p.add_argument("--num-centers", dest="num_centers", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--width", type=float)
    p.set_defaults(func=cmd_compare)

    p = sp.add_parser("solve", help="Newton solve to an Einstein profile")
    _add_common(p)
    p.add_argument("--from-glued", dest="from_glued", type=float)
    p.add_argument("--from-blackhole", dest="from_blackhole", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--r-out", dest="r_out", type=float)
    p.set_defaults(func=cmd_solve)

    p = sp.add_parser("lattice", help="filling data from lattices")
    _add_common(p)
    p.add_argument("--cusp", action="append")
    p.set_defaults(func=cmd_lattice)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    config = {}
    input_hashes = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            print(f"error: config file {path} not found", file=sys.stderr)
            return 2
        blob = path.read_bytes()
        input_hashes["config"] = hashlib.sha256(blob).hexdigest()
        try:
            config = json.loads(blob)
        except json.JSONDecodeError as exc:
            print(f"error: bad config JSON: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args, config, input_hashes)
    except (MaxItersExceeded, LineSearchFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DehnFillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
