"""Command-line front end.

Every subcommand resolves its configuration (flags override --config
file values override built-in defaults), runs, and writes three files
under --out-dir: report.csv, summary.json and manifest.json.  The
manifest records the fully resolved configuration so that re-running it
reproduces report.csv and summary.json byte for byte; only the manifest
carries a timestamp.

Each subcommand is declared once, in COMMANDS; each key k of its
defaults is both a config-file key and the flag --k, with _ written as -.

Exit codes: 0 success, 2 validation failure, 3 numerical
non-convergence: a solve that stops short returns its best iterate,
which is written as usual, with the reason as summary.json's "error".
Exit 2 also covers a --config file that cannot be read (a directory,
say), is not JSON or does not hold a JSON object, a config value of the
wrong JSON type or an integer too large for a float, a --cusp that is
not an object with a basis and a sigma list, and an --out-dir that
cannot be created or written (an existing file, a path under a file).

main hands a named command's arguments to that command's own parser;
the top-level parser sees only what names no command (no arguments, -h,
an unknown command).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# the command modules are used through the package's lazy placeholders,
# so a command runs only the modules it calls
from . import __version__, curvature, gluing, lattice, linearized
from .errors import DehnFillError
from .numutil import _is_finite_real, _is_real, csv_lines, loggrid
from .profiles import (
    BlackHoleProfile,
    GluedProfile,
    _check_dimension,
    black_hole_metric,
    cusp_metric,
    glued_metric,
)
from .solver import NewtonConfig, newton_solve

INDICIAL_LABELS = ("11", "12", "1j", "2j", "jk", "diag")

# settings that must be integers wherever they come from; a config-file
# value such as 256.7 is rejected, not truncated
INTEGER_KEYS = ("n", "grid_size", "max_iters", "num_centers")

# settings whose flag parses as a float; a config-file value must be a
# number or a string, passed on as given and converted where it is used
FLOAT_KEYS = ("m", "R", "width", "from_glued", "from_blackhole", "tol",
              "r_out")

# --profile value -> metric from the resolved config and n; the cusp
# V = r^2 is a profile like the others, and its operator is the same
# function of it
PROFILES = {
    "blackhole": lambda cfg, n: black_hole_metric(float(cfg["m"]), n),
    "cusp": lambda cfg, n: cusp_metric(n),
    "glued": lambda cfg, n: glued_metric(float(cfg["R"]), n),
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
        if not all(_is_real(v) or isinstance(v, str) for v in value):
            raise DehnFillError(f"sizes must be numbers, got {value!r}")
        for v in value:
            _check_fits_float("sizes", v)
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).split(",") if tok.strip()]


def _metric(cfg, n):
    name = cfg["profile"]
    if not (isinstance(name, str) and name in PROFILES):
        raise DehnFillError(f"unknown profile {name!r}")
    return PROFILES[name](cfg, n)


def _check_fits_float(key, value):
    """Reject an int too large for a float, where float() would raise
    OverflowError."""
    if isinstance(value, int) and not _is_finite_real(value):
        raise DehnFillError(f"{key} is an integer too large for a float "
                            f"({len(str(value))} digits)")


def _integer(key, value):
    """value as an int; a whole float passes, anything else is an error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DehnFillError(f"{key} must be an integer, got {value!r}")


def _resolve(args, config, defaults):
    """Flags override config-file values override defaults; the integer
    settings and n are checked, and so are the types of the float
    settings (a number or a string, or None where that is the default; an
    int must fit in a float), of scan's delta (a number, a string or
    None; the same) and of out_dir (a string)."""
    resolved = dict(defaults)
    for key, default in defaults.items():
        if key in config:
            resolved[key] = config[key]
        cli_val = getattr(args, key)
        if cli_val is not None:
            resolved[key] = cli_val
        value = resolved[key]
        if key in INTEGER_KEYS:
            resolved[key] = _integer(key, value)
        elif key in FLOAT_KEYS or key == "delta":
            # scan reads a None delta as its default, "auto"
            nullable = default is None or key == "delta"
            if not (_is_real(value) or isinstance(value, str)
                    or value is None and nullable):
                raise DehnFillError(
                    f"{key} must be a number or a string, got {value!r}")
            _check_fits_float(key, value)
    if not isinstance(resolved["out_dir"], str):
        raise DehnFillError(
            f"out_dir must be a string, got {resolved['out_dir']!r}")
    _check_dimension(resolved["n"])
    return resolved


def _write(path, text):
    """Write text to path as open(path, "w") writes the ASCII outputs:
    created with mode 0o666 less the umask, or truncated, then one
    os.write of the encoded text, repeated only for what a short write
    left."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_outputs(command, cfg, csv_header, csv_rows, summary, input_hashes):
    # "" is the working directory; an existing directory is only stat'ed,
    # where makedirs(exist_ok=True) would try mkdir and catch its error
    out = cfg["out_dir"]
    if out and not os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
    _write(os.path.join(out, "report.csv"),
           "\n".join([csv_header, *csv_rows]) + "\n")
    manifest = {
        "command": command,
        "config": cfg,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_hashes": input_hashes,
    }
    for name, obj in (("summary.json", summary), ("manifest.json", manifest)):
        _write(os.path.join(out, name),
               json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_curvature(cfg):
    n = cfg["n"]
    grid = _parse_grid(cfg["grid"])
    rep = curvature.ricci_and_deficit(_metric(cfg, n), grid)
    summary = {
        "n": n,
        "profile": cfg["profile"],
        "rows": int(grid.size),
        "max_deficit": rep.deficit_sup,
        "scalar_min": float(np.min(rep.scalar)),
        "scalar_max": float(np.max(rep.scalar)),
    }
    return (rep.CSV_HEADER, rep.csv_rows(), summary,
            f"curvature: {grid.size} rows, max deficit {rep.deficit_sup:.3e}")


def cmd_scan(cfg):
    n = cfg["n"]
    sizes = _parse_sizes(cfg["sizes"])
    delta = None if cfg["delta"] in (None, "auto") else float(cfg["delta"])
    result = gluing.decay_scan(n, sizes, w=delta, grid_size=cfg["grid_size"])
    cfg["delta"] = "auto" if delta is None else delta
    cfg["sizes"] = list(result.sizes)
    summary = {"n": n, "slope": result.slope, "intercept": result.intercept,
               "residual": result.residual,
               "expected_slope": result.expected_slope}
    return ("size,norm", csv_lines(result.sizes, result.norms), summary,
            f"scan: slope {result.slope:.4f} (expected {result.expected_slope})")


def cmd_linearize(cfg):
    n = cfg["n"]
    profile = _metric(cfg, n).profile
    if cfg["grid"] is None:
        r_plus = profile.r_plus
        if r_plus is None:
            cfg["grid"] = "0.5:50:64"
        else:
            hi = min(50 * r_plus, 0.999 * profile.domain[1])
            cfg["grid"] = f"{1.05 * r_plus:.6g}:{hi:.6g}:64"
    grid = _parse_grid(cfg["grid"])
    C = linearized.operator_coefficients(profile, grid)
    header = ",".join(("r", *linearized.COEFFICIENTS, "Mjk"))
    # Mjk = Mjj; below n=5 there is no second torus direction, and the
    # zero keeps Mjj's sign
    rows = csv_lines(grid, *C, C[-1] if n >= 5 else C[-1] * 0.0)
    summary = {
        "n": n,
        "profile": cfg["profile"],
        "indicial_roots": {lbl: list(linearized.indicial_roots(lbl, n))
                           for lbl in INDICIAL_LABELS},
    }
    return header, rows, summary, f"linearize: {grid.size} coefficient rows"


def cmd_indicial(cfg):
    n = cfg["n"]
    labels = INDICIAL_LABELS if cfg["block"] == "all" else (cfg["block"],)
    roots = {lbl: list(linearized.indicial_roots(lbl, n)) for lbl in labels}
    rows = [",".join([lbl, *csv_lines(rr)]) for lbl, rr in roots.items()]
    message = "\n".join(f"indicial {lbl} (n={n}): "
                        f"{tuple(round(x, 7) for x in rr)}"
                        for lbl, rr in roots.items())
    return "block,roots", rows, {"n": n, "roots": roots}, message


def cmd_compare(cfg):
    n = cfg["n"]
    if cfg["num_centers"] < 3:
        raise DehnFillError(
            f"num_centers must be >= 3 for the slope fit, got {cfg['num_centers']}")
    # one bump and one envelope bin per center; the bumps' gather grows
    # as centers times grid points
    if cfg["num_centers"] > cfg["grid_size"]:
        raise DehnFillError(
            f"num_centers must be at most grid_size = {cfg['grid_size']}, "
            f"got {cfg['num_centers']}")
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
    centers = loggrid(lo * np.exp(width), hi * np.exp(-width),
                      cfg["num_centers"])
    grid = loggrid(lo, hi, cfg["grid_size"])
    comp = linearized.compare_operators(
        n, grid, centers, width=width, r_window=(lo, hi), m=float(cfg["m"]),
        bins=cfg["num_centers"])
    kept = comp.bin_max > 0
    # a NaN or infinite fit would not even be valid JSON in summary.json
    if not all(map(math.isfinite, (comp.slope, comp.intercept, comp.residual))):
        raise DehnFillError(
            f"no finite decay fit for n={n} on the window {lo}:{hi}: "
            f"{int(kept.sum())} of {kept.size} bins have a nonzero operator "
            "difference (a fit needs 3)")
    summary = {"n": n, "slope": comp.slope, "intercept": comp.intercept,
               "residual": comp.residual, "expected_slope": float(1 - n)}
    return ("r,diff_max", csv_lines(comp.bin_centers[kept], comp.bin_max[kept]),
            summary, f"compare: slope {comp.slope:.4f} (expected {1 - n})")


def cmd_solve(cfg):
    n = cfg["n"]
    if cfg["from_glued"] is not None and cfg["from_blackhole"] is not None:
        raise DehnFillError("give only one of --from-glued / --from-blackhole")
    if cfg["from_glued"] is not None:
        initial = GluedProfile(float(cfg["from_glued"]), n)
    elif cfg["from_blackhole"] is not None:
        initial = BlackHoleProfile(m=float(cfg["from_blackhole"]), n=n)
    else:
        raise DehnFillError("need --from-glued R or --from-blackhole m")
    ncfg = NewtonConfig(max_iters=cfg["max_iters"],
                        residual_tol=float(cfg["tol"]),
                        grid_size=cfg["grid_size"],
                        r_out=None if cfg["r_out"] is None
                        else float(cfg["r_out"]))
    result = newton_solve(initial, ncfg)
    summary = result.to_dict()
    rows = csv_lines(result.profile.grid, result.profile.values)
    if not result.converged:
        return "r,V", rows, summary, f"solve failed: {result.error}"
    return "r,V", rows, summary, (
        f"solve: m={result.fitted_m:.9f} r_plus={result.r_plus:.9f} "
        f"iters={result.iterations}")


def cmd_lattice(cfg):
    n = cfg["n"]
    raw = cfg["cusp"]
    if raw is None:
        raise DehnFillError("need at least one --cusp '{\"basis\":..,\"sigma\":..}'")
    if not isinstance(raw, list):
        raw = [raw]
    cusps = []
    parsed = []
    for k, item in enumerate(raw):
        d = json.loads(item) if isinstance(item, str) else item
        if not isinstance(d, dict):
            raise DehnFillError(f"cusp {k} must be a JSON object with a basis "
                                f"and a sigma list, got {d!r}")
        for key in ("basis", "sigma"):
            if key not in d:
                raise DehnFillError(f"cusp {k} has no {key!r}: {d!r}")
        if not isinstance(d["sigma"], list):
            raise DehnFillError(
                f"cusp {k}'s sigma must be a list, got {d['sigma']!r}")
        parsed.append(d)
        lat = lattice.FlatLattice(d["basis"])
        sig = lattice.GeodesicClass(tuple(d["sigma"]))
        sig.check_primitive(strict=False)
        cusps.append((lat, sig))
    cfg["cusp"] = parsed
    data = lattice.filling_data(cusps, n)
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
    return ("cusp,length,radius", rows, summary,
            f"lattice: size {data.size:.6g}, two_pi_ok={data.two_pi_ok}")


# name -> (command, help, defaults).  A command takes the resolved config
# (main adds out_dir = "." to the defaults), may fill in settings it
# derived so that the manifest echoes what ran, and returns (csv_header,
# csv_rows, summary, message).  A summary with an "error" entry is a
# failed solve: main still writes the files, then exits 3.
COMMANDS = {
    "curvature": (cmd_curvature, "curvature report along a profile",
                  {"n": 4, "profile": "blackhole", "m": 1.0, "R": 10.0,
                   "grid": "1.3:10:64"}),
    "scan": (cmd_scan, "deficit-norm decay scan",
             {"n": 4, "sizes": "40,80,160,320,640", "delta": "auto",
              "grid_size": 512}),
    "linearize": (cmd_linearize, "operator coefficient tables",
                  {"n": 4, "profile": "blackhole", "m": 1.0, "R": 10.0,
                   "grid": None}),
    "indicial": (cmd_indicial, "indicial roots of the cusp model",
                 {"n": 4, "block": "all"}),
    "compare": (cmd_compare, "cusp vs black-hole operator decay",
                {"n": 4, "m": 1.0, "window": "5:500", "num_centers": 12,
                 "grid_size": 4096, "width": 0.4}),
    "solve": (cmd_solve, "Newton solve to an Einstein profile",
              {"n": 4, "from_glued": None, "from_blackhole": None,
               "tol": NewtonConfig.residual_tol,
               "max_iters": NewtonConfig.max_iters,
               "grid_size": NewtonConfig.grid_size,
               "r_out": NewtonConfig.r_out}),
    "lattice": (cmd_lattice, "filling data from lattices",
                {"n": 4, "cusp": None}),
}

# how a flag parses its value; any other flag takes the string as given
_FLAG_OPTIONS = {
    **{key: {"type": int} for key in INTEGER_KEYS},
    **{key: {"type": float} for key in FLOAT_KEYS},
    "profile": {"choices": list(PROFILES)},
    "cusp": {"action": "append"},
}


@functools.cache
def build_parser():
    """The `dehnfill` argument parser and a name -> parser map of its
    subcommands, built once per process from COMMANDS.  Each subcommand
    parser sets `command` to its name, so it can parse a command's
    arguments alone.

    The parsers are shared by every `main` call, so callers must not
    mutate them.  Each parse_args call returns a fresh Namespace, and the
    one list-valued flag (lattice --cusp, default None) gets a new list
    each time, so no state carries over from one call to the next.  Flags
    must be spelled out in full: an abbreviation such as solve --m (for
    --max-iters) is an error, not a silent match."""
    ap = argparse.ArgumentParser(
        prog="dehnfill",
        description="Numerical toolkit for Dehn-filled approximate Einstein "
                    "metrics on solid tori",
        allow_abbrev=False,
    )
    sp = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, defaults) in COMMANDS.items():
        p = commands[name] = sp.add_parser(name, help=help_text,
                                           allow_abbrev=False)
        p.set_defaults(command=name)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--config")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"),
                           **_FLAG_OPTIONS.get(key, {}))
    return ap, commands


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    ap, commands = build_parser()
    # a named command's own parser takes its arguments in one pass; the
    # top-level parser handles the rest (no arguments, -h, a bad command)
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
    else:
        args = ap.parse_args(argv)
    command, _, defaults = COMMANDS[args.command]
    config = {}
    input_hashes = {}
    if args.config:
        path = Path(args.config)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            print(f"error: config file {path} not found", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # only here: importing hashlib loads OpenSSL's libcrypto
        import hashlib

        input_hashes["config"] = hashlib.sha256(blob).hexdigest()
        try:
            config = json.loads(blob)
        except ValueError as exc:
            # a JSONDecodeError, or an integer of more digits than int()
            # converts
            print(f"error: bad config JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print(f"error: config file {path} must hold a JSON object, "
                  f"not {type(config).__name__}", file=sys.stderr)
            return 2
    try:
        cfg = _resolve(args, config, {**defaults, "out_dir": "."})
        csv_header, rows, summary, message = command(cfg)
        _write_outputs(args.command, cfg, csv_header, rows, summary,
                       input_hashes)
    except (ValueError, KeyError, OSError) as exc:
        # every DehnFillError is a ValueError; an OSError comes from an
        # --out-dir that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "error" in summary:
        print(message, file=sys.stderr)
        return 3
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
