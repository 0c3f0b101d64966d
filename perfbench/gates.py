"""Output gates: each op's result is checked against the paper's bounds.

``check(op, summary)`` returns None when the output is within its bound
and a one-line reason otherwise.  It is called only for ops that exited
0; a nonzero exit is a failure the program reported itself.
"""

import math

# criterion 6: Newton recovers the unit-mass black hole
SOLVE_TOL = 1e-6
# criteria 3 and 4: decay slopes within 0.1 of 1 - n
SLOPE_TOL = 0.1
# criterion 1: closed-form exactness and FD-oracle agreement
EXACT_TOL = 1e-10
ORACLE_TOL = 1e-6
# closed-form lattice data, relative
LATTICE_RTOL = 1e-12


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _solve(op, s):
    n = op["n"]
    if s.get("converged") is not True:
        return "not converged"
    dm = abs(s["fitted_m"] - 1.0)
    drp = abs(s["r_plus"] - 2.0 ** (1.0 / (n - 1)))
    if not (dm <= SOLVE_TOL and drp <= SOLVE_TOL):
        return f"|m-1|={dm:.3e} |r_plus-r_plus(1)|={drp:.3e} > {SOLVE_TOL}"
    return None


def _slope(op, s):
    dev = abs(s["slope"] - (1 - op["n"]))
    if not dev <= SLOPE_TOL:
        return f"slope {s['slope']:.4f} off 1-n by {dev:.3e} > {SLOPE_TOL}"
    return None


def _curvature(op, s):
    if s["rows"] != 64 or not math.isfinite(s["max_deficit"]):
        return f"rows {s['rows']}, max deficit {s['max_deficit']}"
    if op["profile"] == "glued":
        return None
    n = op["n"]
    dev = max(abs(s["scalar_min"] + n * (n - 1)),
              abs(s["scalar_max"] + n * (n - 1)))
    if not (s["max_deficit"] <= EXACT_TOL and dev <= EXACT_TOL):
        return (f"Einstein profile: deficit {s['max_deficit']:.3e}, "
                f"scalar dev {dev:.3e} > {EXACT_TOL}")
    return None


def _roots(n, roots):
    # criterion 5: the torus blocks have closed-form indicial roots
    want = {"jk": (0.0, 1.0 - n), "1j": (1.0, -float(n))}
    for label, expected in want.items():
        got = roots.get(label)
        if got is None or len(got) != 2 or not all(
                abs(g - e) <= EXACT_TOL for g, e in zip(got, expected)):
            return f"indicial roots {label}: {got} != {list(expected)}"
    return None


def _lattice(op, s):
    n = op["n"]
    basis, sigma = op["basis"], op["sigma"]
    vec = [sum(row[j] * sigma[j] for j in range(len(sigma))) for row in basis]
    length = math.sqrt(sum(v * v for v in vec))
    beta1 = 4.0 * math.pi / ((n - 1) * 2.0 ** (1.0 / (n - 1)))
    ok = (len(s["lengths"]) == 1
          and _close(s["lengths"][0], length, LATTICE_RTOL)
          and _close(s["beta1"], beta1, LATTICE_RTOL)
          and _close(s["radii"][0], length / beta1, LATTICE_RTOL)
          and s["two_pi_ok"] == (length > 2.0 * math.pi))
    if not ok:
        return f"lattice data {s} != length {length}, beta1 {beta1}"
    return None


def _oracle(op, s):
    if not (s["closed_sup"] <= EXACT_TOL and s["agreement"] <= ORACLE_TOL):
        return (f"closed deficit {s['closed_sup']:.3e}, oracle vs closed "
                f"{s['agreement']:.3e}")
    return None


_GATES = {
    "solve": _solve,
    "compare": _slope,
    "scan": _slope,
    "curvature": _curvature,
    "linearize": lambda op, s: _roots(op["n"], s["indicial_roots"]),
    "indicial": lambda op, s: _roots(op["n"], s["roots"]),
    "lattice": _lattice,
    "oracle": _oracle,
}


def check(op, summary):
    """None if the summary is within the op's bound, else the reason."""
    if summary is None:
        return "no summary.json"
    try:
        return _GATES[op["kind"]](op, summary)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed summary: {exc!r}"
