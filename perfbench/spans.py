"""Span tracing from outside the program.

The functions named in LAYERS, and every alias a ``dehnfill`` module holds
of them (``solver.diff_matrix``, ``linearized.apply_diff``, ...), are
rebound to wrappers that record one span per call: op index, name, start,
end and the index of the enclosing span.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; the run is single-threaded, so the
spans nest and the self times of a trace sum to the time covered by its
top-level spans.
"""

import functools
import gzip
import time
from array import array

LAYERS = {
    "numutil": ("fornberg_weights", "diff_matrix", "apply_diff"),
    "solver": ("newton_solve",),
    "linearized": ("apply_L", "compare_operators"),
    "profiles": ("eval_profile",),
    "curvature": ("sectional_curvatures", "ricci_and_deficit",
                  "cutoff_deficit_diag", "fd_curvature_oracle"),
    "norms": ("discrete_holder_seminorm", "decay_weight", "phi_c"),
    "gluing": ("deficit_norm", "decay_scan"),
    "lattice": ("filling_data",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Stencil weights are a pure function of (x0, xs, m); the share of calls
# with a key not yet seen in the same op is what a per-op cache could save.
STENCIL = "numutil.fornberg_weights"


def _stencil_key(x0, xs, m):
    return hash((float(x0), xs.tobytes(), int(m)))


class Tracer:
    """Records spans of the wrapped functions and distinct stencil keys.

    Spans are kept in flat arrays, which the garbage collector does not
    traverse, so a run with millions of spans keeps its speed.
    """

    def __init__(self):
        self.op = -1
        self.distinct = 0
        self.ops = array("l")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = []
        self._keys = set()
        self._restore = []

    def begin_op(self, index):
        self.distinct += len(self._keys)
        self._keys.clear()
        self.op = index

    def finish(self):
        self.begin_op(-1)

    def wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        stack, clock = self._stack, time.perf_counter
        ops, names, starts = self.ops, self.names, self.starts
        ends, parents = self.ends, self.parents
        keys = self._keys if name == STENCIL else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_stencil_key(*args, **kwargs))
            index = len(starts)
            ops.append(self.op)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, modules):
        """Rebind each LAYERS function and its aliases in ``modules``.

        ``modules`` maps module names to the loaded ``dehnfill`` modules.
        """
        for short, names in LAYERS.items():
            home = modules[f"dehnfill.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self):
        """Self time of each span: its duration minus its direct children's."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self):
        """{span name: [calls, self seconds]} for every name in SPAN_NAMES."""
        totals = [[0, 0.0] for _ in SPAN_NAMES]
        for name_id, own in zip(self.names, self.self_times()):
            totals[name_id][0] += 1
            totals[name_id][1] += own
        return dict(zip(SPAN_NAMES, totals))

    def write(self, path):
        """Write the spans as gzipped CSV, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for op, name_id, start, end, parent in zip(
                    self.ops, self.names, self.starts, self.ends,
                    self.parents):
                fh.write(f"{op},{SPAN_NAMES[name_id]},{start - t0:.9f},"
                         f"{end - t0:.9f},{parent}\n")
