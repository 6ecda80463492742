"""In-memory spans around the package's layer entry points.

Only the traced run uses this.  ``Tracer.install`` replaces the module
attributes the package calls through with timing wrappers and
``Tracer.uninstall`` puts the originals back, so untraced ops run the
unmodified package.  A span is (id, parent id, op index, name, start ns,
end ns); all spans of one op share the op index.  Counters of computed work
are kept per traced op next to the spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

from jcsubdyn import _kernels, analysis, cli, hilbert, jcm, subdyn

#: One v (complex128) and one w (float64) entry per correlation-table cell.
TABLE_CELL_BYTES = 24


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _count_channel_sums(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if "ts" in a and "n_max" in a:
        nt, n_max = len(a["ts"]), int(a["n_max"])
        counts["kernels.channel_sums.cells"] += nt * (n_max + 1)
        counts["kernels.channel_sums.table_bytes"] = max(
            counts["kernels.channel_sums.table_bytes"], nt * (n_max + 2) * TABLE_CELL_BYTES)


def _count_emit_output(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if "series" in a and "path" in a:
        counts["cli.emit_output.bytes"] += os.path.getsize(a["path"])
        counts["cli.emit_output.values"] += len(a["series"].gt) * (1 + len(a["series"].channels))


#: (owner, attribute, span name, work counter).  Each attribute is the one the
#: package looks up at call time, so replacing it reaches every caller.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "emit_output", "cli.emit_output", _count_emit_output),
    (analysis, "observable_series", "analysis.observable_series", None),
    (analysis, "collapse_revival_features", "analysis.collapse_revival_features", None),
    (analysis, "conservation_audit", "analysis.conservation_audit", None),
    (_kernels, "channel_sums", "kernels.channel_sums", _count_channel_sums),
    (subdyn, "effective_operator", "subdyn.effective_operator", None),
    (subdyn.SpectralPropagator, "__init__", "subdyn.SpectralPropagator.init", None),
    (subdyn.SpectralPropagator, "__call__", "subdyn.propagator", None),
    (subdyn, "require_unitary", "numerics.require_unitary", None),
    (subdyn, "eigh_hermitian", "numerics.eigh_hermitian", None),
    (jcm, "hamiltonian", "jcm.hamiltonian", None),
    (hilbert, "coherent_state", "hilbert.coherent_state", None),
)

ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self.missing = []
        self._stack = []
        self._saved = []
        self._next_id = 0
        self._op = -1

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, start, end))
            if count is not None:
                count(self.counts[-1], fn, args, kwargs, result)
            return result
        return traced

    def install(self):
        for owner, attr, name, count in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                if name not in self.missing:
                    self.missing.append(name)
                    print(f"perfbench: layer entry point {name} not found; "
                          "its metrics read 0", file=sys.stderr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_op(self, op):
        """Run ``op`` under a root span with every target wrapped.

        Returns (root span seconds, op result).
        """
        self._op += 1
        self.counts.append(Counter())
        root = self._wrap(op, ROOT_SPAN, None)
        self.install()
        try:
            result = root()
        finally:
            self.uninstall()
        start, end = self.spans[-1][4:6]
        return (end - start) / 1e9, result


def op_profiles(spans):
    """Per traced op: {span name: [calls, total s, self s]}.

    A span's self time is its duration minus the durations of its children.
    """
    children_ns = defaultdict(int)
    for _sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children_ns[parent] += end - start
    profiles = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for sid, _parent, op, name, start, end in spans:
        entry = profiles[op][name]
        entry[0] += 1
        entry[1] += (end - start) / 1e9
        entry[2] += (end - start - children_ns[sid]) / 1e9
    return [profiles[op] for op in sorted(profiles)]
