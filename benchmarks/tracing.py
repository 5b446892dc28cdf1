"""Per-layer tracing of sylvshift from outside the program.

The modules import each other's functions by name (`from .trees import
psylv`), so a function is looked up in the namespace of the module that
calls it. `Tracer.install` therefore replaces every binding of a traced
function in every loaded sylvshift module, not only the defining one:
`sylvshift.trees.psylv`, `sylvshift.graph.psylv`, `sylvshift.pathsynth.psylv`
and so on all point at one wrapper afterwards.

Each wrapper records a span: its layer name, its duration, and the time
spent in traced calls made inside it. Spans are folded into per-name
aggregates as they close (call count, inclusive seconds, self seconds =
inclusive minus child spans), so memory stays flat on workloads with
millions of calls. A few wrappers also count work (symbols inserted,
readings enumerated, neighbor candidates, ...).

Functions that a later version of the program no longer has are skipped;
their metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) pairs traced; methods are "Class.method".
TARGETS = (
    ("trees", "psylv"),
    ("trees", "readings"),
    ("trees", "canonical_reading"),
    ("trees", "postfix"),
    ("graph", "trees_with_evaluation"),
    ("graph", "neighbors"),
    ("graph", "component"),
    ("graph", "diameter"),
    ("graph", "bfs_distances"),
    ("pathsynth", "shift_path"),
    ("pathsynth", "induction_step"),
    ("pathsynth", "verify_step_invariants"),
    ("pathsynth", "visited_tops"),
    ("pathsynth", "PathCertificate.verify"),
    ("cocharge", "cochseq_word"),
    ("cocharge", "cocharge_lower_bound"),
    ("monoid", "multiply"),
    ("monoid", "rewrite_class"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, seconds in child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        stack, calls, total, self_s = self.stack, self.calls, self.total, self.self_s
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - frame[1]
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each target in the loaded sylvshift modules."""
        import sylvshift.verify as verify_mod

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sylvshift" or n.startswith("sylvshift."))]
        for mod_name, attr in TARGETS:
            mod = sys.modules.get(f"sylvshift.{mod_name}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self.wrap(f"{mod_name}.{attr}", vars(cls)[meth]))
                continue
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._rebind(modules, fn, self.wrap(f"{mod_name}.{attr}", fn))
        for suite, fn in list(getattr(verify_mod, "SUITES", {}).items()):
            wrapper = self.wrap(f"verify.{suite}", fn)
            self._rebind(modules, fn, wrapper)
            verify_mod.SUITES[suite] = wrapper

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    # Work counters. psylv accepts any iterable, so its argument is
    # materialized once here and the tuple passed on.
    def _before_trees_psylv(self, args):
        w = tuple(args[0])
        self.counts["trees.psylv.symbols"] += len(w)
        if self.stack and self.stack[-1][0] == "graph.neighbors":
            self.counts["graph.neighbors.candidates"] += 1
        return (w,) + args[1:]

    def _after_trees_readings(self, result):
        self.counts["trees.readings.words"] += len(result)

    def _after_graph_trees_with_evaluation(self, result):
        self.counts["graph.trees_with_evaluation.trees"] += len(result)

    def _after_graph_neighbors(self, result):
        self.counts["graph.neighbors.distinct"] += len(result)

    def _after_graph_component(self, result):
        self.counts["graph.component.vertices"] += len(result.vertices)
        self.counts["graph.component.edges"] += result.edge_count()

    def _after_pathsynth_shift_path(self, result):
        self.counts["pathsynth.steps"] += len(result)

    def _after_monoid_rewrite_class(self, result):
        self.counts["monoid.rewrite_class.words"] += len(result)

    def layers(self) -> dict:
        """Every traced name's calls, inclusive and self seconds, plus the work counters."""
        out: dict = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(sorted(self.counts.items()))
        return out
