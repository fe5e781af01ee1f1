"""Spans around the calls into fuzzmin's layers, recorded from outside.

`Tracer.install()` replaces the public functions that `fuzzmin.cli` and
`fuzzmin.fdl` call by wrappers that record a span (name, start, end,
parent, operation) each; `uninstall()` puts the originals back.  Nothing
in the program changes: the wrappers sit on the names those modules look
up at call time.  Spans stay in memory until `write()`; `layer_times()`
derives self times (a span's duration minus the time its child spans
cover), and `collect_counts()` returns the exact work counts of the
operations traced with counting on.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter

# module attribute -> span name, for the functions wrapped in each namespace
CLI_SPANS = {
    "load_interpretation": "fdl.load",
    "interpretation_to_graph": "fdl.encode",
    "compcb": "refine.compcb",
    "quotient": "fdl.quotient",
    "interpretation_to_json": "fdl.dump",
    "_write_output": "fdl.dump",
    "parse_concept": "syntax.parse_concept",
    "eval_concept": "fdl.eval",
    "largest_bisimulation": "fdl.largest_bisimulation",
    "is_bisimulation": "fdl.is_bisimulation",
    "satisfies": "fdl.satisfies",
    "naive_coarsest_stable_refinement": "refine.naive",
    "is_stable": "refine.is_stable",
    "random_graph": "generate.random",
    "random_interpretation": "generate.random",
    "random_concept": "generate.random",
    "random_tbox_axiom": "generate.random",
    "random_concept_assertion": "generate.random",
}
FDL_SPANS = {
    "load_interpretation": "fdl.load",
    "interpretation_to_graph": "fdl.encode",
    "compcb": "refine.compcb",
    "quotient": "fdl.quotient",
    "eval_concept": "fdl.eval",
    "eval_role": "fdl.eval",
    "largest_bisimulation": "fdl.largest_bisimulation",
}
LAYERS = sorted(set(CLI_SPANS.values()) | set(FDL_SPANS.values()) | {"graph.incoming", "op"})
COUNTS = ("graph.n", "graph.m", "graph.l", "refine.blocks", "fdl.bisim_pairs", "algebra.calls")
ALGEBRA_OPERATORS = ("tnorm", "snorm", "residuum", "neg", "baaz")


class Tracer:
    def __init__(self):
        # span: (op id, span id, parent span id or None, name, start, end).
        # Tuples of atoms, unlike lists, drop out of the cyclic GC's work,
        # so a long trace does not slow the operations it records.
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str, float]] = []  # (span id, name, start)
        self._op: int | None = None
        self._graphs: list = []
        self._patches: list[tuple[object, str, object]] = []
        self._incoming_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # --- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._open.append((len(self.spans), name, time.perf_counter()))
        self.spans.append(None)

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans[sid] = (self._op, sid, parent, name, start, end)

    def operation(self, op_id: int, fn, *args):
        """Run one whole operation under a root span named "op"."""
        self._op = op_id
        self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit()
            self._op = None

    def _wrap(self, fn, name: str, count: bool):
        on_result = self._result_hooks.get(fn.__name__) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # --- counts -----------------------------------------------------------

    def _count_graph(self, g) -> None:
        self._graphs.append(g)  # stats are read in collect_counts, outside every span

    def _count_blocks(self, p) -> None:
        self.counts["refine.blocks"] += len(p)

    def _count_pairs(self, pairs) -> None:
        self.counts["fdl.bisim_pairs"] += len(pairs)

    def _count_algebra(self, alg):
        counts = self.counts
        for op in ALGEBRA_OPERATORS:
            method = getattr(alg, op)

            def counted(*args, _method=method):
                counts["algebra.calls"] += 1
                return _method(*args)

            setattr(alg, op, counted)

    _result_hooks = {
        "interpretation_to_graph": _count_graph,
        "random_graph": _count_graph,
        "compcb": _count_blocks,
        "largest_bisimulation": _count_pairs,
    }

    def collect_counts(self) -> dict[str, int]:
        """Counts since the last call, with the sizes of every graph built."""
        for g in self._graphs:
            stats = g.stats()
            self.counts["graph.n"] += stats.n
            self.counts["graph.m"] += stats.m
            self.counts["graph.l"] += stats.l
        self._graphs.clear()
        out = {name: self.counts[name] for name in COUNTS}
        self.counts.clear()
        return out

    # --- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, count: bool) -> None:
        """Wrap the layers' functions.  With `count`, the wrappers also count
        graphs, blocks and bisimulation pairs, and every algebra built
        meanwhile counts its operator calls."""
        from fuzzmin import algebra, cli, fdl
        from fuzzmin.graph import FuzzyGraph

        for module, table in ((cli, CLI_SPANS), (fdl, FDL_SPANS)):
            for attr, name in table.items():
                self._patch(module, attr, self._wrap(getattr(module, attr), name, count))
        # the serialisation between interpretation_to_json and the write
        self._patch(cli, "json", _JsonProxy(cli.json, self._wrap(cli.json.dumps, "fdl.dump", False)))

        tracer = self

        def counting(make):
            @functools.wraps(make)
            def build(*args, **kwargs):
                alg = make(*args, **kwargs)
                tracer._count_algebra(alg)
                return alg
            return build

        if count:
            for module, attr in ((cli, "make_algebra"), (cli, "load_lattice"),
                                 (algebra, "make_algebra")):
                self._patch(module, attr, counting(getattr(module, attr)))

        incoming = FuzzyGraph.incoming
        seen = self._incoming_seen

        @functools.wraps(incoming)
        def first_incoming(g, label):
            labels = seen.setdefault(g, set())
            if label in labels:
                return incoming(g, label)
            labels.add(label)
            tracer._enter("graph.incoming")
            try:
                return incoming(g, label)
            finally:
                tracer._exit()

        self._patch(FuzzyGraph, "incoming", first_incoming)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def layer_times(self, op_ids) -> dict[str, float]:
        """Self time per span name, summed over the given operations."""
        wanted = set(op_ids)
        child_time: Counter = Counter()
        for op, _sid, parent, _name, start, end in self.spans:
            if op in wanted and parent is not None:
                child_time[parent] += end - start
        totals = {name: 0.0 for name in LAYERS}
        for op, sid, _parent, name, start, end in self.spans:
            if op in wanted:
                totals[name] += (end - start) - child_time[sid]
        return totals

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for op, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name,
                                    "start": start - origin, "end": end - origin}) + "\n")


class _JsonProxy:
    """Stands in for the json module inside fuzzmin.cli with a traced dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)
