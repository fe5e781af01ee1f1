"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels (absent label = bottom)
and sparse labeled edges holding strictly positive degrees.  Graphs are
immutable after construction and all degrees belong to one shared algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, Degree, read_json
from .errors import UsageError
from .partition import Partition


@dataclass(frozen=True)
class GraphStats:
    n: int  # vertices
    m: int  # nonzero edges
    l: int  # distinct edge degrees


class FuzzyGraph:
    def __init__(
        self,
        algebra: Algebra,
        vertices: Sequence[str],
        vertex_labels: Mapping[str, Mapping[str, Degree]] | None = None,
        edges: Iterable[tuple[str, str, str, Degree]] = (),
    ):
        self.algebra = algebra
        self.names: tuple[str, ...] = tuple(vertices)
        if len(set(self.names)) != len(self.names):
            raise UsageError("duplicate vertex names")
        self._id: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.n = len(self.names)

        labels: list[dict[str, Degree]] = [{} for _ in range(self.n)]
        label_names: set[str] = set()
        for vname, assignment in (vertex_labels or {}).items():
            v = self.vertex_id(vname)
            for label, degree in assignment.items():
                degree = algebra.parse_degree(degree)
                label_names.add(label)
                if degree != algebra.bottom:
                    labels[v][label] = degree
        self.vertex_label_names: tuple[str, ...] = tuple(sorted(label_names))
        self._labels: tuple[dict[str, Degree], ...] = tuple(labels)

        out: list[dict[str, dict[int, Degree]]] = [{} for _ in range(self.n)]
        edge_list: list[tuple[int, str, int, Degree]] = []
        edge_labels: set[str] = set()
        for sname, label, tname, degree in edges:
            s, t = self.vertex_id(sname), self.vertex_id(tname)
            degree = algebra.parse_degree(degree)
            if degree == algebra.bottom:
                raise UsageError(
                    f"edge ({sname},{label},{tname}) has degree 0; zero edges must be omitted"
                )
            per_label = out[s].setdefault(label, {})
            if t in per_label:
                raise UsageError(f"duplicate edge ({sname},{label},{tname})")
            per_label[t] = degree
            edge_list.append((s, label, t, degree))
            edge_labels.add(label)
        self.edge_label_names: tuple[str, ...] = tuple(sorted(edge_labels))
        self.edges: tuple[tuple[int, str, int, Degree], ...] = tuple(edge_list)
        self._out = tuple(out)
        self._in_cache: dict[str, tuple[tuple[tuple[int, Degree], ...], ...]] = {}

    def vertex_id(self, name: str) -> int:
        try:
            return self._id[name]
        except KeyError:
            raise UsageError(f"unknown vertex {name!r}") from None

    def out_edges(self, v: int, label: str) -> Mapping[int, Degree]:
        """Targets and degrees of v's outgoing `label` edges (absent = bottom)."""
        self._check_vertex(v)
        self._check_label(label)
        return self._out[v].get(label, {})

    def incoming(self, label: str) -> tuple[tuple[tuple[int, Degree], ...], ...]:
        """Per-vertex incoming (source, degree) lists for one edge label; cached."""
        self._check_label(label)
        cached = self._in_cache.get(label)
        if cached is None:
            acc: list[list[tuple[int, Degree]]] = [[] for _ in range(self.n)]
            for s, lab, t, degree in self.edges:
                if lab == label:
                    acc[t].append((s, degree))
            cached = tuple(tuple(lst) for lst in acc)
            self._in_cache[label] = cached
        return cached

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise UsageError(f"unknown vertex id {v}")

    def _check_label(self, label: str) -> None:
        if label not in self.edge_label_names:
            raise UsageError(f"unknown edge label {label!r}")

    def sup_degree(self, v: int, label: str, targets: Iterable[int]) -> Degree:
        """Largest degree among v's `label` edges into the target set (bottom if none)."""
        targets = set(targets)
        for t in targets:
            self._check_vertex(t)
        per_label = self.out_edges(v, label)
        best = self.algebra.bottom
        if len(per_label) <= len(targets):
            for t, degree in per_label.items():
                if t in targets and degree > best:
                    best = degree
        else:
            for t in targets:
                degree = per_label.get(t)
                if degree is not None and degree > best:
                    best = degree
        return best

    def label_vector(self, v: int) -> tuple[Degree, ...]:
        """Dense label degrees of v, in sorted label-name order."""
        self._check_vertex(v)
        bottom = self.algebra.bottom
        mine = self._labels[v]
        return tuple(mine.get(name, bottom) for name in self.vertex_label_names)

    def initial_partition(self) -> Partition:
        """Group vertices by label vector and per-label sup of all outgoing degrees."""
        if self.n == 0:
            raise UsageError("graph has no vertices")
        bottom = self.algebra.bottom
        groups: dict[tuple, list[int]] = {}
        for v in range(self.n):
            sups = tuple(
                max(self._out[v].get(label, {}).values(), default=bottom)
                for label in self.edge_label_names
            )
            groups.setdefault((self.label_vector(v), sups), []).append(v)
        return Partition(groups.values(), self.n)

    def stats(self) -> GraphStats:
        return GraphStats(
            n=self.n,
            m=len(self.edges),
            l=len({degree for _, _, _, degree in self.edges}),
        )


def graph_from_json(doc, algebra: Algebra) -> FuzzyGraph:
    """Build a graph from the JSON schema:

    {"vertices": [names],
     "vertex_labels": {name: {label: degree}},
     "edges": [[from, label, to, degree]]}

    Degrees are decimal or fraction strings ("0.8", "4/5") or ints.
    """
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise UsageError("graph document must be a JSON object with a \"vertices\" list")
    edges = []
    for entry in doc.get("edges", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise UsageError(f"edge entry {entry!r} must be [from, label, to, degree]")
        edges.append(tuple(entry))
    return FuzzyGraph(
        algebra,
        doc["vertices"],
        doc.get("vertex_labels", {}),
        edges,
    )


def load_graph(path: str, algebra: Algebra) -> FuzzyGraph:
    return graph_from_json(read_json(path, exact=True), algebra)
