"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels and sparse labeled edges
holding strictly positive degrees.  Graphs are immutable after construction
and all degrees belong to one shared algebra.  Both are stored per label:
a vertex label as one {vertex: degree} table (absent = bottom), an edge
label as per-target incoming lists; there is no outgoing adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, Degree, degree_parser, read_json
from .errors import UsageError
from .partition import Partition


@dataclass(frozen=True)
class GraphStats:
    n: int  # vertices
    m: int  # nonzero edges
    l: int  # distinct edge degrees


class FuzzyGraph:
    """Vertices, fuzzy vertex labels and labeled edges over one algebra.

    Each vertex label is one {vertex: degree} table without bottom degrees,
    kept as given; `label_vector` and `initial_partition` read one column
    per label.
    Edge degrees are interned once: `levels` holds bottom at index 0 and the
    distinct edge degrees in ascending order after it.  The edges are stored
    once, per label and target, as (source, rank) lists with ranks into
    `levels` (`incoming`); the engine and `initial_partition` read them as
    they are.  Since the engine only compares degrees, ranks stand in for
    them; degrees come back only through `edges`, which reads the store on
    demand.

    The constructor takes names and degree text and validates both, and
    rejects duplicate edges; it is the boundary for JSON documents and
    generators.
    """

    def __init__(
        self,
        algebra: Algebra,
        vertices: Sequence[str],
        vertex_labels: Mapping[str, Mapping[str, Degree]] | None = None,
        edges: Iterable[tuple[str, str, str, Degree]] = (),
    ):
        names = tuple(vertices)
        if len(set(names)) != len(names):
            raise UsageError("duplicate vertex names")
        self._id: dict[str, int] = {name: i for i, name in enumerate(names)}

        parse = degree_parser(algebra)
        labels: dict[str, dict[int, Degree]] = {}
        for vname, assignment in (vertex_labels or {}).items():
            v = self.vertex_id(vname)
            for label, degree in assignment.items():
                degree = parse(degree)
                table = labels.setdefault(label, {})  # kept even if all bottom
                if degree:  # bottom is falsy (see `Algebra`)
                    table[v] = degree

        tables: dict[str, dict[tuple[int, int], Degree]] = {}
        for sname, label, tname, degree in edges:
            s, t = self.vertex_id(sname), self.vertex_id(tname)
            table = tables.setdefault(label, {})
            if (s, t) in table:
                raise UsageError(f"duplicate edge ({sname},{label},{tname})")
            degree = parse(degree)
            if not degree:
                raise UsageError(
                    f"edge ({sname},{label},{tname}) has degree 0; zero edges must be omitted"
                )
            table[s, t] = degree
        self._build(algebra, names, labels, tables)

    @classmethod
    def _from_ids(
        cls,
        algebra: Algebra,
        names: tuple[str, ...],
        labels: Mapping[str, Mapping[int, Degree]],
        edges: Mapping[str, Mapping[tuple[int, int], Degree]],
    ) -> "FuzzyGraph":
        """A graph from vertex ids and already checked degrees, as per-label
        tables that are only read: {vertex: degree} in `labels`, with no bottom
        degrees, and {(source, target): degree} in `edges`, with no zeros."""
        g = cls.__new__(cls)
        g._id = {name: i for i, name in enumerate(names)}
        g._build(algebra, names, labels, edges)
        return g

    def _build(
        self,
        algebra: Algebra,
        names: tuple[str, ...],
        labels: Mapping[str, Mapping[int, Degree]],
        edges: Mapping[str, Mapping[tuple[int, int], Degree]],
    ) -> None:
        self.algebra = algebra
        self.names: tuple[str, ...] = names
        self.n = len(names)
        self.vertex_label_names: tuple[str, ...] = tuple(sorted(labels))
        self._labels = labels

        # rank the edge degrees by object id, hashing each distinct degree
        # object once (a reversed edge shares its degree object with the
        # forward edge, a parsed document one object per distinct text)
        objects = {id(d): d for table in edges.values() for d in table.values()}
        by_value: dict[Degree, list[int]] = {}
        for key, degree in objects.items():
            by_value.setdefault(degree, []).append(key)
        ascending = sorted(by_value)
        rank_of = {key: rank for rank, d in enumerate(ascending, 1) for key in by_value[d]}
        self.levels: tuple[Degree, ...] = (algebra.bottom, *ascending)

        self._in: dict[str, tuple[tuple[tuple[int, int], ...], ...]] = {}
        for label, table in edges.items():
            if table:
                lists: list[list[tuple[int, int]]] = [[] for _ in names]
                for (s, t), degree in table.items():
                    lists[t].append((s, rank_of[id(degree)]))
                self._in[label] = tuple(map(tuple, lists))
        self.edge_label_names: tuple[str, ...] = tuple(sorted(self._in))
        self._m = sum(map(len, edges.values()))

    @property
    def edges(self) -> tuple[tuple[int, str, int, Degree], ...]:
        """(source, label, target, degree) for every edge, read off the store:
        by label name, then target, then input order within a target."""
        levels = self.levels
        return tuple(
            (s, label, t, levels[rank])
            for label in self.edge_label_names
            for t, sources in enumerate(self._in[label])
            for s, rank in sources
        )

    def vertex_id(self, name: str) -> int:
        try:
            return self._id[name]
        except KeyError:
            raise UsageError(f"unknown vertex {name!r}") from None

    def incoming(self, label: str) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-target incoming (source, rank) lists for one edge label, each
        in input order: the edge store itself, built by the constructor."""
        if label not in self.edge_label_names:
            raise UsageError(f"unknown edge label {label!r}")
        return self._in[label]

    def label_vector(self, v: int) -> tuple[Degree, ...]:
        """Dense label degrees of v, one per label table in sorted name order."""
        if not 0 <= v < self.n:
            raise UsageError(f"unknown vertex id {v}")
        bottom = self.algebra.bottom
        return tuple(self._labels[name].get(v, bottom) for name in self.vertex_label_names)

    def initial_partition(self) -> Partition:
        """Group vertices by label vector and per-label sup of all outgoing degrees."""
        return Partition(self._initial_blocks(), self.n)

    def _initial_blocks(self) -> list[list[int]]:
        """`initial_partition`'s sorted blocks in `Partition`'s order (by least
        vertex), from one column per vertex label and per edge label."""
        if self.n == 0:
            raise UsageError("graph has no vertices")
        bottom, tables = self.algebra.bottom, self._labels
        columns = [[tables[name].get(v, bottom) for v in range(self.n)]
                   for name in self.vertex_label_names]
        for label in self.edge_label_names:
            sup = [0] * self.n
            for sources in self.incoming(label):
                for s, rank in sources:
                    if rank > sup[s]:
                        sup[s] = rank
            columns.append(sup)
        groups: dict[tuple, list[int]] = {}
        for v, key in enumerate(zip(*columns) if columns else [()] * self.n):
            groups.setdefault(key, []).append(v)
        return list(groups.values())

    def stats(self) -> GraphStats:
        return GraphStats(n=self.n, m=self._m, l=len(self.levels) - 1)


def graph_from_json(doc, algebra: Algebra) -> FuzzyGraph:
    """Build a graph from the JSON schema:

    {"vertices": [names],
     "vertex_labels": {name: {label: degree}},
     "edges": [[from, label, to, degree]]}

    Degrees are decimal or fraction strings ("0.8", "4/5") or ints.
    """
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise UsageError("graph document must be a JSON object with a \"vertices\" list")
    vertices, edges = doc["vertices"], doc.get("edges", [])
    vertex_labels = doc.get("vertex_labels", {})
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise UsageError('"vertices" must be a list of vertex names')
    if not isinstance(vertex_labels, dict) or not all(
        isinstance(assignment, dict) for assignment in vertex_labels.values()
    ):
        raise UsageError('"vertex_labels" must be an object of {label: degree} objects')
    if not isinstance(edges, list):
        raise UsageError('"edges" must be a list of [from, label, to, degree] lists')
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 4
                and all(isinstance(part, str) for part in entry[:3])):
            raise UsageError(f"edge entry {entry!r} must be [from, label, to, degree]")
    return FuzzyGraph(algebra, vertices, vertex_labels, edges)


def load_graph(path: str, algebra: Algebra) -> FuzzyGraph:
    return graph_from_json(read_json(path), algebra)
