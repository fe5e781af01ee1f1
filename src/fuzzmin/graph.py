"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels and sparse labeled edges
holding strictly positive degrees.  Graphs are immutable after construction
and all degrees belong to one shared algebra.  Both are stored per label:
a vertex label as one {vertex: degree} table (absent = bottom), an edge
label as per-target incoming lists from `_edge_store`, which interpretations
share.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, Degree, degree_parser, read_json
from .errors import UsageError
from .partition import Partition, class_groups, split_classes
from .record import Record


class GraphStats(Record):
    n: int  # vertices
    m: int  # nonzero edges
    l: int  # distinct edge degrees


_EdgeLists = tuple[tuple[tuple[int, int], ...], ...]  # per vertex, (vertex, rank) pairs


def _edge_store(algebra: Algebra, n: int, tables: Mapping[str, Mapping[tuple[int, int], Degree]]
                ) -> tuple[dict[str, _EdgeLists], tuple[Degree, ...]]:
    """The edge store of per-label {(source, target): degree} tables over n
    vertices: per label, the per-target (source, rank) lists in the table's
    order, and `levels`, bottom and then the distinct degrees ascending,
    which the ranks index.  Degrees are ranked by object id, hashing each
    distinct degree object once (a parsed document holds one object per
    distinct text)."""
    objects = {id(d): d for table in tables.values() for d in table.values()}
    by_value: dict[Degree, list[int]] = {}
    for key, degree in objects.items():
        by_value.setdefault(degree, []).append(key)
    ascending = sorted(by_value)
    rank_of = {key: rank for rank, d in enumerate(ascending, 1) for key in by_value[d]}
    incoming: dict[str, _EdgeLists] = {}
    for label, table in tables.items():
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (s, t), degree in table.items():
            lists[t].append((s, rank_of[id(degree)]))
        incoming[label] = tuple(map(tuple, lists))
    return incoming, (algebra.bottom, *ascending)


def _by_source(incoming: _EdgeLists) -> _EdgeLists:
    """Per-target (source, rank) lists as per-source (target, rank) lists,
    each in order of target: one scan, no sort."""
    lists: list[list[tuple[int, int]]] = [[] for _ in incoming]
    for t, sources in enumerate(incoming):
        for s, rank in sources:
            lists[s].append((t, rank))
    return tuple(map(tuple, lists))


class FuzzyGraph:
    """Vertices, fuzzy vertex labels and labeled edges over one algebra.

    Each vertex label is one {vertex: degree} table without bottom degrees,
    kept as given; `initial_partition` splits classes by each table.
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
        self._build(algebra, names, labels, *_edge_store(algebra, len(names), tables))

    @classmethod
    def _from_ids(cls, algebra: Algebra, names: tuple[str, ...],
                  labels: Mapping[str, Mapping[int, Degree]], edges: Mapping[str, _EdgeLists],
                  levels: tuple[Degree, ...]) -> "FuzzyGraph":
        """A graph from vertex ids and checked data, only read: {vertex:
        degree} tables with no bottom degrees in `labels`, and an edge store,
        `edges` and `levels` (an interpretation's encoding passes its own);
        a label without an edge is left out."""
        g = cls.__new__(cls)
        g._id = {name: i for i, name in enumerate(names)}
        g._build(algebra, names, labels, edges, levels)
        return g

    def _build(self, algebra: Algebra, names: tuple[str, ...],
               labels: Mapping[str, Mapping[int, Degree]], edges: Mapping[str, _EdgeLists],
               levels: tuple[Degree, ...]) -> None:
        self.algebra = algebra
        self.names: tuple[str, ...] = names
        self.n = len(names)
        self.vertex_label_names: tuple[str, ...] = tuple(sorted(labels))
        self._labels = labels
        self.levels: tuple[Degree, ...] = levels
        self._in = {label: lists for label, lists in edges.items() if any(lists)}
        self.edge_label_names: tuple[str, ...] = tuple(sorted(self._in))
        self._m = sum(sum(map(len, lists)) for lists in self._in.values())

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

    def incoming(self, label: str) -> _EdgeLists:
        """Per-target incoming (source, rank) lists for one edge label, each
        in input order: the edge store itself.  In an interpretation's
        encoding it is the interpretation's own store, and `r-` reads `r`'s
        per-source lists, each in order of source."""
        if label not in self.edge_label_names:
            raise UsageError(f"unknown edge label {label!r}")
        return self._in[label]

    def initial_partition(self) -> Partition:
        """Group vertices by label vector and per-label sup of all outgoing degrees."""
        return Partition(self._initial_blocks(), self.n)

    def _initial_blocks(self) -> list[list[int]]:
        """`initial_partition`'s sorted blocks in `Partition`'s order (by least
        vertex): the classes split by each vertex label's table, then by the
        vertices' per-label sup ranks."""
        if self.n == 0:
            raise UsageError("graph has no vertices")
        cls, fresh = [0] * self.n, 1
        for name in self.vertex_label_names:
            fresh = split_classes(cls, self._labels[name].items(), fresh)
        sups = []
        for label in self.edge_label_names:
            sup = [0] * self.n
            for sources in self._in[label]:
                for s, rank in sources:
                    if rank > sup[s]:
                        sup[s] = rank
            sups.append(sup)
        split_classes(cls, enumerate(zip(*sups)), fresh)
        return class_groups(range(self.n), cls)

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
