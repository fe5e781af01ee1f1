"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels and sparse labeled edges
holding strictly positive degrees.  Graphs are immutable after construction
and all degrees belong to one shared algebra.  Both are stored per label:
a vertex label as one {vertex: degree} table (absent = bottom), an edge
label as per-target incoming lists, which `_edge_store` builds from
(source, target, k) triples for graphs and interpretations alike.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Algebra, Degree, degree_parser, read_json
from .errors import UsageError
from .partition import Partition, class_groups, split_classes
from .record import Record


class GraphStats(Record):
    n: int  # vertices
    m: int  # nonzero edges
    l: int  # distinct edge degrees


_EdgeLists = tuple[tuple[tuple[int, int], ...], ...]  # per vertex, (vertex, rank) pairs
_Triples = dict[str, list[tuple[int, int, int]]]  # per label, (source, target, k) triples


def _edge_store(algebra: Algebra, n: int, triples: _Triples, degrees: Sequence[Degree]
                ) -> tuple[dict[str, _EdgeLists], tuple[Degree, ...]]:
    """The edge store of per-label (source, target, k) triples over n
    vertices, degree `degrees[k]`: per label, per-target (source, rank)
    lists in the triples' order, and `levels`, bottom and then the distinct
    degrees in use ascending (each object hashed once), which ranks index."""
    objects: dict[int, list[int]] = {}  # per degree object in use, its ks
    for k in {k for found in triples.values() for _, _, k in found}:
        objects.setdefault(id(degrees[k]), []).append(k)
    by_value: dict[Degree, list[int]] = {}
    for ks in objects.values():
        by_value.setdefault(degrees[ks[0]], []).extend(ks)
    ascending = sorted(by_value)
    rank_of = {k: rank for rank, d in enumerate(ascending, 1) for k in by_value[d]}
    incoming: dict[str, _EdgeLists] = {}
    for label, found in triples.items():
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for s, t, k in found:
            lists[t].append((s, rank_of[k]))
        incoming[label] = tuple(map(tuple, lists))
    return incoming, (algebra.bottom, *ascending)


def _read_edges(parse: Callable[[object], Degree], ids: Mapping[str, int],
                groups: Iterable[tuple[str, Iterable]], name: str) -> tuple[_Triples, list[Degree]]:
    """Per label, [source, target, degree] entries, read in one pass into
    `_edge_store`'s triples and the degrees k indexes (one parse per text).
    Checks each entry's shape, names, degree (not bottom) and pair (new under
    its label); `name.format(source, label, target)` names it in errors."""
    n, degrees, ks = len(ids), [], {}  # ks: degree text -> its k
    triples: _Triples = {}
    for label, entries in groups:
        seen: set[int] = set()
        found = triples[label] = []
        for entry in entries:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[1], str)):
                raise UsageError(f"entry {entry!r} of {label!r} must be [from, to, degree]")
            src, tgt, text = entry
            k = ks.get(text) if type(text) is str else None
            if k is None:
                k, degree = len(degrees), parse(text)
                if not degree:  # bottom is falsy (see `Algebra`)
                    raise UsageError(f"{name.format(src, label, tgt)} has degree 0; omit it")
                degrees.append(degree)
                if type(text) is str:
                    ks[text] = k
            try:
                s, t = ids[src], ids[tgt]
            except KeyError as unknown:
                raise UsageError(f"unknown name {unknown} in {name.format(src, label, tgt)}") from None
            if s * n + t in seen:
                raise UsageError(f"duplicate {name.format(src, label, tgt)}")
            seen.add(s * n + t)
            found.append((s, t, k))
    return triples, degrees


def _ids(names: tuple[str, ...], kind: str) -> dict[str, int]:
    ids = {name: x for x, name in enumerate(names)}
    if len(ids) != len(names):
        raise UsageError(f"duplicate {kind} names")
    return ids


def _object_of(value, kind: type) -> bool:
    return isinstance(value, dict) and all(isinstance(v, kind) for v in value.values())


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
    kept as given; `initial_partition` splits classes by each table.  The
    edges are stored once, per label and target, as (source, rank) lists
    with ranks into `levels`, bottom and then the distinct edge degrees
    ascending (`incoming`).  The engine only compares degrees, so it reads
    ranks; degrees come back only through `edges`.

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
        self._id = _ids(names, "vertex")

        parse = degree_parser(algebra)
        labels: dict[str, dict[int, Degree]] = {}
        for vname, assignment in (vertex_labels or {}).items():
            v = self.vertex_id(vname)
            for label, degree in assignment.items():
                degree = parse(degree)
                table = labels.setdefault(label, {})  # kept even if all bottom
                if degree:  # bottom is falsy (see `Algebra`)
                    table[v] = degree

        groups: dict[str, list[tuple[str, str, Degree]]] = {}
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 4 and isinstance(entry[0], str)
                    and isinstance(entry[1], str) and isinstance(entry[2], str)):
                raise UsageError(f"edge {entry!r} must be [from, label, to, degree]")
            groups.setdefault(entry[1], []).append((entry[0], entry[2], entry[3]))
        self._build(algebra, names, labels, *_edge_store(algebra, len(names), *_read_edges(
            parse, self._id, groups.items(), "edge ({0},{1},{2})")))

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
    if not _object_of(vertex_labels, dict):
        raise UsageError('"vertex_labels" must be an object of {label: degree} objects')
    if not isinstance(edges, list):
        raise UsageError('"edges" must be a list of [from, label, to, degree] lists')
    return FuzzyGraph(algebra, vertices, vertex_labels, edges)


def load_graph(path: str, algebra: Algebra) -> FuzzyGraph:
    return graph_from_json(read_json(path), algebra)
