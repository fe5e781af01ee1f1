"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels and sparse labeled edges
holding strictly positive degrees.  Graphs are immutable after construction
and all degrees belong to one shared algebra.  Every degree is held as a
rank into the graph's one `levels` tuple, and both are stored per label: a
vertex label as one {vertex: rank} table (absent = bottom), an edge label
as per-target incoming lists.  `_ranked_store` builds both from
{x: k} tables and (source, target, k) triples, `k` indexing a sequence of
degrees, for graphs and interpretations alike; `_Reader` reads a
document's degrees into such `k`s.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, Degree, read_json
from .errors import UsageError
from .partition import Partition, class_groups, split_classes
from .record import Record


class GraphStats(Record):
    n: int  # vertices
    m: int  # nonzero edges
    l: int  # distinct edge degrees


_EdgeLists = tuple[tuple[tuple[int, int], ...], ...]  # per vertex, (vertex, rank) pairs
_Tables = dict[str, dict[int, int]]  # per label, {x: k or rank}, without bottom
_Triples = dict[str, list[tuple[int, int, int]]]  # per label, (source, target, k) triples


def _ranked_store(algebra: Algebra, n: int, tables: _Tables, triples: _Triples,
                  degrees: Sequence[Degree]
                  ) -> tuple[_Tables, dict[str, _EdgeLists], tuple[Degree, ...], int]:
    """The ranked store of per-label {x: k} tables and (source, target, k)
    triples over n vertices, degree `degrees[k]`: the tables as {x: rank}
    tables; per label, per-target (source, rank) lists in the triples'
    order; `levels`, which ranks index: bottom, then every distinct degree
    in use ascending, top always among them, so `len(levels) - 1` is top's
    rank; and `l`, the number of distinct edge degrees.  Each k in use is
    hashed once, by value: equal degrees get one rank."""
    edge_ks = {k for found in triples.values() for _, _, k in found}
    by_value: dict[Degree, list[int]] = {algebra.top: []}
    for k in edge_ks.union(*(table.values() for table in tables.values())):
        by_value.setdefault(degrees[k], []).append(k)
    ascending = sorted(by_value)
    rank_of = [0] * len(degrees)
    for rank, degree in enumerate(ascending, 1):
        for k in by_value[degree]:
            rank_of[k] = rank
    incoming: dict[str, _EdgeLists] = {}
    for label, found in triples.items():
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for s, t, k in found:
            lists[t].append((s, rank_of[k]))
        incoming[label] = tuple(map(tuple, lists))
    ranked = {label: {x: rank_of[k] for x, k in table.items()} for label, table in tables.items()}
    return ranked, incoming, (algebra.bottom, *ascending), len({rank_of[k] for k in edge_ks})


class _Reader:
    """One document's degree reader: `k(value)` checks a degree once and
    gives its index into `degrees`, 0 for bottom, as in `levels`.  A `str`
    text is parsed once per text, any other value once per object: the
    reader keeps each value it reads, so no id it keys on is reused.  So
    `1.0` after `1` is still rejected, and equal degrees under two texts
    ("0.5", "1/2") or objects get two `k`s, which `_ranked_store` ranks
    alike.  A value that fails is not kept and fails again at each
    occurrence."""

    def __init__(self, algebra: Algebra):
        self.parse = algebra.parse_degree
        self.degrees: list[Degree] = [algebra.bottom]
        self._ks: dict = {}  # per text, or per id of another value, its k
        self._kept: list = []  # every value read

    def k(self, value) -> int:
        key = value if type(value) is str else id(value)
        k = self._ks.get(key)
        if k is None:
            degree = self.parse(value)
            self._kept.append(value)
            k = self._ks[key] = len(self.degrees) if degree else 0  # bottom is falsy
            if k:
                self.degrees.append(degree)
        return k

    def tables(self, entries: Iterable[tuple[str, int, object]], labels: Iterable[str] = ()
               ) -> _Tables:
        """Per label, the {x: k} table of (label, x, degree) entries without
        bottom degrees; each of `labels`, and each label an entry names,
        gets a table, an empty one included."""
        tables: _Tables = {label: {} for label in labels}
        read = self.k
        for label, x, value in entries:
            k = read(value)
            table = tables.setdefault(label, {})
            if k:
                table[x] = k
        return tables

    def triples(self, ids: Mapping[str, int], groups: Iterable[tuple[str, Iterable]],
                name: str) -> _Triples:
        """Per label, [source, target, degree] entries, read in one pass into
        `_ranked_store`'s triples.  Checks each entry's shape, names, degree
        (not bottom) and pair (new under its label); `name.format(source,
        label, target)` names it in errors."""
        n, read = len(ids), self.k
        triples: _Triples = {}
        for label, entries in groups:
            seen: set[int] = set()
            found = triples[label] = []
            for entry in entries:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and isinstance(entry[0], str) and isinstance(entry[1], str)):
                    raise UsageError(f"entry {entry!r} of {label!r} must be [from, to, degree]")
                src, tgt, value = entry
                k = read(value)
                if not k:
                    raise UsageError(f"{name.format(src, label, tgt)} has degree 0; omit it")
                try:
                    s, t = ids[src], ids[tgt]
                except KeyError as unknown:
                    raise UsageError(f"unknown name {unknown} in {name.format(src, label, tgt)}") from None
                if s * n + t in seen:
                    raise UsageError(f"duplicate {name.format(src, label, tgt)}")
                seen.add(s * n + t)
                found.append((s, t, k))
        return triples


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

    Every degree is a rank into `levels`: bottom, then the distinct vertex
    label and edge degrees ascending, then top if no label or edge has it.
    Each vertex label is one {vertex: rank} table without bottom;
    `initial_partition` splits classes by each table.  The edges are
    stored once, per label and target, as (source, rank) lists
    (`incoming`).  The engine only compares degrees, so it reads ranks;
    degrees come back only through `edges`.

    The constructor takes names and degree text and validates both, and
    rejects duplicate edges; it is the boundary for JSON documents and
    generators.  It reads every degree through one `_Reader`.
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
        reader = _Reader(algebra)
        labels = reader.tables(  # a vertex name is checked also when it has no label
            (label, v, degree) for vname, assignment in (vertex_labels or {}).items()
            for v in (self.vertex_id(vname),) for label, degree in assignment.items())
        groups: dict[str, list[tuple[str, str, Degree]]] = {}
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 4 and isinstance(entry[0], str)
                    and isinstance(entry[1], str) and isinstance(entry[2], str)):
                raise UsageError(f"edge {entry!r} must be [from, label, to, degree]")
            groups.setdefault(entry[1], []).append((entry[0], entry[2], entry[3]))
        triples = reader.triples(self._id, groups.items(), "edge ({0},{1},{2})")
        self._build(algebra, names, *_ranked_store(algebra, len(names), labels, triples,
                                                   reader.degrees))

    @classmethod
    def _from_ids(cls, algebra: Algebra, names: tuple[str, ...], labels: _Tables,
                  edges: Mapping[str, _EdgeLists], levels: tuple[Degree, ...], l: int) -> "FuzzyGraph":
        """A graph from vertex ids and a checked ranked store, only read:
        {vertex: rank} tables without bottom in `labels`, the edge lists,
        `levels` and `l` (an interpretation's encoding passes its own); a
        label without an edge is left out."""
        g = cls.__new__(cls)
        g._id = {name: i for i, name in enumerate(names)}
        g._build(algebra, names, labels, edges, levels, l)
        return g

    def _build(self, algebra: Algebra, names: tuple[str, ...], labels: _Tables,
               edges: Mapping[str, _EdgeLists], levels: tuple[Degree, ...], l: int) -> None:
        self.algebra = algebra
        self.names: tuple[str, ...] = names
        self.n = len(names)
        self.vertex_label_names: tuple[str, ...] = tuple(sorted(labels))
        self._labels = labels
        self.levels: tuple[Degree, ...] = levels
        self._in = {label: lists for label, lists in edges.items() if any(lists)}
        self.edge_label_names: tuple[str, ...] = tuple(sorted(self._in))
        self._m = sum(sum(map(len, lists)) for lists in self._in.values())
        self._l = l

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
        vertex): the classes split by each vertex label's rank table, then by
        the vertices' per-label sup ranks."""
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
        return GraphStats(n=self.n, m=self._m, l=self._l)


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
