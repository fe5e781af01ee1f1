"""Fuzzy labeled graphs: the input structure of the partition-refinement engine.

A graph has dense vertex ids, fuzzy vertex labels and sparse labeled edges
holding strictly positive degrees.  Graphs are immutable after construction
and all degrees belong to one shared algebra.  Every degree is held as a
rank into the graph's one `levels` tuple, and both are stored per label: a
vertex label as one {vertex: rank} table (absent = bottom), an edge label
as per-target incoming lists.  For graphs and interpretations alike,
`_Reader` reads a document: it ranks the document's degrees first, then
writes each entry's rank straight into its table or list.  A store
derived from checked ones is written in the same form, and
`_ranked_store` only compacts its `levels` to the ranks in use.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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
_Tables = dict[str, dict[int, int]]  # per label, {x: rank}, without bottom


def _ranked_store(tables: _Tables, lists: dict[str, _EdgeLists], levels: tuple[Degree, ...]
                  ) -> tuple[_Tables, dict[str, _EdgeLists], tuple[Degree, ...], int]:
    """The store of a structure derived from checked ones: per-label {x:
    rank} tables and per-target (source, rank) lists, ranks into `levels`
    (ascending and distinct, bottom first, top last), with `levels`
    compacted to the ranks in use and top: the tables and the lists, their
    ranks mapped when some level is unused; the compacted `levels`; and
    `l`, the number of distinct edge degrees.  Only ints are sorted; no
    degree is hashed."""
    edge_ranks = set(map(itemgetter(1), chain.from_iterable(chain.from_iterable(lists.values()))))
    top = len(levels) - 1
    kept = sorted(edge_ranks.union(*map(dict.values, tables.values()), (top,)))
    if len(kept) < top:  # some level is not in use
        rank_of = [0] * (top + 1)
        for new, rank in enumerate(kept, 1):
            rank_of[rank] = new
        tables = {label: {x: rank_of[rank] for x, rank in table.items()}
                  for label, table in tables.items()}
        lists = {label: tuple([tuple([(s, rank_of[rank]) for s, rank in sources]) for sources in found])
                 for label, found in lists.items()}
        levels = (levels[0], *map(levels.__getitem__, kept))
    return tables, lists, levels, len(edge_ranks)


def _merged_levels(a: tuple[Degree, ...], b: tuple[Degree, ...]
                   ) -> tuple[tuple[Degree, ...], list[int], list[int]]:
    """The ascending distinct union of two `levels` tuples, read in one
    pass, and each side's ranks in it.  Both end with top, so they run out
    together."""
    levels: list[Degree] = []
    rank_of_a: list[int] = []
    rank_of_b: list[int] = []
    i = j = 0
    while i < len(a):
        low = min(a[i], b[j])
        if a[i] == low:
            rank_of_a.append(len(levels))
            i += 1
        if b[j] == low:
            rank_of_b.append(len(levels))
            j += 1
        levels.append(low)
    return tuple(levels), rank_of_a, rank_of_b


_Side = tuple[int, _Tables, Mapping[str, _EdgeLists], tuple[Degree, ...]]  # n, tables, lists, levels


def _union_store(first: _Side, second: _Side
                 ) -> tuple[_Tables, dict[str, _EdgeLists], tuple[Degree, ...], int]:
    """The store of the disjoint union of two stores, each given as its n,
    {x: rank} tables, per-target lists and `levels`: each side's lists with
    the second side's vertices shifted past the first's and each side's
    ranks mapped into the two `levels` merged in one pass, the first
    side's targets then the second's per label.  The first side's lists
    are taken as they are when its `levels` are the merged ones.  Both
    sides have the same edge labels; a label may have a table on one side
    only."""
    levels, *rank_ofs = _merged_levels(first[3], second[3])
    tables: _Tables = {}
    lists: dict[str, list] = {label: [] for label in first[2]}
    for shift, rank_of, (_, labels, edges, _) in zip((0, first[0]), rank_ofs, (first, second)):
        for label, table in labels.items():
            tables.setdefault(label, {}).update({x + shift: rank_of[rank] for x, rank in table.items()})
        for label, found in edges.items():
            if shift or len(rank_of) < len(levels):
                found = [tuple([(s + shift, rank_of[rank]) for s, rank in sources]) for sources in found]
            lists[label] += found
    return _ranked_store(tables, {label: tuple(found) for label, found in lists.items()}, levels)


_TEXT = frozenset((str,))


def _keys(columns: Iterable[Iterable]) -> dict:
    """{key: value} for the distinct degree keys in `columns`, each read
    twice: a `str` text is its own key, any other value is keyed by its id,
    and the dict keeps it alive, so no id is reused while the document is
    read.  A column of texts alone is taken in at C speed; other values
    are never hashed by value (`1`, `1.0` and `True` are equal, and a
    `Fraction` hashes slowly)."""
    keys: dict = {}
    for column in columns:
        if set(map(type, column)) <= _TEXT:
            texts = set(column)
            keys.update(zip(texts, texts))
        else:
            keys.update({value if type(value) is str else id(value): value for value in column})
    return keys


def _column(groups: Iterable[Sequence], at: int) -> list:
    """Item `at` of every entry in `groups`, which is read twice, for
    `_Reader`'s ranking step.  The checked loop reports an entry of the
    wrong shape, so one that cannot be indexed is skipped here."""
    try:
        return [entry[at] for entries in groups for entry in entries]
    except (TypeError, IndexError, KeyError):
        return [entry[at] for entries in groups for entry in entries
                if isinstance(entry, (list, tuple)) and len(entry) > at]


class _Reader:
    """One document's degrees, ranked before any entry is checked.

    The ranking step takes the document's columns of vertex-label or
    concept values (`columns`) and of edge or role values (`edge_columns`)
    and parses each distinct key once: a `str` text once per text, any
    other value once per object (`_keys`).  A key that fails to parse stays
    unranked.  The parsed degrees are ranked by value into `levels`:
    bottom, the distinct degrees ascending, then top, always kept.  So
    equal degrees under two texts ("0.5", "1/2") or objects get one rank,
    and `1.0` after `1` is still rejected.

    Then one checked loop per label (`tables`, `lists`) writes each entry's
    rank straight into the store.  An unranked value raises its own parse
    error when its entry is reached, so the first fault in the order of
    the checks is the one reported; `l` counts the distinct edge degrees.
    The loops must read the value objects the ranking step read, so
    entries come in lists or tuples (`_as_sequence`), not iterators."""

    def __init__(self, algebra: Algebra, columns: Iterable[Iterable], edge_columns: Iterable[Iterable]):
        parse = self.parse = algebra.parse_degree
        self._edge_keys = _keys(edge_columns)
        keys = self._values = _keys(columns)  # keeps every value read
        keys.update(self._edge_keys)
        ranks: dict = {}  # per text, or per id of another value, its rank
        by_value: dict[Degree, list] = {}
        for key, value in keys.items():
            try:
                degree = parse(value)
            except UsageError:
                continue  # raised again when the loop reaches its entry
            if degree:  # bottom is falsy
                by_value.setdefault(degree, []).append(key)
            else:
                ranks[key] = 0
        ascending = sorted(by_value)
        for rank, degree in enumerate(ascending, 1):
            for key in by_value[degree]:
                ranks[key] = rank
        if ascending and ascending[-1] == algebra.top:
            ascending.pop()
        ascending.append(algebra.top)  # always kept, as the algebra's own object
        self.ranks = ranks
        self.levels: tuple[Degree, ...] = (algebra.bottom, *ascending)

    @property
    def l(self) -> int:
        """The number of distinct edge degrees, once every entry is read."""
        return len({self.ranks[key] for key in self._edge_keys})

    def rank(self, value) -> int:
        """A read value's rank; a value the ranking step could not parse
        raises its own parse error here."""
        rank = self.ranks.get(value if type(value) is str else id(value))
        if rank is None:
            self.parse(value)
            raise AssertionError(f"degree {value!r} was read but not ranked")
        return rank

    def tables(self, entries: Iterable[tuple[str, int, object]], labels: Iterable[str] = ()
               ) -> _Tables:
        """Per label, the {x: rank} table of (label, x, degree) entries
        without bottom degrees; each of `labels`, and each label an entry
        names, gets a table, an empty one included."""
        tables: _Tables = {label: {} for label in labels}
        ranks = self.ranks
        for label, x, value in entries:
            rank = ranks.get(value if type(value) is str else id(value))
            if rank is None:
                rank = self.rank(value)
            table = tables.setdefault(label, {})
            if rank:
                table[x] = rank
        return tables

    def lists(self, ids: Mapping[str, int], groups: Iterable[tuple[str, Sequence]],
              name: str) -> dict[str, _EdgeLists]:
        """Per label, the per-target (source, rank) lists of [source, target,
        degree] entries, in the entries' order.  Checks each entry's shape,
        degree (not bottom), names and pair (new under its label), in that
        order; `name.format(source, label, target)` names it in errors.  The
        loop checks all but the pair, which is checked once the label's
        lists are built; on any fault `_fault` reads the entries again to
        report the first."""
        n, ranks = len(ids), self.ranks
        incoming: dict[str, _EdgeLists] = {}
        for label, entries in groups:
            lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            for entry in entries:
                try:
                    src, tgt, value = entry
                    s, t = ids[src], ids[tgt]  # a name found is a str
                except (TypeError, ValueError, KeyError):
                    self._fault(ids, label, entries, entry, name)
                rank = ranks.get(value if type(value) is str else id(value))
                if not (rank and isinstance(entry, (list, tuple))):
                    self._fault(ids, label, entries, entry, name)
                lists[t].append((s, rank))
            if _repeats_a_source(lists):
                self._fault(ids, label, entries, None, name)
            incoming[label] = tuple(map(tuple, lists))
        return incoming

    def _fault(self, ids: Mapping[str, int], label: str, entries: Sequence, entry,
               name: str) -> None:
        """Raise the first fault among a label's entries up to `entry`, the
        first that failed the loop's checks (None: past the last): a pair
        repeated before it, else its shape, then its degree, then its
        names.  The entries before it passed every check but the pair's."""
        seen: set[tuple[str, str]] = set()
        for earlier in entries:
            if earlier is entry:
                break
            src, tgt, _ = earlier
            if (src, tgt) in seen:
                raise UsageError(f"duplicate {name.format(src, label, tgt)}")
            seen.add((src, tgt))
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise UsageError(f"entry {entry!r} of {label!r} must be [from, to, degree]")
        src, tgt, value = entry
        entry_name = name.format(src, label, tgt)
        if not self.ranks.get(value if type(value) is str else id(value)):
            self.rank(value)
            raise UsageError(f"{entry_name} has degree 0; omit it")
        unknown = src if src not in ids else tgt
        raise UsageError(f"unknown name {unknown!r} in {entry_name}")


def _repeats_a_source(lists: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """Whether some per-target list holds a source twice, that is, whether
    a (source, target) pair repeats; one int per vertex, no set of pairs."""
    last = [-1] * len(lists)  # per source, the last target it was seen at
    for t, sources in enumerate(lists):
        if len(sources) > 1:
            for s, _ in sources:
                if last[s] == t:
                    return True
                last[s] = t
    return False


def _as_sequence(entries: Iterable) -> Sequence:
    """Entries as a list or tuple, which `_Reader` can read twice."""
    return entries if isinstance(entries, (list, tuple)) else list(entries)


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
        vertex_labels = vertex_labels or {}
        edges = _as_sequence(edges)
        reader = _Reader(algebra, (labels.values() for labels in vertex_labels.values()),
                         (_column((edges,), 3),))
        labels = reader.tables(  # a vertex name is checked also when it has no label
            (label, v, degree) for vname, assignment in vertex_labels.items()
            for v in (self.vertex_id(vname),) for label, degree in assignment.items())
        groups: dict[str, list[tuple[str, str, Degree]]] = {}
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 4 and isinstance(entry[0], str)
                    and isinstance(entry[1], str) and isinstance(entry[2], str)):
                raise UsageError(f"edge {entry!r} must be [from, label, to, degree]")
            groups.setdefault(entry[1], []).append((entry[0], entry[2], entry[3]))
        incoming = reader.lists(self._id, groups.items(), "edge ({0},{1},{2})")
        self._build(algebra, names, labels, incoming, reader.levels, reader.l)

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
