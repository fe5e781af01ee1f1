"""Shared instance builders for the test suite, the name-based builders kept
as oracles for the id-built graph encoding, quotient and pruning and for
the disjoint union of `largest_bisimulation` (`union_graph_by_names`), the
out-adjacency oracles for `initial_partition` and `is_stable`, the pairwise
fixpoint kept as the oracle for `largest_bisimulation`, the aggregate
invariant checked after each `compcb` iteration, the partition, graph,
aggregate and role reads only tests need (`refines`, `label_vector`,
`aggregate_size`, `role_instances`), the dict-built document kept as the
oracle for the streamed writer (`interpretation_dict`), the degree-keyed
oracle for an interpretation's concept degrees, initial partition and
statistics (`degree_oracle`), the two-pass document reader kept as the
oracle for `graph._Reader` (`interpretation_by_triples`,
`graph_by_triples`), the dense evaluator kept as the differential oracle
for `eval_concept` and `eval_role`, and the Kleene iteration that closed
`R*` before the evaluator's one search per star, kept as that search's
oracle."""

from fuzzmin import FeatureSet, FuzzyGraph, GraphStats, Interpretation, Partition, UsageError
from fuzzmin.algebra import bundled_lattice_path, load_lattice, make_algebra
from fuzzmin.fdl import (
    AndConcept,
    BaazConcept,
    ComposeRole,
    ConceptName,
    ConstantConcept,
    ExistsConcept,
    ForallConcept,
    ImpliesConcept,
    InverseRole,
    Nominal,
    NotConcept,
    OrConcept,
    RoleName,
    StarRole,
    TestRole,
    UnionRole,
    UniversalRole,
    _check_signatures,
    block_name,
)
from fuzzmin.generate import GeneratorParams, random_graph
from fuzzmin.graph import _ids
from fuzzmin.refine import _Refiner

# baseline feature configuration used by most golden tests
PSI = ["baaz", "comp", "union", "star", "test", "universal"]

PHI_PSI = FeatureSet.from_names(PSI)
PHI_O = FeatureSet.from_names(PSI + ["nominal"])
PHI_I = FeatureSet.from_names(PSI + ["inverse"])
PHI_IO = FeatureSet.from_names(PSI + ["inverse", "nominal"])


def chain_interp(algebra) -> Interpretation:
    """Three elements, one concept, three role instances; the evaluation
    golden-table instance."""
    return Interpretation(
        algebra,
        ["a", "b", "c"],
        concepts={"A": {"a": "1", "b": "0.6", "c": "0.9"}},
        roles={"r": [("a", "b", "0.8"), ("a", "c", "0.5"), ("b", "c", "0.7")]},
    )


def collapse_interp(algebra) -> Interpretation:
    """Three elements where two are bisimilar (v and w collapse)."""
    return Interpretation(
        algebra,
        ["u", "v", "w"],
        individuals={"a": "u"},
        concepts={"A": {"u": "1", "v": "0.5", "w": "0.5"}},
        roles={"r": [("u", "v", "0.7"), ("u", "w", "0.9"), ("v", "v", "0.6"),
                     ("v", "w", "0.8"), ("w", "v", "0.8")]},
    )


def collapsed_twin(algebra) -> Interpretation:
    """The two-element interpretation collapse_interp minimizes to."""
    return Interpretation(
        algebra,
        ["u'", "v'"],
        individuals={"a": "u'"},
        concepts={"A": {"u'": "1", "v'": "0.5"}},
        roles={"r": [("u'", "v'", "0.9"), ("v'", "v'", "0.8")]},
    )


def two_component_interp(algebra) -> Interpretation:
    """Eight elements in two components; one named individual o -> a.

    Minimizes to 2, 3 or 7 elements depending on the enabled features.
    """
    return Interpretation(
        algebra,
        ["a", "b", "c", "d", "e", "a2", "b2", "b3"],
        individuals={"o": "a"},
        roles={"r": [("a", "b", "0.8"), ("a2", "b2", "0.8"), ("a2", "b3", "0.8"),
                     ("b", "c", "0.7"), ("b", "d", "1"), ("c", "e", "1"),
                     ("d", "e", "1"), ("e", "d", "1"),
                     ("b2", "b2", "1"), ("b3", "b3", "1")]},
    )


def collapse_graph(algebra) -> FuzzyGraph:
    """collapse_interp as a labeled graph (one vertex label, one edge label)."""
    return FuzzyGraph(
        algebra,
        ["u", "v", "w"],
        {"u": {"A": "1"}, "v": {"A": "0.5"}, "w": {"A": "0.5"}},
        [("u", "r", "v", "0.7"), ("u", "r", "w", "0.9"), ("v", "r", "v", "0.6"),
         ("v", "r", "w", "0.8"), ("w", "r", "v", "0.8")],
    )


def role_instances(i, rname) -> dict[tuple[int, int], object]:
    """Role rname of an interpretation as an {(x, y): degree} table, by
    target, read off its per-target lists."""
    return {(s, t): i.levels[rank] for t, sources in enumerate(i._adjacency(rname, True))
            for s, rank in sources}


def interpretation_dict(i) -> dict:
    """The JSON document of an interpretation built as nested dicts and
    lists: the oracle for the streamed writer, `interpretation_json_pieces`,
    whose text is `json.dumps(interpretation_dict(i), indent=1) + "\\n"`."""
    texts = [i.algebra.format_degree(degree) for degree in i.levels]
    return {
        "domain": list(i.names),
        "individuals": {a: i.names[x] for a, x in sorted(i.individuals.items())},
        "concepts": {
            cname: {i.names[x]: texts[rank] for x, rank in sorted(i._concepts[cname].items())}
            for cname in i.concept_names
        },
        "roles": {
            rname: [[i.names[x], i.names[y], texts[rank]]
                    for x, successors in enumerate(i._adjacency(rname, False))
                    for y, rank in successors]
            for rname in i.role_names
        },
    }


def blocks_by_names(partition, names) -> set[frozenset[str]]:
    return {frozenset(names[v] for v in block) for block in partition.blocks}


def _encoding_by_names(i, phi, prefix: str = "") -> tuple[list, dict, list]:
    """The vertex names, vertex labels and edges of an interpretation's
    graph encoding, each element name prefixed with `prefix`."""
    names = [prefix + name for name in i.names]
    vertex_labels: dict = {}
    for cname in i.concept_names:
        for x in range(i.n):
            degree = i.concept_degree(cname, x)
            if degree != i.algebra.bottom:
                vertex_labels.setdefault(names[x], {})[cname] = degree
    if phi.nominal:
        for a in i.individual_names:
            vertex_labels.setdefault(names[i.individuals[a]], {})[a] = i.algebra.top
    edges = []
    for rname in i.role_names:
        for (x, y), degree in role_instances(i, rname).items():
            edges.append((names[x], rname, names[y], degree))
    if phi.inverse:
        for rname in i.role_names:
            if rname + "-" in i.role_names:
                raise UsageError(f"role name {rname + '-'!r} collides with an inverse label")
            for (x, y), degree in role_instances(i, rname).items():
                edges.append((names[y], rname + "-", names[x], degree))
    return names, vertex_labels, edges


def graph_by_names(i, phi) -> FuzzyGraph:
    """The graph encoding of an interpretation, built through the validating
    name-based constructor: the oracle for `interpretation_to_graph`."""
    return FuzzyGraph(i.algebra, *_encoding_by_names(i, phi))


def union_graph_by_names(i1, i2, phi) -> FuzzyGraph:
    """The graph encoding of the disjoint union of two interpretations,
    built through the validating constructor with the element names
    prefixed "1:" and "2:": the oracle for `graph._union_store`."""
    names1, labels1, edges1 = _encoding_by_names(i1, phi, "1:")
    names2, labels2, edges2 = _encoding_by_names(i2, phi, "2:")
    return FuzzyGraph(i1.algebra, names1 + names2, {**labels1, **labels2}, edges1 + edges2)


def quotient_by_names(i, p) -> Interpretation:
    """The quotient built through element names and the validating
    constructor: the oracle for `quotient`."""
    member_lists = p.to_names(i.names)
    domain = [block_name(members) for members in member_lists]
    elem_to_block: dict[int, int] = {}
    for bi, members in enumerate(member_lists):
        for name in members:
            elem_to_block[i.element_id(name)] = bi

    individuals = {a: domain[elem_to_block[x]] for a, x in i.individuals.items()}
    concepts = {
        cname: {
            domain[bi]: i.concept_degree(cname, i.element_id(members[0]))
            for bi, members in enumerate(member_lists)
        }
        for cname in i.concept_names
    }
    roles: dict = {}
    for rname in i.role_names:
        table: dict = {}
        for (x, y), degree in role_instances(i, rname).items():
            key = (domain[elem_to_block[x]], domain[elem_to_block[y]])
            if degree > table.get(key, i.algebra.bottom):
                table[key] = degree
        roles[rname] = [(src, tgt, degree) for (src, tgt), degree in table.items()]
    return Interpretation(i.algebra, domain, individuals, concepts, roles)


def prune_by_names(i, phi) -> Interpretation:
    """`prune_unreachable` through element names and the validating
    constructor, with its own breadth-first search: the oracle for it."""
    keys = [(r, False) for r in i.role_names]
    if phi.inverse:
        keys += [(r, True) for r in i.role_names]
    seen = set(i.individuals.values())
    stack = list(seen)
    while stack:
        x = stack.pop()
        for rname, inverted in keys:
            for (s, t) in role_instances(i, rname):
                source, target = (t, s) if inverted else (s, t)
                if source == x and target not in seen:
                    seen.add(target)
                    stack.append(target)
    names = [i.names[x] for x in range(i.n) if x in seen]
    concepts = {
        cname: {i.names[x]: i.concept_degree(cname, x) for x in range(i.n) if x in seen}
        for cname in i.concept_names
    }
    roles = {
        rname: [
            (i.names[x], i.names[y], degree)
            for (x, y), degree in role_instances(i, rname).items()
            if x in seen and y in seen
        ]
        for rname in i.role_names
    }
    individuals = {a: i.names[x] for a, x in i.individuals.items()}
    return Interpretation(i.algebra, names, individuals, concepts, roles)


# --- the two-pass document reader --------------------------------------------

class TriplesReader:
    """The document reader `graph._Reader` replaced: `k(value)` checks a
    degree once and gives its index into `degrees`, 0 for bottom; a `str`
    text is parsed once per text, any other value once per object, each
    value kept so that no id is reused.  `tables` and `triples` read the
    entries into `k`s, which `ranked_store_by_ks` then ranks in a second
    pass."""

    def __init__(self, algebra):
        self.parse = algebra.parse_degree
        self.degrees = [algebra.bottom]
        self._ks: dict = {}
        self._kept: list = []

    def k(self, value) -> int:
        key = value if type(value) is str else id(value)
        k = self._ks.get(key)
        if k is None:
            degree = self.parse(value)
            self._kept.append(value)
            k = self._ks[key] = len(self.degrees) if degree else 0
            if k:
                self.degrees.append(degree)
        return k

    def tables(self, entries, labels=()) -> dict:
        tables: dict = {label: {} for label in labels}
        for label, x, value in entries:
            k = self.k(value)
            table = tables.setdefault(label, {})
            if k:
                table[x] = k
        return tables

    def triples(self, ids, groups, name) -> dict:
        n = len(ids)
        triples: dict = {}
        for label, entries in groups:
            seen: set = set()
            found = triples[label] = []
            for entry in entries:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and isinstance(entry[0], str) and isinstance(entry[1], str)):
                    raise UsageError(f"entry {entry!r} of {label!r} must be [from, to, degree]")
                src, tgt, value = entry
                k = self.k(value)
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


def ranked_store_by_ks(algebra, n, tables, triples, degrees) -> tuple:
    """The second pass: the tables' and triples' `k`s ranked by value into
    `levels` (bottom, the distinct degrees ascending, top), with the
    {x: rank} tables, the per-target (source, rank) lists and `l`."""
    edge_ks = {k for found in triples.values() for _, _, k in found}
    by_value: dict = {algebra.top: []}
    for k in edge_ks.union(*(table.values() for table in tables.values())):
        by_value.setdefault(degrees[k], []).append(k)
    ascending = sorted(by_value)
    rank_of = [0] * len(degrees)
    for rank, degree in enumerate(ascending, 1):
        for k in by_value[degree]:
            rank_of[k] = rank
    incoming: dict = {}
    for label, found in triples.items():
        lists: list = [[] for _ in range(n)]
        for s, t, k in found:
            lists[t].append((s, rank_of[k]))
        incoming[label] = tuple(map(tuple, lists))
    ranked = {label: {x: rank_of[k] for x, k in table.items()} for label, table in tables.items()}
    return ranked, incoming, (algebra.bottom, *ascending), len({rank_of[k] for k in edge_ks})


def interpretation_by_triples(algebra, domain, individuals=None, concepts=None, roles=None):
    """`Interpretation(algebra, domain, individuals, concepts, roles)` read by
    the two-pass reader: the same checks in the same order."""
    if not domain:
        raise UsageError("interpretation domain must be non-empty")
    names = tuple(domain)
    i = Interpretation.__new__(Interpretation)
    i._id = _ids(names, "element")
    individual_ids = {a: i.element_id(elem) for a, elem in (individuals or {}).items()}
    reader = TriplesReader(algebra)
    concepts = concepts or {}
    tables = reader.tables(((cname, i.element_id(elem), degree)
                            for cname, assignment in concepts.items()
                            for elem, degree in assignment.items()), concepts)
    triples = reader.triples(i._id, (roles or {}).items(), "role instance {1}({0},{2})")
    i._build(algebra, names, individual_ids,
             *ranked_store_by_ks(algebra, len(names), tables, triples, reader.degrees))
    return i


def graph_by_triples(algebra, vertices, vertex_labels=None, edges=()):
    """`FuzzyGraph(algebra, vertices, vertex_labels, edges)` read by the
    two-pass reader: the same checks in the same order."""
    names = tuple(vertices)
    g = FuzzyGraph.__new__(FuzzyGraph)
    g._id = _ids(names, "vertex")
    reader = TriplesReader(algebra)
    labels = reader.tables(
        (label, v, degree) for vname, assignment in (vertex_labels or {}).items()
        for v in (g.vertex_id(vname),) for label, degree in assignment.items())
    groups: dict = {}
    for entry in edges:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4 and isinstance(entry[0], str)
                and isinstance(entry[1], str) and isinstance(entry[2], str)):
            raise UsageError(f"edge {entry!r} must be [from, label, to, degree]")
        groups.setdefault(entry[1], []).append((entry[0], entry[2], entry[3]))
    triples = reader.triples(g._id, groups.items(), "edge ({0},{1},{2})")
    g._build(algebra, names, *ranked_store_by_ks(algebra, len(names), labels, triples, reader.degrees))
    return g


# --- out-adjacency oracles ---------------------------------------------------

def oracle_graphs() -> list[FuzzyGraph]:
    """Seeded random graphs over the four kinds of algebra (with and without
    vertex labels, one without edges), plus a hand-built graph with
    self-loops, an isolated vertex, two edge labels on one pair and a
    vertex label at bottom."""
    backends = [make_algebra("godel"), make_algebra("product"), make_algebra("lukasiewicz"),
                load_lattice(bundled_lattice_path("godel5"))]
    shapes = [
        GeneratorParams(n_min=1, n_max=16, edge_factor=4, pool_size=4, vertex_labels=2, edge_labels=3),
        GeneratorParams(n_min=2, n_max=24, edge_factor=2, pool_size=3, vertex_labels=0, edge_labels=2),
        GeneratorParams(n_min=1, n_max=12, edge_factor=0, pool_size=3, vertex_labels=1, edge_labels=2),
    ]
    graphs = [random_graph(shapes[k % 3], 6000 + k, backends[k % 4]) for k in range(48)]
    graphs.append(FuzzyGraph(
        backends[0],
        ["a", "b", "c", "d", "e"],
        {"a": {"A": "1"}, "b": {"A": "1"}, "c": {"A": "0"}},
        [("a", "r", "a", "0.5"), ("b", "r", "b", "0.5"), ("a", "r", "c", "0.5"),
         ("a", "s", "c", "0.9"), ("c", "s", "d", "0.9"), ("d", "r", "d", "1")],
    ))
    return graphs


def label_vector(g, v) -> tuple:
    """Dense label degrees of vertex v, one per label table in sorted name
    order, each rank read back through `levels`."""
    return tuple(g.levels[g._labels[name].get(v, 0)] for name in g.vertex_label_names)


def degree_oracle(algebra, doc, phi) -> tuple[dict, Partition, GraphStats]:
    """From an interpretation document, each degree text parsed on its own
    by `algebra.parse_degree` and keyed by its value: per concept the
    {element id: degree} map of its non-bottom degrees, the initial
    partition of the graph encoding under phi (elements keyed on their
    concept degrees, nominals and per-role sup degrees, r- too under
    inverse) and its statistics, `l` the number of distinct role degrees."""
    names = doc["domain"]
    n, ids, bottom = len(names), {name: x for x, name in enumerate(names)}, algebra.bottom
    concepts = {cname: {ids[name]: d for name, d in ((name, algebra.parse_degree(text))
                                                      for name, text in table.items()) if d != bottom}
                for cname, table in doc.get("concepts", {}).items()}
    instances = [(rname, ids[x], ids[y], algebra.parse_degree(text))
                 for rname, entries in doc.get("roles", {}).items() for x, y, text in entries]
    sups: dict = {}
    for rname, x, y, d in instances:
        for key in ((x, rname), (y, rname + "-")) if phi.inverse else ((x, rname),):
            sups[key] = max(sups.get(key, bottom), d)
    labels = sorted({label for _, label in sups})
    individuals = doc.get("individuals", {}) if phi.nominal else {}
    groups: dict = {}
    for x in range(n):
        key = (tuple(concepts[cname].get(x, bottom) for cname in sorted(concepts)),
               tuple(ids[individuals[a]] == x for a in sorted(individuals)),
               tuple(sups.get((x, label), bottom) for label in labels))
        groups.setdefault(key, []).append(x)
    stats = GraphStats(n, len(instances) * (2 if phi.inverse else 1),
                       len({d for _, _, _, d in instances}))
    return concepts, Partition(groups.values(), n), stats


def out_maps(g) -> list[dict]:
    """Per vertex and edge label, a dict of target -> degree, from `edges`."""
    out: list[dict] = [{} for _ in range(g.n)]
    for s, label, t, degree in g.edges:
        out[s].setdefault(label, {})[t] = degree
    return out


def initial_partition_by_out_maps(g) -> Partition:
    """Vertices grouped by label vector and per-label sup of all outgoing
    degrees, read from per-vertex outgoing maps: the oracle for
    `FuzzyGraph.initial_partition`."""
    out = out_maps(g)
    groups: dict = {}
    for v in range(g.n):
        sups = tuple(
            max(out[v].get(label, {}).values(), default=g.algebra.bottom)
            for label in g.edge_label_names
        )
        groups.setdefault((label_vector(g, v), sups), []).append(v)
    return Partition(groups.values(), g.n)


def initial_blocks_by_columns(g) -> list[list[int]]:
    """`FuzzyGraph._initial_blocks` by the dense rule: one column of n values
    per vertex label and per edge label, vertices keyed on the tuple of their
    column values and grouped in vertex order.  The oracle for the sparse
    class splits, block order and member order included."""
    columns = [list(column) for column in zip(*(label_vector(g, v) for v in range(g.n)))]
    for label in g.edge_label_names:
        sup = [0] * g.n
        for sources in g.incoming(label):
            for s, rank in sources:
                sup[s] = max(sup[s], rank)
        columns.append(sup)
    groups: dict[tuple, list[int]] = {}
    for v, key in enumerate(zip(*columns) if columns else [()] * g.n):
        groups.setdefault(key, []).append(v)
    return list(groups.values())


def is_stable_by_out_edges(g, p) -> bool:
    """Stability checked vertex by vertex from `out_maps`, comparing the
    sup degree into every (label, block) pair within each block: the oracle
    for `is_stable`."""
    bottom = g.algebra.bottom
    out = out_maps(g)
    for block in p.blocks:
        reference = None
        for v in sorted(block):
            mine: dict = {}
            for label, targets in out[v].items():
                for t, degree in targets.items():
                    key = (label, p.block_index(t))
                    if degree > mine.get(key, bottom):
                        mine[key] = degree
            if reference is None:
                reference = mine
            elif mine != reference:
                return False
    return True


# --- pairwise fixpoint oracle ----------------------------------------------

def largest_bisimulation_by_fixpoint(
    i1: Interpretation, i2: Interpretation, phi: FeatureSet
) -> set[tuple[int, int]]:
    """Greatest relation satisfying the bisimulation conditions, by fixpoint
    refinement of the full pair set.

    When the universal role is enabled and the fixpoint is not total and
    surjective, the empty relation is returned: any non-empty bisimulation
    would have to be total and surjective, and all candidates are subsets
    of the fixpoint.
    """
    _check_signatures(i1, i2)
    keep: set[tuple[int, int]] = set()
    for x in range(i1.n):
        for xp in range(i2.n):
            if any(
                i1.concept_degree(c, x) != i2.concept_degree(c, xp)
                for c in i1.concept_names
            ):
                continue
            if phi.nominal and any(
                (x == i1.individuals[a]) != (xp == i2.individuals[a])
                for a in i1.individual_names
            ):
                continue
            keep.add((x, xp))

    def successors(i, rname, inverted) -> list[list]:
        out: list[list] = [[] for _ in range(i.n)]
        for (x, y), d in role_instances(i, rname).items():
            if inverted:
                x, y = y, x
            out[x].append((y, d))
        return out

    inversions = (False, True) if phi.inverse else (False,)
    outs = [
        (successors(i1, r, inv), successors(i2, r, inv))
        for inv in inversions for r in i1.role_names
    ]
    changed = True
    while changed:
        changed = False
        for x, xp in sorted(keep):
            ok = True
            for out1, out2 in outs:
                if not all(
                    any(dp >= d and (y, yp) in keep for yp, dp in out2[xp])
                    for y, d in out1[x]
                ):
                    ok = False
                    break
                if not all(
                    any(d >= dp and (y, yp) in keep for y, d in out1[x])
                    for yp, dp in out2[xp]
                ):
                    ok = False
                    break
            if not ok:
                keep.discard((x, xp))
                changed = True

    if phi.universal and keep:
        if {x for x, _ in keep} != set(range(i1.n)) or {xp for _, xp in keep} != set(range(i2.n)):
            return set()
    return keep


def refines(p: Partition, q: Partition) -> bool:
    """True when every block of p is contained in some block of q."""
    if p.n != q.n:
        return False
    return all(block <= q.blocks[q.block_index(min(block))] for block in p.blocks)


def aggregate_size(agg) -> int:
    """Number of degrees a `DegreeAggregate` holds, copies counted."""
    return sum(agg._counts.values())


def check_aggregates(refiner: _Refiner) -> None:
    """Invariant of a `compcb` run, on the state the engine reads: every
    source whose block has two or more vertices has an aggregate into a
    Q-block that holds one rank per edge into it, whose max is the rank of
    a fresh sup.  A source alone in its block never splits, so its
    aggregates are never read and may be missing or stale.  An initial
    Q-block (qid below L * |P0|) is counted on its first split, so until
    the loop has split it (its head still 0) it holds None."""
    sizes = [len(refiner.members[bid]) for bid in refiner.blk]
    initial = len(refiner.labels) * len(refiner.g.initial_partition())
    for qid, aggs in enumerate(refiner.agg):
        if aggs is None:
            assert qid < initial and refiner.qhead[qid] == 0, \
                f"q{qid} holds no aggregates, but it is not an unsplit initial Q-block"
            continue
        incoming = refiner.incoming[refiner.qlabel[qid]]
        fresh: dict[int, int] = {}
        edges = 0
        for y in refiner._vertices(qid):
            for x, rank in incoming[y]:
                if sizes[x] >= 2:
                    edges += 1
                    fresh[x] = max(rank, fresh.get(x, 0))
        read = {x: agg for x, agg in aggs.items() if sizes[x] >= 2}
        held = {x: agg if type(agg) is int else agg.max() for x, agg in read.items()}
        assert held == fresh, f"q{qid} aggregates hold sup ranks {held}, expected {fresh}"
        held_edges = sum(1 if type(agg) is int else aggregate_size(agg) for agg in read.values())
        assert held_edges == edges, f"q{qid} aggregates hold {held_edges} of {edges} edges"


def compcb_checked(g) -> Partition:
    """`compcb(g)`, running `check_aggregates` after set-up and after every
    iteration."""
    refiner = _Refiner(g)
    check_aggregates(refiner)
    return refiner.run(on_iteration=lambda _step: check_aggregates(refiner))


# --- dense oracle ------------------------------------------------------------

def dense_role_matrix(i, role) -> list[list]:
    """Degree matrix of a complex role, built from n x n matrices."""
    alg = i.algebra
    bottom, top = alg.bottom, alg.top
    n = i.n
    if isinstance(role, RoleName):
        rows = [[bottom] * n for _ in range(n)]
        for (x, y), degree in role_instances(i, role.name).items():
            rows[x][y] = degree
        return rows
    if isinstance(role, UniversalRole):
        return [[top] * n for _ in range(n)]
    if isinstance(role, InverseRole):
        child = dense_role_matrix(i, role.child)
        return [[child[y][x] for y in range(n)] for x in range(n)]
    if isinstance(role, UnionRole):
        left = dense_role_matrix(i, role.left)
        right = dense_role_matrix(i, role.right)
        return [[max(left[x][y], right[x][y]) for y in range(n)] for x in range(n)]
    if isinstance(role, ComposeRole):
        left = dense_role_matrix(i, role.left)
        right = dense_role_matrix(i, role.right)
        rows = [[bottom] * n for _ in range(n)]
        for x in range(n):
            for z in range(n):
                if left[x][z] == bottom:
                    continue
                for y in range(n):
                    if right[z][y] == bottom:
                        continue
                    cand = alg.tnorm(left[x][z], right[z][y])
                    if cand > rows[x][y]:
                        rows[x][y] = cand
        return rows
    if isinstance(role, StarRole):
        # closure over the (max, tnorm) semiring; path degrees never grow
        # along a path, so one all-intermediates sweep with a top diagonal
        # is exact
        rows = [list(r) for r in dense_role_matrix(i, role.child)]
        for x in range(n):
            rows[x][x] = top
        for k in range(n):
            for x in range(n):
                if rows[x][k] == bottom:
                    continue
                for y in range(n):
                    if rows[k][y] == bottom:
                        continue
                    cand = alg.tnorm(rows[x][k], rows[k][y])
                    if cand > rows[x][y]:
                        rows[x][y] = cand
        return rows
    if isinstance(role, TestRole):
        values = dense_concept_values(i, role.concept)
        rows = [[bottom] * n for _ in range(n)]
        for x in range(n):
            rows[x][x] = values[x]
        return rows
    raise UsageError(f"unknown role node {role!r}")


def dense_concept_values(i, concept) -> list:
    """Degree of a concept at every element, with some/all read off the
    dense role matrix: sup_y R(x,y) * C(y) and inf_y R(x,y) => C(y)."""
    return _oracle_concept_values(i, concept, _dense_modal)


def _dense_modal(i, role, v, some) -> list:
    alg = i.algebra
    rows = dense_role_matrix(i, role)
    n = i.n
    if some:
        return [max((alg.tnorm(rows[x][y], v[y]) for y in range(n) if rows[x][y] != alg.bottom),
                    default=alg.bottom) for x in range(n)]
    return [min(alg.residuum(rows[x][y], v[y]) for y in range(n)) for x in range(n)]


def _oracle_concept_values(i, concept, modal) -> list:
    """Degree of a concept at every element, `some R . C` and `all R . C`
    given by modal(i, R, values of C, some)."""
    alg = i.algebra
    n = i.n
    if isinstance(concept, ConstantConcept):
        return [alg.check(concept.value)] * n
    if isinstance(concept, ConceptName):
        return [i.concept_degree(concept.name, x) for x in range(n)]
    if isinstance(concept, Nominal):
        elem = i.individual_element(concept.individual)
        return [alg.top if x == elem else alg.bottom for x in range(n)]
    if isinstance(concept, BaazConcept):
        return [alg.baaz(v) for v in _oracle_concept_values(i, concept.child, modal)]
    if isinstance(concept, NotConcept):
        return [alg.neg(v) for v in _oracle_concept_values(i, concept.child, modal)]
    if isinstance(concept, (AndConcept, OrConcept, ImpliesConcept)):
        left = _oracle_concept_values(i, concept.left, modal)
        right = _oracle_concept_values(i, concept.right, modal)
        op = {AndConcept: alg.tnorm, OrConcept: alg.snorm, ImpliesConcept: alg.residuum}[type(concept)]
        return [op(left[x], right[x]) for x in range(n)]
    if isinstance(concept, (ForallConcept, ExistsConcept)):
        child = _oracle_concept_values(i, concept.child, modal)
        return modal(i, concept.role, child, isinstance(concept, ExistsConcept))
    raise UsageError(f"unknown concept node {concept!r}")


# --- Kleene oracle -----------------------------------------------------------

def kleene_concept_values(i, concept) -> list:
    """Degree of a concept at every element, with every `R*` closed by
    Kleene iteration (`kleene_modal`): the oracle for the evaluator's
    one search per star."""
    return _oracle_concept_values(i, concept, kleene_modal)


def kleene_modal(i, role, v, some, inverted=False) -> list:
    """some R.v, or all R.v when not `some`, one vector step per node;
    `R*` is the least (for all, greatest) w with w = join(v, R.w), found
    by plain iteration.  Degrees never grow along a path, so the iteration
    settles, but after up to n rounds of one step of R each."""
    alg = i.algebra
    join, step = (max, alg.tnorm) if some else (min, alg.residuum)
    if isinstance(role, InverseRole):
        return kleene_modal(i, role.child, v, some, not inverted)
    if isinstance(role, RoleName):
        out = [alg.bottom if some else alg.top] * i.n
        for (x, y), degree in role_instances(i, role.name).items():
            if inverted:
                x, y = y, x
            out[x] = join(out[x], step(degree, v[y]))
        return out
    if isinstance(role, UniversalRole):
        return [step(alg.top, join(v))] * i.n
    if isinstance(role, TestRole):
        return list(map(step, kleene_concept_values(i, role.concept), v))
    if isinstance(role, UnionRole):
        return list(map(join, kleene_modal(i, role.left, v, some, inverted),
                        kleene_modal(i, role.right, v, some, inverted)))
    if isinstance(role, ComposeRole):
        # R ; S applies S first, and R first under an inverse: (R ; S)- = S- ; R-
        first, second = (role.left, role.right) if inverted else (role.right, role.left)
        return kleene_modal(i, second, kleene_modal(i, first, v, some, inverted), some, inverted)
    if isinstance(role, StarRole):
        w = v
        while True:
            nxt = list(map(join, v, kleene_modal(i, role.child, w, some, inverted)))
            if nxt == w:
                return w
            w = nxt
    raise UsageError(f"unknown role node {role!r}")
