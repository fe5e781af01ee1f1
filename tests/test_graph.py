import json
import random
from fractions import Fraction as F

import pytest

from fuzzmin import (
    FuzzyGraph,
    GodelAlgebra,
    Interpretation,
    UsageError,
    graph_from_json,
    interpretation_to_graph,
    load_graph,
)
from fuzzmin.algebra import bundled_lattice_path, load_lattice, make_algebra
from fuzzmin.generate import degree_pool
from helpers import (
    PHI_I,
    PHI_IO,
    PHI_PSI,
    blocks_by_names,
    collapse_graph,
    initial_blocks_by_columns,
    initial_partition_by_out_maps,
    label_vector,
    oracle_graphs,
    out_maps,
    two_component_interp,
)

GODEL = GodelAlgebra()


def test_initial_partition_goldens():
    g = collapse_graph(GODEL)
    assert blocks_by_names(g.initial_partition(), g.names) == {
        frozenset({"u"}), frozenset({"v", "w"})
    }

    single = FuzzyGraph(GODEL, ["x"])
    assert blocks_by_names(single.initial_partition(), single.names) == {frozenset({"x"})}

    big = interpretation_to_graph(two_component_interp(GODEL), PHI_PSI)
    assert big.vertex_label_names == ()
    assert blocks_by_names(big.initial_partition(), big.names) == {
        frozenset({"a", "a2"}),
        frozenset({"b", "b2", "b3", "c", "d", "e"}),
    }


def test_initial_partition_groups_have_equal_labels_and_sups():
    g = collapse_graph(GODEL)
    out = out_maps(g)

    def sup(v, label):
        return max(out[v].get(label, {}).values(), default=g.algebra.bottom)

    p = g.initial_partition()
    for block in p.blocks:
        members = sorted(block)
        first = members[0]
        for v in members[1:]:
            assert label_vector(g, v) == label_vector(g, first)
            for label in g.edge_label_names:
                assert sup(v, label) == sup(first, label)


def test_levels_and_ranked_incoming():
    # one levels tuple for label and edge degrees, top always kept; l counts edge degrees only
    g = collapse_graph(GODEL)
    assert g.levels == (F(0), F("0.5"), F("0.6"), F("0.7"), F("0.8"), F("0.9"), F(1))
    assert g.stats().l == 4
    u, v, w = (g.vertex_id(x) for x in "uvw")
    assert g._labels["A"] == {u: 6, v: 1, w: 1}
    incoming = g.incoming("r")
    assert incoming[u] == ()
    assert incoming[v] == ((u, 3), (v, 2), (w, 4))
    assert incoming[w] == ((u, 5), (v, 4))
    # degrees, not ranks, at the public boundary
    assert out_maps(g)[u]["r"] == {v: F("0.7"), w: F("0.9")}
    assert g.edges[0] == (u, "r", v, F("0.7"))
    assert FuzzyGraph(GODEL, ["x"]).levels == (F(0), F(1))
    # "1/2", "0.5" and "2/4" over two roles or labels: one level, one rank
    i = Interpretation(GODEL, ["a", "b", "c"], roles={
        "r": [("a", "b", "1/2"), ("b", "c", "0.5"), ("c", "a", "1")],
        "s": [("a", "c", "2/4"), ("c", "c", "0.5")]})
    doc = graph_from_json({"vertices": ["a", "b", "c"], "edges": [
        ["a", "r", "b", "1/2"], ["b", "r", "c", "0.5"], ["c", "r", "a", "1"],
        ["a", "s", "c", "2/4"], ["c", "s", "c", "0.5"]]}, GODEL)
    for store in (interpretation_to_graph(i, PHI_PSI), doc):
        assert store.levels == (F(0), F(1, 2), F(1))
        ranks = {label: [rank for sources in store.incoming(label) for _, rank in sources]
                 for label in ("r", "s")}
        assert sorted(ranks["r"]) == [1, 1, 2] and ranks["s"] == [1, 1]


def test_initial_blocks_hash_no_fraction(monkeypatch):
    # label tables hold int ranks, so the start keys on ints, never on Fractions
    i = Interpretation(GODEL, [f"e{k}" for k in range(30)], individuals={"o": "e0"},
                       concepts={"A": {f"e{k}": f"{k % 7}/7" for k in range(30)},
                                 "B": {f"e{k}": f"{k % 3}/6" for k in range(0, 30, 2)}},
                       roles={"r": [(f"e{k}", f"e{(k * 7) % 30}", f"{k % 8 + 1}/8") for k in range(30)]})
    graphs = [interpretation_to_graph(i, phi) for phi in (PHI_PSI, PHI_IO)]
    calls = []
    original = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or original(self))
    hash(F(1, 3))
    assert len(calls) == 1  # the count sees a call
    calls.clear()
    for g in graphs:
        assert len(g._initial_blocks()) > 1
    assert calls == []


def stored_edges(g):
    """Every (source, label, target, degree) held in the incoming lists."""
    return [
        (s, label, t, g.levels[rank])
        for label in g.edge_label_names
        for t, sources in enumerate(g.incoming(label))
        for s, rank in sources
    ]


def seeded_edge_lists():
    """Seeded (n, edges) cases over labels r and s, id-based, in shuffled
    order; each holds a self-loop and one pair under both labels."""
    rng = random.Random(23)
    pool = [F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
    for _ in range(40):
        n = rng.randint(1, 9)
        triples = {(rng.randrange(n), rng.choice("rs"), rng.randrange(n))
                   for _ in range(rng.randint(0, 3 * n))}
        triples |= {(n - 1, "r", n - 1), (0, "r", n - 1), (0, "s", n - 1)}
        edges = [(x, label, y, rng.choice(pool)) for x, label, y in sorted(triples)]
        rng.shuffle(edges)
        yield n, edges


def test_edge_store_holds_each_input_edge_once():
    for k, (n, edges) in enumerate(seeded_edge_lists()):
        names = [f"v{x}" for x in range(n)]
        g = FuzzyGraph(GODEL, names, {}, [(names[x], lab, names[y], str(d)) for x, lab, y, d in edges])
        assert sorted(g.edges) == sorted(edges), f"case {k}"
        assert g.stats().m == len(edges), f"case {k}"
        assert sorted(stored_edges(g)) == sorted(edges), f"case {k}"


def test_encoding_under_inverse_holds_each_role_instance_twice():
    # a role without instances ("q") gives no edge label, forward or reversed
    for k, (n, edges) in enumerate(seeded_edge_lists()):
        names = [f"v{x}" for x in range(n)]
        roles = {"r": [], "s": [], "q": []}
        for x, label, y, d in edges:
            roles[label].append((names[x], names[y], str(d)))
        g = interpretation_to_graph(Interpretation(GODEL, names, roles=roles), PHI_I)
        expected = [(x, label, y, d) for x, label, y, d in edges]
        expected += [(y, label + "-", x, d) for x, label, y, d in edges]
        assert g.edge_label_names == ("r", "r-", "s", "s-"), f"case {k}"
        assert sorted(g.edges) == sorted(expected), f"case {k}"
        assert g.stats().m == len(expected), f"case {k}"
        assert sorted(stored_edges(g)) == sorted(expected), f"case {k}"


def test_edges_ordered_by_label_then_target_then_input_order():
    g = FuzzyGraph(GODEL, ["a", "b", "c"], {}, [
        ("c", "s", "a", "0.5"),
        ("b", "r", "c", "0.7"),
        ("a", "r", "c", "0.9"),
        ("c", "r", "a", "0.6"),
        ("a", "r", "b", "0.4"),
    ])
    assert g.edges == (
        (2, "r", 0, F("0.6")),
        (0, "r", 1, F("0.4")),
        (1, "r", 2, F("0.7")),
        (0, "r", 2, F("0.9")),
        (2, "s", 0, F("0.5")),
    )
    assert list(out_maps(g)[0]["r"].items()) == [(1, F("0.4")), (2, F("0.9"))]


def test_stats_goldens():
    stats = collapse_graph(GODEL).stats()
    assert (stats.n, stats.m, stats.l) == (3, 5, 4)

    empty = FuzzyGraph(GODEL, ["x", "y"])
    assert (empty.stats().m, empty.stats().l) == (0, 0)

    big = interpretation_to_graph(two_component_interp(GODEL), PHI_PSI)
    stats = big.stats()
    assert (stats.n, stats.m, stats.l) == (8, 10, 3)


def test_duplicate_edges_rejected():
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x", "y"], {}, [("x", "r", "y", "0.5"), ("x", "r", "y", "0.7")])


def test_zero_degree_edge_rejected():
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x", "y"], {}, [("x", "r", "y", "0")])


def test_unknown_vertex_rejected():
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x"], {}, [("x", "r", "zz", "0.5")])
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x"], {"zz": {"A": "1"}})


def test_duplicate_vertex_names_rejected():
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x", "x"])


def test_json_loading_keeps_decimals_exact(tmp_path):
    doc = {
        "vertices": ["u", "v"],
        "vertex_labels": {"u": {"A": 0.8}},
        "edges": [["u", "r", "v", 0.9], ["v", "r", "v", "1/3"]],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g = load_graph(str(path), GODEL)
    u, v = g.vertex_id("u"), g.vertex_id("v")
    assert label_vector(g, u) == (F(4, 5),)
    assert g.edges == ((u, "r", v, F(9, 10)), (v, "r", v, F(1, 3)))


def test_graph_from_json_schema_errors():
    with pytest.raises(UsageError):
        graph_from_json(["not", "an", "object"], GODEL)
    with pytest.raises(UsageError):
        graph_from_json({"vertices": ["x"], "edges": [["x", "r", "x"]]}, GODEL)


def test_initial_partition_matches_the_out_map_oracle():
    graphs = oracle_graphs()
    # the set covers graphs without edges, with self-loops, with isolated
    # vertices and with vertex labels
    assert any(not g.edges for g in graphs)
    assert any(s == t for g in graphs for s, _, t, _ in g.edges)
    assert any(
        v not in {s for s, _, _, _ in g.edges} | {t for _, _, t, _ in g.edges}
        for g in graphs for v in range(g.n)
    )
    assert any(g.vertex_label_names for g in graphs)
    for k, g in enumerate(graphs):
        assert g.initial_partition() == initial_partition_by_out_maps(g), f"case {k}"


def _one_label_per_vertex(algebra, n: int, label_count: int, seed: int) -> FuzzyGraph:
    """Each vertex holds one of label_count vertex labels, read in shuffled
    vertex order so each table is filled out of order, plus random edges."""
    rng = random.Random(seed)
    names = [f"v{k}" for k in range(n)]
    pool = degree_pool(rng, 3, algebra)
    shuffled = rng.sample(names, n)
    vertex_labels = {name: {f"L{rng.randrange(label_count)}": rng.choice(pool)}
                     for name in shuffled}
    edges = {(rng.choice(names), rng.choice("rs"), rng.choice(names)) for _ in range(n)}
    return FuzzyGraph(algebra, names, vertex_labels,
                      [(s, label, t, rng.choice(pool)) for s, label, t in sorted(edges)])


def test_initial_blocks_match_the_dense_column_rule():
    # the same blocks in the same order with members in the same order:
    # compcb's block ids, and with them the trace, follow both orders
    backends = [make_algebra("godel"), make_algebra("product"), make_algebra("lukasiewicz"),
                load_lattice(bundled_lattice_path("godel5"))]
    graphs = oracle_graphs()
    for k, algebra in enumerate(backends):
        for n in (1, 9, 60):
            graphs += [_one_label_per_vertex(algebra, n, n, 100 * k + n),
                       _one_label_per_vertex(algebra, n, n // 4 + 1, 100 * k + n + 1)]
    assert any(len(g.initial_partition()) not in (1, g.n) for g in graphs)
    for k, g in enumerate(graphs):
        assert g._initial_blocks() == initial_blocks_by_columns(g), f"case {k}"


def test_constructor_keeps_a_vertex_label_that_is_bottom_everywhere():
    g = FuzzyGraph(GODEL, ["u"], {"u": {"A": "0"}})
    assert g.vertex_label_names == ("A",)
    assert label_vector(g, 0) == (GODEL.bottom,)
    mixed = FuzzyGraph(GODEL, ["u", "v"], {"u": {"A": "0", "B": "0"}, "v": {"B": "0.5"}})
    assert mixed.vertex_label_names == ("A", "B")
    assert [label_vector(mixed, v) for v in range(mixed.n)] == [(F(0), F(0)), (F(0), F(1, 2))]
