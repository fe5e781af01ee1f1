import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzmin import (
    DegreeAggregate,
    FeatureSet,
    FuzzyGraph,
    GodelAlgebra,
    Partition,
    UsageError,
    compcb,
    interpretation_from_json,
    interpretation_to_graph,
    is_stable,
    naive_coarsest_stable_refinement,
)
from fuzzmin.generate import GeneratorParams, random_graph
from fuzzmin.algebra import bundled_lattice_path, load_lattice, make_algebra
from fuzzmin.refine import _Refiner
from helpers import (
    PHI_I,
    aggregate_size,
    blocks_by_names,
    check_aggregates,
    collapse_graph,
    compcb_checked,
    is_stable_by_out_edges,
    label_vector,
    oracle_graphs,
    refines,
    two_component_interp,
)

GODEL = GodelAlgebra()
BENCH = Path(__file__).resolve().parent.parent / "bench"
FAMILY_BACKENDS = [GODEL, make_algebra("product"), make_algebra("lukasiewicz")]


def two_component_graph():
    """The 8-vertex encoding with forward and reversed edge labels."""
    return interpretation_to_graph(two_component_interp(GODEL), PHI_I)


def names_of(g, p):
    return blocks_by_names(p, g.names)


# --- DegreeAggregate ----------------------------------------------------------

def test_aggregate_add_remove_max():
    agg = DegreeAggregate()
    for degree in (F(1, 2), F(1, 3), F(1, 2)):
        agg.add(degree)
    assert agg.max() == F(1, 2)
    assert aggregate_size(agg) == 3
    agg.remove(F(1, 2))
    assert agg.max() == F(1, 2)  # one copy left
    agg.remove(F(1, 2))
    assert agg.max() == F(1, 3)
    agg.add(F(5, 6))
    assert agg.max() == F(5, 6)
    agg.remove(F(5, 6))
    agg.remove(F(1, 3))
    assert agg.max() is None
    assert aggregate_size(agg) == 0


def test_aggregate_matches_sorted_model():
    import random

    rng = random.Random(3)
    agg = DegreeAggregate()
    model = []
    for _ in range(500):
        if model and rng.random() < 0.4:
            value = rng.choice(model)
            model.remove(value)
            agg.remove(value)
        else:
            value = F(rng.randint(0, 8), 8)
            model.append(value)
            agg.add(value)
        assert agg.max() == (max(model) if model else None)
        assert aggregate_size(agg) == len(model)


@pytest.mark.parametrize("first,second", [(1, 2), (2, 1), (3, 3)])
def test_aggregate_pair_matches_two_adds(first, second):
    paired = DegreeAggregate.pair(first, second)
    added = DegreeAggregate()
    added.add(first)
    added.add(second)
    assert (paired._counts, paired._heap) == (added._counts, added._heap)
    assert paired.max() == max(first, second) and aggregate_size(paired) == 2
    assert not paired.remove(second)
    assert paired.max() == first
    assert paired.remove(first) and paired.max() is None


# --- compcb ---------------------------------------------------------------------

def test_compcb_collapse_graph_golden():
    g = collapse_graph(GODEL)
    p = compcb(g)
    assert names_of(g, p) == {frozenset({"u"}), frozenset({"v", "w"})}
    assert is_stable(g, p)


def test_compcb_two_component_reversed_golden():
    g = two_component_graph()
    p = compcb_checked(g)
    assert names_of(g, p) == {
        frozenset({"a"}), frozenset({"a2"}), frozenset({"b"}), frozenset({"c"}),
        frozenset({"b2", "b3"}), frozenset({"d"}), frozenset({"e"}),
    }


def test_compcb_uniform_edgeless_graph_single_block():
    g = FuzzyGraph(GODEL, ["x", "y", "z"], {n: {"A": "0.5"} for n in ["x", "y", "z"]})
    p = compcb(g)
    assert len(p) == 1


def test_compcb_empty_graph_rejected():
    with pytest.raises(UsageError):
        compcb(FuzzyGraph(GODEL, []))


def test_trace_reports_first_iteration():
    # a -> b -> c -> d: set-up splits the initial blocks {a,b,c},{d} by the
    # sups into them to {a,b},{c},{d}, and the first step peels {c} off
    # {a,b,c}, the Q-block of the initial block
    g = FuzzyGraph(GODEL, ["a", "b", "c", "d"], {},
                   [("a", "r", "b", "1"), ("b", "r", "c", "1"), ("c", "r", "d", "1")])
    steps = []
    compcb(g, on_iteration=steps.append)
    assert len(steps) == 2
    step = steps[0]
    assert step.label == "r"
    assert step.y == set(map(g.vertex_id, "abc"))
    assert step.y_prime == {g.vertex_id("c")}
    assert step.changed


def test_trace_follows_insertion_order_of_block_members():
    # the order of Y' choices is a property of the code, not of how a
    # set lays out its members: blocks walk their vertices in the order
    # they joined, which puts 8 before 5 in steps 11 and 12
    params = GeneratorParams(n_min=2, n_max=60, edge_factor=4, pool_size=2,
                             vertex_labels=0, edge_labels=1)
    g = random_graph(params, 136, GODEL)
    steps = []
    compcb(g, on_iteration=steps.append)
    assert g.n == 16
    assert [(s.label, sorted(s.y_prime), sorted(s.y), s.changed) for s in steps] == [
        ("e0", [0, 3], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15], True),
        ("e0", [10], [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15], True),
        ("e0", [2, 4], [1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15], True),
        ("e0", [1], [1, 5, 6, 7, 8, 9, 11, 12, 13, 15], False),
        ("e0", [2], [2, 4], False),
        ("e0", [0], [0, 3], False),
        ("e0", [9], [5, 6, 7, 8, 9, 11, 12, 13, 15], False),
        ("e0", [7], [5, 6, 7, 8, 11, 12, 13, 15], True),
        ("e0", [13], [5, 6, 8, 11, 12, 13, 15], True),
        ("e0", [15], [5, 6, 8, 11, 12, 15], False),
        ("e0", [8], [5, 6, 8, 11, 12], False),
        ("e0", [5], [5, 6, 11, 12], False),
        ("e0", [11], [6, 11, 12], False),
        ("e0", [12], [6, 12], False),
    ]


# --- oracle ----------------------------------------------------------------------

def test_naive_oracle_goldens():
    g = collapse_graph(GODEL)
    assert names_of(g, naive_coarsest_stable_refinement(g)) == {
        frozenset({"u"}), frozenset({"v", "w"})
    }
    # complete graph, uniform degree and labels: symmetry keeps one block
    names = ["p", "q", "s"]
    complete = FuzzyGraph(
        GODEL, names, {},
        [(x, "e", y, "0.5") for x in names for y in names],
    )
    assert len(naive_coarsest_stable_refinement(complete)) == 1


def _random_cases(count, params, seed_base=0):
    backends = [
        make_algebra("godel"),
        make_algebra("product"),
        make_algebra("lukasiewicz"),
        load_lattice(bundled_lattice_path("godel5")),
    ]
    for k in range(count):
        yield k, random_graph(params, seed_base + k, backends[k % len(backends)])


def test_compcb_equals_oracle_on_random_graphs():
    params = GeneratorParams(n_min=1, n_max=20, edge_factor=5, pool_size=6,
                             vertex_labels=2, edge_labels=3)
    for k, g in _random_cases(60, params):
        fast = compcb_checked(g) if k % 10 == 0 else compcb(g)
        slow = naive_coarsest_stable_refinement(g)
        assert fast == slow, f"case {k}"
        assert is_stable(g, fast), f"case {k}"
        assert refines(fast, g.initial_partition()), f"case {k}"


def test_compcb_equals_oracle_with_many_distinct_degrees():
    # up to 40 distinct degrees per graph on the unit interval, all of
    # godel5's on the finite chain: the engine's degree ranks against the
    # oracle's raw degrees
    params = GeneratorParams(n_min=2, n_max=30, edge_factor=5, pool_size=40,
                             vertex_labels=1, edge_labels=2)
    backends = [
        make_algebra("product"),
        make_algebra("lukasiewicz"),
        load_lattice(bundled_lattice_path("godel5")),
    ]
    most_levels = 0
    for k in range(30):
        g = random_graph(params, 2000 + k, backends[k % len(backends)])
        most_levels = max(most_levels, g.stats().l)
        fast = compcb_checked(g) if k % 4 == 0 else compcb(g)
        assert fast == naive_coarsest_stable_refinement(g), f"case {k}"
        assert is_stable(g, fast), f"case {k}"
    assert most_levels >= 30


def test_order_preserving_relabelling_keeps_partition():
    # the engine only compares degrees, so squaring every degree (strictly
    # increasing on [0, 1]) must not change the partition
    params = GeneratorParams(n_min=2, n_max=25, edge_factor=4, pool_size=12,
                             vertex_labels=2, edge_labels=2)
    for k in range(20):
        alg = make_algebra("product" if k % 2 else "godel")
        g = random_graph(params, 3000 + k, alg)
        squared = FuzzyGraph(
            alg,
            g.names,
            {
                g.names[v]: {label: d * d for label, d in zip(g.vertex_label_names,
                                                                label_vector(g, v))}
                for v in range(g.n)
            },
            [(g.names[s], label, g.names[t], d * d) for s, label, t, d in g.edges],
        )
        assert squared.levels == tuple(d * d for d in g.levels)
        assert (compcb_checked(squared) if k % 5 == 0 else compcb(squared)) == compcb(g), f"case {k}"


# --- one-vertex blocks ------------------------------------------------------------

def test_check_aggregates_catches_a_corrupt_aggregate():
    # b, c, d and e share an initial block, a is alone; the set-up splits d
    # and e off, since only they have an edge into a's block, and the first
    # step splits d off that Q-block, which counts its aggregates.  The engine
    # reads b's and c's aggregates into what the Q-block keeps, so corrupting
    # either must fail the check, while an entry for a is never read and may
    # be anything
    g = FuzzyGraph(GODEL, ["a", "b", "c", "d", "e"], {"a": {"A": "1"}}, [
        ("b", "r", "c", "0.5"), ("b", "r", "e", "1"), ("b", "r", "d", "0.5"),
        ("c", "r", "b", "0.5"), ("c", "r", "e", "1"), ("c", "r", "d", "0.5"),
        ("d", "r", "a", "0.5"), ("d", "r", "d", "1"), ("e", "r", "a", "1"),
        ("a", "r", "b", "1"),
    ])
    a, b, c, d, e = map(g.vertex_id, "abcde")

    class FirstStep(Exception):
        pass

    def stop(_step):
        raise FirstStep

    def refiner():
        fresh = _Refiner(g)
        q = fresh.qof[0][fresh.blk[b]]
        assert fresh.agg[q] is None  # counted on its first split
        check_aggregates(fresh)
        assert [sorted(verts) for verts in fresh.members] == [[a], [b, c], [d], [e]]
        with pytest.raises(FirstStep):
            fresh.run(on_iteration=stop)
        assert fresh.qhead[q] == 1 and fresh.qof[0][fresh.blk[d]] != q
        check_aggregates(fresh)
        aggs = fresh.agg[q]
        assert type(aggs[b]) is DegreeAggregate and type(aggs[c]) is DegreeAggregate
        assert a not in aggs
        return fresh, aggs

    corruptions = [
        lambda aggs: aggs.__setitem__(c, 2),  # wrong sup
        lambda aggs: aggs[b].add(1),  # one edge too many, same sup
        lambda aggs: aggs.pop(c),  # missing
        lambda aggs: aggs.clear(),  # none at all
    ]
    for corrupt in corruptions:
        broken, aggs = refiner()
        corrupt(aggs)
        with pytest.raises(AssertionError):
            check_aggregates(broken)
    ignored, aggs = refiner()
    aggs[a] = 2
    check_aggregates(ignored)
    # a counted Q-block may not go back to uncounted
    broken, _aggs = refiner()
    broken.agg[broken.qof[0][broken.blk[d]]] = None
    with pytest.raises(AssertionError):
        check_aggregates(broken)


def test_one_vertex_blocks_build_no_aggregates(monkeypatch):
    rng = random.Random(11)
    n = 30
    names = [f"v{i}" for i in range(n)]
    edges = [(x, label, y, rng.choice(("1/4", "1/2", "1")))
             for x in names for label in ("r", "s") for y in rng.sample(names, 3)]
    pairs = 0
    pair = DegreeAggregate.pair.__func__

    def counting(cls, first, second):
        nonlocal pairs
        pairs += 1
        return pair(cls, first, second)

    monkeypatch.setattr(DegreeAggregate, "pair", classmethod(counting))
    # each vertex with a twin: no block is left with one vertex, and over a
    # run some source has two edges into one Q-block the loop counts
    twin = {name: f"w{name[1:]}" for name in names}
    twins = [(twin[x], label, twin[y], d) for x, label, y, d in edges]
    _Refiner(FuzzyGraph(GODEL, names + list(twin.values()), {}, edges + twins)).run()
    assert pairs > 0
    pairs = 0

    labels = {name: {"A": F(k + 1, n + 1)} for k, name in enumerate(names)}
    g = FuzzyGraph(GODEL, names, labels, edges)
    assert len(g.initial_partition()) == n
    refiner = _Refiner(g)
    steps = []
    assert len(refiner.run(on_iteration=steps.append)) == n
    assert all(not aggs for aggs in refiner.agg)
    assert pairs == 0
    # each label's Q starts as the n one-vertex blocks: nothing to step
    assert steps == []


def _singletons_and_twins(seed: int, alg) -> FuzzyGraph:
    """Initial blocks of one or two vertices mostly, some of six, and edges
    into two to four targets, so that groups of sources move together and
    later split into one-vertex blocks as the run goes."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    names = [f"v{i}" for i in range(n)]
    order = rng.sample(names, n)
    labels, level, k = {}, 0, 0
    while k < n:
        size = rng.choice((1, 1, 1, 2, 2, 6))
        level += 1
        for name in order[k:k + size]:
            labels[name] = {"A": F(level, n + 1)}
        k += size
    targets = rng.sample(names, rng.randint(2, 4))
    pool = rng.choice((("1",), ("1/2", "1")))
    edges = [(x, label, y, rng.choice(pool))
             for x in names for label in ("r", "s")
             for y in rng.sample(targets, rng.randint(0, 2))]
    return FuzzyGraph(alg, names, labels, edges)


def test_compcb_equals_oracle_as_blocks_become_one_vertex(monkeypatch):
    # a split leaves a one-vertex block by moving a group of one out, or by
    # leaving one vertex behind; both must occur, and the engine's flag must
    # name exactly the vertices alone in their block after every split
    made = {"moved": 0, "left": 0}
    split_q = _Refiner._split_q

    def counting(self, qid, y_prime):
        before, blocks = list(self.alone), len(self.members)
        changed = split_q(self, qid, y_prime)
        for v, (was, now) in enumerate(zip(before, self.alone)):
            assert now == (len(self.members[self.blk[v]]) == 1)
            if now and not was:
                made["moved" if self.blk[v] >= blocks else "left"] += 1
        return changed

    monkeypatch.setattr(_Refiner, "_split_q", counting)
    for k in range(40):
        g = _singletons_and_twins(5000 + k, FAMILY_BACKENDS[k % 3])
        fast = compcb_checked(g)
        assert fast == naive_coarsest_stable_refinement(g), f"case {k}"
        assert is_stable(g, fast), f"case {k}"
    assert made["moved"] > 0 and made["left"] > 0, made


def _many_labels(seed: int, alg) -> FuzzyGraph:
    """Three to eight edge labels over initial blocks of one vertex mostly,
    some of two or five, with each label's edges into a few targets: many
    initial Q-blocks, few of them ever split."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    names = [f"v{i}" for i in range(n)]
    order = rng.sample(names, n)
    labels, level, k = {}, 0, 0
    while k < n:
        size = rng.choice((1, 1, 1, 1, 2, 5))
        level += 1
        for name in order[k:k + size]:
            labels[name] = {"A": F(level, n + 1)}
        k += size
    pool = rng.choice((("1",), ("1/2", "1"), ("1/4", "1/2", "1")))
    edges = []
    for li in range(rng.randint(3, 8)):
        targets = rng.sample(names, rng.randint(2, 4))
        edges += [(x, f"r{li}", y, rng.choice(pool))
                  for x in names for y in rng.sample(targets, rng.randint(0, 2))]
    return FuzzyGraph(alg, names, labels, edges)


def test_setup_signature_is_the_max_per_q_block_in_any_edge_order():
    # a and b have the same sups into each initial block, 1/2 into {u} and
    # 1 into {t1, t2}, reached in opposite edge orders: a's 1 comes after
    # its signature became a dict, b's first.  So do c and d under s, with
    # c's first edge at top's rank.  The set-up split must keep both pairs
    g = FuzzyGraph(GODEL, ["a", "b", "u", "t1", "t2", "c", "d"],
                   {"u": {"C": "1"}, "t1": {"B": "1"}, "t2": {"B": "1"}}, [
        ("a", "r", "u", "0.5"), ("a", "r", "t1", "0.5"), ("a", "r", "t2", "1"),
        ("b", "r", "u", "0.5"), ("b", "r", "t1", "1"), ("b", "r", "t2", "0.5"),
        ("c", "s", "t1", "1"), ("c", "s", "t2", "0.5"),
        ("d", "s", "t1", "0.5"), ("d", "s", "t2", "1"),
    ])
    pairs = [frozenset(map(g.vertex_id, pair)) for pair in ("ab", "cd")]
    start = [frozenset(verts) for verts in _Refiner(g).members]
    assert all(pair in start for pair in pairs), start
    assert compcb(g) == naive_coarsest_stable_refinement(g)


def test_compcb_equals_oracle_with_many_labels(monkeypatch):
    # initial Q-blocks are counted on their first split, with the aggregate
    # check after every step; some runs must count some, and leave others
    counted = {"split": 0, "left": 0}
    run = _Refiner.run

    def tally(self, on_iteration=None):
        initial = len(self.labels) * len(self.g.initial_partition())
        p = run(self, on_iteration)
        split = sum(aggs is not None for aggs in self.agg[:initial])
        counted["split"] += split
        counted["left"] += initial - split
        return p

    monkeypatch.setattr(_Refiner, "run", tally)
    for k in range(200):
        g = _many_labels(9000 + k, FAMILY_BACKENDS[k % 3])
        assert 3 <= len(g.edge_label_names) <= 8, f"case {k}"
        assert compcb_checked(g) == naive_coarsest_stable_refinement(g), f"case {k}"
    assert counted["split"] > 0 and counted["left"] > counted["split"], counted


def test_aggregates_counted_only_for_split_initial_q_blocks(monkeypatch):
    # set-up makes no aggregate; the loop counts an initial Q-block on its
    # first split, so after a run the counted initial Q-blocks are exactly
    # the initial Q-blocks it split
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs

    split: set[int] = set()
    split_q = _Refiner._split_q

    def recording(self, qid, y_prime):
        split.add(qid)
        return split_q(self, qid, y_prime)

    monkeypatch.setattr(_Refiner, "_split_q", recording)
    social = interpretation_from_json(inputs.social(1).to_json(), GODEL)
    g = interpretation_to_graph(social, FeatureSet.from_names(["baaz", "inverse"]))
    refiner = _Refiner(g)
    initial = len(refiner.agg)
    assert initial == len(g.edge_label_names) * len(g.initial_partition())
    assert all(aggs is None for aggs in refiner.agg)
    refiner.run()
    counted = [qid for qid, aggs in enumerate(refiner.agg[:initial]) if aggs is not None]
    assert counted == sorted(qid for qid in split if qid < initial)
    assert len(counted) == 376  # of 12,372 initial Q-blocks

    # one edge per label and n = L: a million initial Q-blocks, none counted
    n = 1000
    names = [f"v{k}" for k in range(n)]
    g = FuzzyGraph(GODEL, names, {}, [(names[k], f"r{k}", names[(k + 1) % n], "1")
                                      for k in range(n)])
    refiner = _Refiner(g)
    assert len(refiner.agg) == n * n
    assert all(aggs is None for aggs in refiner.agg)


def test_iteration_count_bounded():
    # each step moves one block into a Q-block of its own, and each label's
    # Q starts as the initial partition and ends as the result, so a run
    # takes exactly L x (|compcb(g)| - |P0|) steps
    params = GeneratorParams(n_min=2, n_max=20, edge_factor=5, pool_size=6,
                             vertex_labels=2, edge_labels=3)
    graphs = [g for _, g in _random_cases(60, params, seed_base=500)] + [godel5_chain(256)]
    for k, g in enumerate(graphs):
        steps = []
        p = compcb(g, on_iteration=steps.append)
        blocks_added = len(p) - len(g.initial_partition())
        assert len(steps) == len(g.edge_label_names) * blocks_added, f"case {k}"
    assert len(steps) == 251  # the chain: 256 - 5 blocks added, one label


def godel5_chain(n: int, cycle=(3, 1, 4, 2)) -> FuzzyGraph:
    """A next-labelled chain over godel5: the edge into the element at
    distance k from the chain end has degree cycle[k % 4], and the end
    holds End at top."""
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], "next", names[i + 1], cycle[(n - 2 - i) % 4]) for i in range(n - 1)]
    g5 = load_lattice(bundled_lattice_path("godel5"))
    return FuzzyGraph(g5, names, {names[-1]: {"End": 4}}, edges)


def test_smaller_half_counted_from_the_trace():
    # every Y' is a block of the partition before its step and at most half
    # of Y, so a target's edges are scanned at most floor(log2 n) times per
    # label: the smaller-half argument behind the O((m log l + n) log n) bound
    params = GeneratorParams(n_min=2, n_max=60, edge_factor=4, pool_size=6,
                             vertex_labels=1, edge_labels=3)
    graphs = [g for _, g in _random_cases(60, params, seed_base=4000)] + [godel5_chain(256)]
    for k, g in enumerate(graphs):
        steps = []
        p = compcb(g, on_iteration=steps.append)
        scanned = dict.fromkeys(g.edge_label_names, 0)
        before = Partition(_Refiner(g).members, g.n)  # the start partition
        assert refines(before, g.initial_partition()), f"case {k}"
        for step in steps:
            assert step.y_prime in before.blocks, f"case {k} step {step.index}"
            assert 2 * len(step.y_prime) <= len(step.y), f"case {k} step {step.index}"
            after = Partition(step.partition, g.n)
            assert refines(after, before), f"case {k} step {step.index}"
            incoming = g.incoming(step.label)
            scanned[step.label] += sum(len(incoming[y]) for y in step.y_prime)
            before = after
        assert before == p, f"case {k}"
        for label, count in scanned.items():
            m_label = sum(map(len, g.incoming(label)))
            assert count <= m_label * (g.n.bit_length() - 1), f"case {k} label {label}"
    assert len(steps) >= 250  # the chain splits about once per element


def test_result_is_coarsest():
    # merging any two result blocks breaks stability or label/sup grouping
    params = GeneratorParams(n_min=2, n_max=10, edge_factor=4, pool_size=3,
                             vertex_labels=1, edge_labels=2)
    for k, g in _random_cases(25, params, seed_base=900):
        p = compcb(g)
        base = g.initial_partition()
        blocks = list(p.blocks)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = Partition(
                    [blocks[i] | blocks[j]]
                    + [b for t, b in enumerate(blocks) if t not in (i, j)],
                    g.n,
                )
                assert not (is_stable(g, merged) and refines(merged, base)), (
                    f"case {k}: blocks {i},{j} merge to a stable refinement"
                )


def test_is_stable_goldens():
    g = collapse_graph(GODEL)
    assert is_stable(g, compcb(g))
    assert not is_stable(g, Partition([set(range(3))], 3))
    assert is_stable(g, Partition([{0}, {1}, {2}], 3))  # singletons always stable


def test_partition_type_validations():
    with pytest.raises(UsageError):
        Partition([{0}, {0, 1}], 2)  # overlap
    with pytest.raises(UsageError):
        Partition([{0}], 2)  # not covering
    with pytest.raises(UsageError):
        Partition([{0}, set()], 1)  # empty block
    with pytest.raises(UsageError):
        Partition([{0, 5}], 2)  # out of range


def test_is_stable_matches_the_out_edges_oracle():
    # per graph: the coarsest stable partition, a random one and the result
    # with two blocks merged, so both outcomes occur
    rng = random.Random(5)
    outcomes = set()
    for k, g in enumerate(oracle_graphs()):
        stable = compcb(g)
        candidates = [stable, Partition(_random_blocks(rng, g.n), g.n)]
        if len(stable) >= 2:
            first, second, *rest = stable.blocks
            candidates.append(Partition([first | second, *rest], g.n))
        for p in candidates:
            expected = is_stable_by_out_edges(g, p)
            assert is_stable(g, p) == expected, f"case {k}: {p}"
            outcomes.add(expected)
    assert outcomes == {True, False}


def _random_blocks(rng, n):
    blocks: dict[int, set[int]] = {}
    for v in range(n):
        blocks.setdefault(rng.randrange(max(1, n // 2)), set()).add(v)
    return blocks.values()
