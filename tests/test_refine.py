import random
from fractions import Fraction as F

import pytest

from fuzzmin import (
    DegreeAggregate,
    FuzzyGraph,
    GodelAlgebra,
    Partition,
    UsageError,
    compcb,
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
    oracle_graphs,
    refines,
    two_component_interp,
)

GODEL = GodelAlgebra()
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
    g = collapse_graph(GODEL)
    steps = []
    compcb(g, on_iteration=steps.append)
    assert len(steps) == 1
    step = steps[0]
    assert step.label == "r"
    assert step.y == frozenset(range(3))
    assert step.y_prime == {g.vertex_id("u")}
    assert not step.changed


def test_trace_follows_insertion_order_of_block_members():
    # the order of Y' choices is a property of the code, not of how a
    # set lays out its members: blocks walk their vertices in the order
    # they joined, which puts 5 before 12 in steps 14 and 15
    params = GeneratorParams(n_min=2, n_max=60, edge_factor=4, pool_size=6,
                             vertex_labels=2, edge_labels=1)
    g = random_graph(params, 78, make_algebra("lukasiewicz"))
    steps = []
    compcb(g, on_iteration=steps.append)
    assert g.n == 18
    assert [(s.label, sorted(s.y_prime), sorted(s.y), s.changed) for s in steps] == [
        ("e0", [1, 8], list(range(18)), True),
        ("e0", [0], [0, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [8], [1, 8], True),
        ("e0", [3], [2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [6], [2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [9], [2, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17], True),
        ("e0", [7], [2, 4, 5, 7, 10, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [10], [2, 4, 5, 10, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [11], [2, 4, 5, 11, 12, 13, 14, 15, 16, 17], False),
        ("e0", [14], [2, 4, 5, 12, 13, 14, 15, 16, 17], False),
        ("e0", [15], [2, 4, 5, 12, 13, 15, 16, 17], False),
        ("e0", [16], [2, 4, 5, 12, 13, 16, 17], False),
        ("e0", [17], [2, 4, 5, 12, 13, 17], False),
        ("e0", [5], [2, 4, 5, 12, 13], False),
        ("e0", [12], [2, 4, 12, 13], False),
        ("e0", [4], [2, 4, 13], False),
        ("e0", [2], [2, 13], False),
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
                                                                g.label_vector(v))}
                for v in range(g.n)
            },
            [(g.names[s], label, g.names[t], d * d) for s, label, t, d in g.edges],
        )
        assert squared.levels == tuple(d * d for d in g.levels)
        assert (compcb_checked(squared) if k % 5 == 0 else compcb(squared)) == compcb(g), f"case {k}"


# --- one-vertex blocks ------------------------------------------------------------

def test_check_aggregates_catches_a_corrupt_aggregate():
    # b, c and d share a block, a is alone: the engine reads b's and c's
    # aggregates, so corrupting either must fail the check, while an entry
    # for a is never read and may be anything
    g = FuzzyGraph(GODEL, ["a", "b", "c", "d"], {"a": {"A": "1"}}, [
        ("b", "r", "a", "0.5"), ("b", "r", "c", "0.5"), ("c", "r", "a", "0.5"),
        ("a", "r", "b", "1"),
    ])
    a, b, c = map(g.vertex_id, "abc")

    def refiner():
        fresh = _Refiner(g)
        check_aggregates(fresh)
        assert type(fresh.agg[0][b]) is DegreeAggregate and fresh.agg[0][c] == 1
        assert a not in fresh.agg[0]
        return fresh

    corruptions = [
        lambda aggs: aggs.__setitem__(c, 2),  # wrong sup
        lambda aggs: aggs[b].add(1),  # one edge too many, same sup
        lambda aggs: aggs.pop(c),  # missing
    ]
    for corrupt in corruptions:
        broken = refiner()
        corrupt(broken.agg[0])
        with pytest.raises(AssertionError):
            check_aggregates(broken)
    ignored = refiner()
    ignored.agg[0][a] = 2
    check_aggregates(ignored)


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
    _Refiner(FuzzyGraph(GODEL, names, {}, edges))
    assert pairs > 0  # one block: every source has three edges per label
    pairs = 0

    labels = {name: {"A": F(k + 1, n + 1)} for k, name in enumerate(names)}
    g = FuzzyGraph(GODEL, names, labels, edges)
    assert len(g.initial_partition()) == n
    refiner = _Refiner(g)
    steps = []
    assert len(refiner.run(on_iteration=steps.append)) == n
    assert all(not aggs for aggs in refiner.agg)
    assert pairs == 0
    # each label's Q-block still splits off one block per step, down to n
    assert len(steps) == (n - 1) * 2
    assert not any(step.changed for step in steps)


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


def test_iteration_count_bounded():
    params = GeneratorParams(n_min=2, n_max=20, edge_factor=5, pool_size=6,
                             vertex_labels=2, edge_labels=3)
    for k, g in _random_cases(20, params, seed_base=500):
        steps = []
        compcb(g, on_iteration=steps.append)
        assert len(steps) <= (g.n - 1) * max(1, len(g.edge_label_names)), f"case {k}"


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
        before = g.initial_partition()
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
    assert len(steps) >= 255  # the chain splits about once per element


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
