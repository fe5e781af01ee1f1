"""Acceptance suite: one test per shipped criterion.

Each test prints a `criterion N: PASS/FAIL` line so a full run reads as a
checklist.  Tolerances are zero everywhere except the complexity smoke
checks (criterion 7), whose stated bound is a factor of two around the
fitted trend (m*log(m) for `compcb`, n for the initial partition).
"""

import gc
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from fuzzmin import (
    ConceptName,
    ExistsConcept,
    FeatureSet,
    ForallConcept,
    FuzzyGraph,
    GodelAlgebra,
    Interpretation,
    RoleName,
    canonical_relation,
    check_axioms,
    compcb,
    eval_concept,
    interpretation_to_graph,
    is_bisimulation,
    largest_bisimulation,
    make_algebra,
    minimize,
    naive_coarsest_stable_refinement,
    quotient,
    satisfies,
)
from fuzzmin.algebra import bundled_lattice_path, load_lattice
from fuzzmin.fdl import ComposeRole, StarRole
from fuzzmin.refine import _Refiner
from fuzzmin.generate import (
    GeneratorParams,
    random_concept,
    random_concept_assertion,
    random_graph,
    random_interpretation,
    random_tbox_axiom,
)
from helpers import (
    PHI_I,
    PHI_IO,
    PHI_O,
    PHI_PSI,
    chain_interp,
    collapse_interp,
    collapsed_twin,
    two_component_interp,
    blocks_by_names,
)

GODEL = GodelAlgebra()


def report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def backends():
    return [
        make_algebra("godel"),
        make_algebra("product"),
        make_algebra("lukasiewicz"),
        load_lattice(bundled_lattice_path("godel5")),
    ]


def test_criterion_1_golden_evaluation_table():
    start = time.perf_counter()
    r_plus = ComposeRole(StarRole(RoleName("r")), RoleName("r"))
    table = {
        "godel": (F("0.6"), F("0.6"), F("0.7"), F("0.6")),
        "product": (F("0.48"), F("0.75"), F("0.504"), F("0.75")),
        "lukasiewicz": (F("0.4"), F("0.8"), F("0.4"), F("0.8")),
    }
    concepts = (
        ExistsConcept(RoleName("r"), ConceptName("A")),
        ForallConcept(RoleName("r"), ConceptName("A")),
        ExistsConcept(r_plus, ConceptName("A")),
        ForallConcept(r_plus, ConceptName("A")),
    )
    ok = True
    for name, expected in table.items():
        i = chain_interp(make_algebra(name))
        a = i.element_id("a")
        got = tuple(eval_concept(i, c, PHI_PSI)[a] for c in concepts)
        ok = ok and got == expected
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"12 golden evaluation values exact across three families ({elapsed:.2f}s)")


def test_criterion_2_three_vertex_partition():
    start = time.perf_counter()
    g = FuzzyGraph(
        GODEL,
        ["u", "v", "w"],
        {"u": {"A": "1"}, "v": {"A": "0.5"}, "w": {"A": "0.5"}},
        [("u", "r", "v", "0.7"), ("u", "r", "w", "0.9"), ("v", "r", "v", "0.6"),
         ("v", "r", "w", "0.8"), ("w", "r", "v", "0.8")],
    )
    got = blocks_by_names(compcb(g), g.names)
    elapsed = time.perf_counter() - start
    report(2, got == {frozenset({"u"}), frozenset({"v", "w"})} and elapsed < 1.0,
           f"three-vertex graph partitions into {{u}} and {{v,w}} ({elapsed:.2f}s)")


def test_criterion_3_minimize_all_feature_sets():
    start = time.perf_counter()
    i = two_component_interp(GODEL)

    def roles(j):
        return {
            (j.names[x], j.names[y]): d for (x, y), d in j.role_instances("r").items()
        }

    j1 = minimize(i, PHI_PSI)
    u, v = "{a,a2}", "{b,b2,b3,c,d,e}"
    ok = j1.n == 2 and roles(j1) == {(u, v): F("0.8"), (v, v): F(1)}

    j2 = minimize(i, PHI_O)
    ok = ok and j2.n == 3 and roles(j2) == {
        ("{a}", v): F("0.8"), ("{a2}", v): F("0.8"), (v, v): F(1)
    }

    seven = {
        ("{a}", "{b}"): F("0.8"), ("{b}", "{c}"): F("0.7"), ("{b}", "{d}"): F(1),
        ("{c}", "{e}"): F(1), ("{d}", "{e}"): F(1), ("{e}", "{d}"): F(1),
        ("{a2}", "{b2,b3}"): F("0.8"), ("{b2,b3}", "{b2,b3}"): F(1),
    }
    for phi in (PHI_I, PHI_IO):
        j3 = minimize(i, phi)
        ok = ok and j3.n == 7 and roles(j3) == seven

    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 1.0,
           f"minimized domains of sizes 2/3/7/7 with exact role degrees ({elapsed:.2f}s)")


def _isomorphic(i1: Interpretation, i2: Interpretation) -> bool:
    if i1.n != i2.n or i1.concept_names != i2.concept_names:
        return False
    if i1.role_names != i2.role_names or i1.individual_names != i2.individual_names:
        return False
    for mapping in itertools.permutations(range(i2.n)):
        if any(mapping[i1.individuals[a]] != i2.individuals[a] for a in i1.individual_names):
            continue
        if any(
            i1.concept_degree(c, x) != i2.concept_degree(c, mapping[x])
            for c in i1.concept_names
            for x in range(i1.n)
        ):
            continue
        if all(
            {(mapping[x], mapping[y]): d for (x, y), d in i1.role_instances(r).items()}
            == dict(i2.role_instances(r))
            for r in i1.role_names
        ):
            return True
    return False


def test_criterion_4_minimize_matches_two_element_twin():
    reduced = minimize(collapse_interp(GODEL), PHI_PSI)
    twin = collapsed_twin(GODEL)
    ok = _isomorphic(reduced, twin)
    roles = {
        (reduced.names[x], reduced.names[y]): d
        for (x, y), d in reduced.role_instances("r").items()
    }
    ok = ok and roles == {("{u}", "{v,w}"): F("0.9"), ("{v,w}", "{v,w}"): F("0.8")}
    report(4, ok, "three-element instance minimizes to its two-element twin, exact")


def test_criterion_5_oracle_equivalence_500_graphs():
    start = time.perf_counter()
    params = GeneratorParams(
        n_min=1, n_max=30, edge_factor=5, pool_size=8, vertex_labels=3, edge_labels=3
    )
    algebras = backends()
    failures = 0
    for case in range(500):
        g = random_graph(params, case, algebras[case % 4])
        if compcb(g) != naive_coarsest_stable_refinement(g):
            failures += 1
    elapsed = time.perf_counter() - start
    report(5, failures == 0 and elapsed < 60.0,
           f"engine equals the naive oracle on 500/500 random graphs ({elapsed:.1f}s)")


def test_criterion_6_property_suite():
    start = time.perf_counter()
    base = ["baaz", "comp", "union", "star", "test"]
    configs = [
        FeatureSet.from_names(base),
        FeatureSet.from_names(base + ["nominal"]),
        FeatureSet.from_names(base + ["inverse"]),
        FeatureSet.from_names(base + ["universal"]),
    ]
    params = GeneratorParams(n_min=2, n_max=12, edge_factor=3, pool_size=4)
    algebras = backends()
    failures: list[str] = []
    for ci, phi in enumerate(configs):
        for case in range(200):
            algebra = algebras[case % 4]
            i = random_interpretation(params, ci * 1000 + case, algebra)
            tag = f"config {ci} case {case}"

            g = interpretation_to_graph(i, phi)
            p = compcb(g)
            j = quotient(i, p)
            z = canonical_relation(i, p, j)
            if not (is_bisimulation(i, j, z, phi).ok
                    and is_bisimulation(i, j, z, phi.with_universal()).ok):
                failures.append(f"{tag}: canonical relation")
            if minimize(j, phi).n != j.n:
                failures.append(f"{tag}: idempotence")

            rng = random.Random(f"crit6:{ci}:{case}")
            cn, rn, an = list(i.concept_names), list(i.role_names), list(i.individual_names)
            bisim = largest_bisimulation(i, i, phi)
            for _ in range(20):
                concept = random_concept(rng, phi, 4, cn, rn, an, algebra)
                values = eval_concept(i, concept, phi)
                if any(values[x] != values[y] for x, y in bisim):
                    failures.append(f"{tag}: invariance")
                    break
            for _ in range(10):
                axiom = random_tbox_axiom(rng, phi, 3, cn, rn, an, algebra)
                if satisfies(i, phi, axiom) != satisfies(j, phi, axiom):
                    failures.append(f"{tag}: tbox preservation")
                    break
            for _ in range(10):
                assertion = random_concept_assertion(rng, phi, 3, cn, rn, an, algebra)
                if satisfies(i, phi, assertion) != satisfies(j, phi, assertion):
                    failures.append(f"{tag}: abox preservation")
                    break
    elapsed = time.perf_counter() - start
    report(6, not failures and elapsed < 300.0,
           f"800 random interpretations pass all preservation properties ({elapsed:.1f}s)"
           + (f"; first failures: {failures[:3]}" if failures else ""))


def _perf_graph(n: int, m: int, l: int, seed: int) -> FuzzyGraph:
    rng = random.Random(f"perf:{seed}")
    pool = [F(k, 16) for k in rng.sample(range(1, 17), l)]
    names = [f"v{i}" for i in range(n)]
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        s, t = rng.randrange(n), rng.randrange(n)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        edges.append((names[s], "e", names[t], rng.choice(pool)))
    return FuzzyGraph(GODEL, names, {}, edges)


def test_criterion_7_complexity_smoke():
    sizes = [(2000 * 2 ** k, 10000 * 2 ** k) for k in range(5)]
    graphs = [_perf_graph(n, m, 8, k) for k, (n, m) in enumerate(sizes)]
    best = [math.inf] * len(sizes)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # best of three in CPU time, each round over every size, so that a
        # slow stretch of the host is not read as growth at one size
        for _ in range(3):
            for k, g in enumerate(graphs):
                start = time.process_time()
                compcb(g)
                best[k] = min(best[k], time.process_time() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios = [elapsed / (m * math.log(m)) for elapsed, (_, m) in zip(best, sizes)]
    fitted = sorted(ratios)[len(ratios) // 2]
    ok = all(fitted / 2 <= r <= fitted * 2 for r in ratios)
    detail = ", ".join(f"{r / fitted:.2f}x" for r in ratios)
    report(7, ok, f"time per m*log(m) stays within 2x of the fitted trend ({detail})")


def _nominal_encoding(n: int) -> FuzzyGraph:
    """An r cycle of n elements, each named by its own individual, encoded
    under nominals: n vertex labels of one vertex each."""
    names = [f"e{k}" for k in range(n)]
    i = Interpretation(GODEL, names, {f"a{k}": name for k, name in enumerate(names)}, {},
                       {"r": [(names[k], names[k - 1], "1") for k in range(n)]})
    return interpretation_to_graph(i, FeatureSet.from_names(["baaz", "nominal"]))


def test_criterion_7_initial_partition_is_linear_in_the_names():
    # a vertex label costs its table, not a column of n: with one individual
    # per element, dense columns would make the initial partition n^2
    sizes = [2500, 5000, 10000, 20000]
    graphs = [_nominal_encoding(n) for n in sizes]
    best = [math.inf] * len(sizes)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):  # best of three, every size in each round
            for k, g in enumerate(graphs):
                start = time.process_time()
                partition = g.initial_partition()
                best[k] = min(best[k], time.process_time() - start)
                assert len(partition) == g.n
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios = [elapsed / n for elapsed, n in zip(best, sizes)]
    fitted = sorted(ratios)[len(ratios) // 2]
    ok = all(fitted / 2 <= r <= fitted * 2 for r in ratios)
    detail = ", ".join(f"{r / fitted:.2f}x" for r in ratios)
    report(7, ok, f"initial partition time per n stays within 2x of the fitted trend ({detail})")


def _path_graph(n: int) -> FuzzyGraph:
    """One e-labelled path v0 -> ... -> v(n-1), every degree 1."""
    names = [f"v{i}" for i in range(n)]
    return FuzzyGraph(GODEL, names, {}, [(names[i], "e", names[i + 1], "1") for i in range(n - 1)])


def test_criterion_7_edge_scans_within_smaller_half_bound(monkeypatch):
    # the host-independent form of criterion 7: when Y' splits off its Q-block
    # every edge into Y' is scanned once, and Y' is at most half the block, so
    # an edge is scanned at most log2(n) times over a whole run.  A path splits
    # one vertex off per step, so taking the larger block as Y' scans about
    # n/2 edges per edge there
    scanned: Counter[int] = Counter()
    split_q = _Refiner._split_q

    def counting(self, qid, y_prime):
        li = self.qlabel[qid]
        incoming = self.incoming[li]
        scanned[li] += sum(len(incoming[y]) for y in self.members[y_prime])
        return split_q(self, qid, y_prime)

    monkeypatch.setattr(_Refiner, "_split_q", counting)
    ok, detail = True, []
    graphs = itertools.chain(
        (_perf_graph(2000 * 2 ** k, 10000 * 2 ** k, 8, k) for k in range(5)),
        (_path_graph(n) for n in (500, 1000, 2000, 4000)),
    )
    for g in graphs:
        scanned.clear()
        compcb(g)
        for li, label in enumerate(g.edge_label_names):
            m_label = sum(len(sources) for sources in g.incoming(label))
            bound = m_label * math.floor(math.log2(g.n))
            ok = ok and scanned[li] <= bound
            detail.append(f"{scanned[li] / m_label:.2f} <= {bound // m_label}")
    report(7, ok, f"edge scans per edge of a label stay within floor(log2 n) ({', '.join(detail)})")


def test_criterion_8_algebra_axioms():
    rng = random.Random("axioms")
    failures = []
    for name in ("godel", "product", "lukasiewicz"):
        algebra = make_algebra(name)
        triples = [
            (
                F(rng.randint(0, 60), 60),
                F(rng.randint(0, 60), 60),
                F(rng.randint(0, 60), 60),
            )
            for _ in range(10_000)
        ]
        violations = check_axioms(algebra, triples)
        if violations:
            failures.append(f"{name}: {violations}")
    for lattice_name in ("boolean", "godel5", "lukasiewicz4"):
        algebra = load_lattice(bundled_lattice_path(lattice_name))
        chain = range(algebra.size)
        violations = check_axioms(algebra, itertools.product(chain, repeat=3))  # exhaustive
        if violations:
            failures.append(f"{lattice_name}: {violations}")
    report(8, not failures,
           "axioms hold on 10000 random triples per family and exhaustively on bundled lattices"
           + (f"; {failures}" if failures else ""))
