"""Seeded random graphs, interpretations and expressions.

Everything here is driven by an explicit seed: the same seed and
parameters always produce the identical instance, so differential runs
and property suites are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Algebra, Degree, FiniteLatticeAlgebra
from .fdl import (
    AndConcept,
    BaazConcept,
    ComposeRole,
    ConceptAssertion,
    ConceptName,
    ConceptNode,
    ConstantConcept,
    ExistsConcept,
    FeatureSet,
    ForallConcept,
    ImpliesConcept,
    Interpretation,
    InverseRole,
    Nominal,
    NotConcept,
    OrConcept,
    RoleName,
    RoleNode,
    StarRole,
    TBoxAxiom,
    TestRole,
    UnionRole,
    UniversalRole,
)
from .graph import FuzzyGraph
from .record import Record


class GeneratorParams(Record):
    n_min: int = 2
    n_max: int = 20
    edge_factor: int = 4  # target edge count is about edge_factor * n
    pool_size: int = 4  # distinct degrees used on edges
    vertex_labels: int = 2
    edge_labels: int = 2
    concept_count: int = 2
    role_count: int = 2
    individual_count: int = 1


def degree_pool(rng: random.Random, size: int, algebra: Algebra) -> list[Degree]:
    """Distinct positive degrees to draw edge values from."""
    if isinstance(algebra, FiniteLatticeAlgebra):
        population = list(range(1, algebra.size))
        rng.shuffle(population)
        return sorted(population[:size])
    pool: set[Degree] = set()
    while len(pool) < size:
        denominator = rng.randint(1, 12)
        numerator = rng.randint(1, denominator)
        pool.add(Fraction(numerator, denominator))
    return sorted(pool)


def random_graph(params: GeneratorParams, seed: int, algebra: Algebra) -> FuzzyGraph:
    rng = random.Random(f"graph:{seed}")
    n = rng.randint(params.n_min, params.n_max)
    names = [f"v{i}" for i in range(n)]
    pool = degree_pool(rng, params.pool_size, algebra)
    labels = [f"L{i}" for i in range(params.vertex_labels)]
    vertex_labels: dict[str, dict[str, Degree]] = {}
    for name in names:
        assigned = {lab: rng.choice(pool) for lab in labels if rng.random() < 0.5}
        if assigned:
            vertex_labels[name] = assigned

    edge_names = [f"e{i}" for i in range(params.edge_labels)]
    m_target = min(rng.randint(0, params.edge_factor * n), n * n * max(1, len(edge_names)))
    chosen: set[tuple[int, str, int]] = set()
    edges = []
    for _ in range(m_target * 3):
        if len(chosen) >= m_target or not edge_names:
            break
        triple = (rng.randrange(n), rng.choice(edge_names), rng.randrange(n))
        if triple in chosen:
            continue
        chosen.add(triple)
        edges.append((names[triple[0]], triple[1], names[triple[2]], rng.choice(pool)))
    return FuzzyGraph(algebra, names, vertex_labels, edges)


def random_interpretation(params: GeneratorParams, seed: int, algebra: Algebra) -> Interpretation:
    rng = random.Random(f"interp:{seed}")
    base_n = rng.randint(params.n_min, params.n_max)
    pool = degree_pool(rng, params.pool_size, algebra)
    names = [f"x{i}" for i in range(base_n)]
    concept_names = [f"A{i}" for i in range(params.concept_count)]
    role_names = [f"r{i}" for i in range(params.role_count)]

    concepts: dict[str, dict[str, Degree]] = {c: {} for c in concept_names}
    for cname in concept_names:
        for name in names:
            if rng.random() < 0.5:
                concepts[cname][name] = rng.choice(pool)

    roles: dict[str, dict[tuple[str, str], Degree]] = {r: {} for r in role_names}
    m_target = rng.randint(0, params.edge_factor * base_n)
    for _ in range(m_target * 3):
        if sum(len(t) for t in roles.values()) >= m_target or not role_names:
            break
        rname = rng.choice(role_names)
        pair = (names[rng.randrange(base_n)], names[rng.randrange(base_n)])
        if pair not in roles[rname]:
            roles[rname][pair] = rng.choice(pool)

    # clone base_n // 4 elements (same labels, same outgoing edges) so
    # quotients have something to collapse; sources are base elements, so their
    # out-edges are indexed once, in insertion order
    out_edges: dict[str, dict[str, list[tuple[str, Degree]]]] = {r: {} for r in role_names}
    for rname, table in roles.items():
        for (src, tgt), degree in table.items():
            out_edges[rname].setdefault(src, []).append((tgt, degree))
    for k in range(base_n // 4):
        source = names[rng.randrange(base_n)]
        clone = f"x{base_n + k}"
        names.append(clone)
        for cname in concept_names:
            if source in concepts[cname]:
                concepts[cname][clone] = concepts[cname][source]
        for rname in role_names:
            for tgt, degree in out_edges[rname].get(source, ()):
                roles[rname][(clone, tgt)] = degree

    individuals = {}
    for k in range(min(params.individual_count, len(names))):
        individuals[f"a{k}"] = names[rng.randrange(len(names))]

    return Interpretation(
        algebra,
        names,
        individuals,
        concepts,
        {r: [(src, tgt, d) for (src, tgt), d in table.items()] for r, table in roles.items()},
    )


def _constant(rng: random.Random, algebra: Algebra) -> ConstantConcept:
    if isinstance(algebra, FiniteLatticeAlgebra):
        return ConstantConcept(Fraction(rng.randrange(algebra.size)))
    denominator = rng.randint(1, 10)
    return ConstantConcept(Fraction(rng.randint(0, denominator), denominator))


def random_role(
    rng: random.Random,
    phi: FeatureSet,
    depth: int,
    role_names: list[str],
    concept_names: list[str],
    individual_names: list[str],
    algebra: Algebra,
) -> RoleNode:
    options = ["name"]
    if phi.universal:
        options.append("universal")
    if depth > 0:  # in this order, which fixes the seeded draws
        options += [f for f in ("inverse", "comp", "union", "star", "test") if getattr(phi, f)]
    pick = rng.choice(options)
    if pick == "name":
        return RoleName(rng.choice(role_names))
    if pick == "universal":
        return UniversalRole()
    sub = lambda: random_role(rng, phi, depth - 1, role_names, concept_names, individual_names, algebra)
    if pick == "inverse":
        return InverseRole(sub())
    if pick == "comp":
        return ComposeRole(sub(), sub())
    if pick == "union":
        return UnionRole(sub(), sub())
    if pick == "star":
        return StarRole(sub())
    return TestRole(
        random_concept(rng, phi, depth - 1, concept_names, role_names, individual_names, algebra)
    )


def random_concept(
    rng: random.Random,
    phi: FeatureSet,
    depth: int,
    concept_names: list[str],
    role_names: list[str],
    individual_names: list[str],
    algebra: Algebra,
) -> ConceptNode:
    leaves = ["name", "constant"]
    if phi.nominal and individual_names:
        leaves.append("nominal")
    if depth <= 0:
        pick = rng.choice(leaves)
    else:
        pick = rng.choice(leaves + ["baaz", "not", "and", "or", "implies", "all", "some"])
    if pick == "name":
        return ConceptName(rng.choice(concept_names))
    if pick == "constant":
        return _constant(rng, algebra)
    if pick == "nominal":
        return Nominal(rng.choice(individual_names))
    sub = lambda: random_concept(rng, phi, depth - 1, concept_names, role_names, individual_names, algebra)
    if pick == "baaz":
        return BaazConcept(sub())
    if pick == "not":
        return NotConcept(sub())
    if pick == "and":
        return AndConcept(sub(), sub())
    if pick == "or":
        return OrConcept(sub(), sub())
    if pick == "implies":
        return ImpliesConcept(sub(), sub())
    role = random_role(rng, phi, depth - 1, role_names, concept_names, individual_names, algebra)
    return ForallConcept(role, sub()) if pick == "all" else ExistsConcept(role, sub())


def random_tbox_axiom(rng, phi, depth, concept_names, role_names, individual_names, algebra) -> TBoxAxiom:
    degree = _constant(rng, algebra).value
    return TBoxAxiom(
        random_concept(rng, phi, depth, concept_names, role_names, individual_names, algebra),
        random_concept(rng, phi, depth, concept_names, role_names, individual_names, algebra),
        rng.choice([">=", ">"]),
        degree,
    )


def random_concept_assertion(rng, phi, depth, concept_names, role_names, individual_names, algebra) -> ConceptAssertion:
    degree = _constant(rng, algebra).value
    return ConceptAssertion(
        random_concept(rng, phi, depth, concept_names, role_names, individual_names, algebra),
        rng.choice(individual_names),
        rng.choice([">=", ">", "<=", "<"]),
        degree,
    )
