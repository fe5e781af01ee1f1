"""Seeded inputs of the four benchmark workloads.

Every generator is a pure function of its seed and returns two things: the
JSON document the program reads, and a plain description (element ids,
int degree ranks) that the reference computations in `reference.py` work
from, so the checks never read the program's own parse of the input.

The large inputs are built directly: `fuzzmin.generate.random_interpretation`
scans every role instance once per clone, which is quadratic at these sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Model:
    """A generated interpretation in reference form.

    `degrees[k - 1]` is the degree of rank k; rank 0 is the bottom.
    `concepts[c][x]` is a rank, `roles[r]` a list of (x, y, rank) with
    rank >= 1.  `twin_of` maps each twin to the element it copies.
    """

    names: list[str]
    degrees: list
    concepts: dict[str, list[int]]
    roles: dict[str, list[tuple[int, int, int]]]
    twin_of: dict[int, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.names)

    def to_json(self) -> dict:
        """The interpretation document in fuzzmin's input format; degrees are
        written as `str` prints them ("3/8", "1", or a chain index)."""
        names, degrees = self.names, self.degrees
        return {
            "domain": list(names),
            "concepts": {
                c: {names[x]: str(degrees[k - 1]) for x, k in enumerate(ranks) if k}
                for c, ranks in self.concepts.items()
            },
            "roles": {
                r: [[names[x], names[y], str(degrees[k - 1])] for x, y, k in triples]
                for r, triples in self.roles.items()
            },
        }


def _lifted(rng: random.Random, base_n: int, twins: int, concept_share: dict[str, float],
            role_edges: dict[str, list[tuple[int, int]]], levels: int) -> tuple[
                list[int], dict[int, int], dict[str, list[int]], dict[str, list[tuple[int, int, int]]]]:
    """Copy `twins` distinct base elements with their labels, out-edges and
    in-edges, so each twin is bisimilar to its source even with inverses.

    Returns the domain order (shuffled), the twin map, concept ranks and
    role triples over ids 0..base_n+twins-1.
    """
    n = base_n + twins
    sources = rng.sample(range(base_n), twins)
    twin_of = {base_n + k: s for k, s in enumerate(sources)}
    copies: dict[int, list[int]] = {x: [x] for x in range(base_n)}
    for t, s in twin_of.items():
        copies[s].append(t)

    concepts: dict[str, list[int]] = {}
    for c, share in concept_share.items():
        ranks = [rng.randint(1, levels) if rng.random() < share else 0 for _ in range(base_n)]
        concepts[c] = ranks + [ranks[twin_of[t]] for t in range(base_n, n)]
    roles: dict[str, list[tuple[int, int, int]]] = {}
    for r, pairs in role_edges.items():
        triples = []
        for x, y in pairs:
            k = rng.randint(1, levels)
            triples.extend((xc, yc, k) for xc in copies[x] for yc in copies[y])
        roles[r] = triples
    order = list(range(n))
    rng.shuffle(order)
    return order, twin_of, concepts, roles


def _relabel(order: list[int], prefix: str, degrees: list, twin_of: dict[int, int],
             concepts: dict[str, list[int]], roles: dict[str, list[tuple[int, int, int]]]) -> Model:
    """Renumber elements so that ids follow the shuffled domain order."""
    pos = {old: new for new, old in enumerate(order)}
    names = [f"{prefix}{old}" for old in order]
    return Model(
        names=names,
        degrees=degrees,
        concepts={c: [ranks[old] for old in order] for c, ranks in concepts.items()},
        roles={r: sorted((pos[x], pos[y], k) for x, y, k in t) for r, t in roles.items()},
        twin_of={pos[t]: pos[s] for t, s in twin_of.items()},
    )


def _random_pairs(rng: random.Random, count: int, n: int) -> list[tuple[int, int]]:
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        chosen.add((rng.randrange(n), rng.randrange(n)))
    return sorted(chosen)


# --- minimize-social -------------------------------------------------------

SOCIAL_BASE = 3_200
SOCIAL_TWINS = 800  # a fifth of the 4,000 elements
SOCIAL_BASE_EDGES = 7_680  # per role; lifting over twins gives about 3n per role
SOCIAL_DEGREES = [Fraction(k, 8) for k in range(1, 9)]  # l = 8


def social(seed: int, base: int = SOCIAL_BASE, twins: int = SOCIAL_TWINS,
           base_edges: int = SOCIAL_BASE_EDGES) -> Model:
    """A weighted social network: people with two fuzzy attributes and two
    weighted relations, a fifth of them twins of another person."""
    rng = random.Random(f"social:{seed}")
    edges = {r: _random_pairs(rng, base_edges, base) for r in ("follows", "likes")}
    order, twin_of, concepts, roles = _lifted(
        rng, base, twins, {"Active": 0.75, "Popular": 0.5}, edges, len(SOCIAL_DEGREES))
    return _relabel(order, "p", SOCIAL_DEGREES, twin_of, concepts, roles)


# --- minimize-chains -------------------------------------------------------

CHAIN_COUNT = 4
CHAIN_TOTAL = 20_000
CHAIN_JITTER = 500  # chain lengths vary by up to this much; their sum does not


@dataclass
class Chains:
    model: Model
    distance: list[int]  # distance of each element to the end of its chain
    cycle: list[int]  # degree of the edge from distance k+1 into distance k is cycle[k % 4]


def chains(seed: int, count: int = CHAIN_COUNT, total: int = CHAIN_TOTAL,
           jitter: int = CHAIN_JITTER) -> Chains:
    """Disjoint chains whose edge degrees depend on the distance to the
    chain end, cycling over the four positive degrees of godel5; the
    concept End holds (top, 4) at each chain end."""
    rng = random.Random(f"chains:{seed}")
    mean = total // count
    deltas = [rng.randint(-jitter, jitter) for _ in range(count - 1)]
    lengths = [mean + d for d in deltas] + [mean - sum(deltas)]
    cycle = [1, 2, 3, 4]
    rng.shuffle(cycle)

    distance: list[int] = []
    triples: list[tuple[int, int, int]] = []
    for length in lengths:
        start = len(distance)
        distance.extend(range(length - 1, -1, -1))
        for i in range(start, start + length - 1):
            triples.append((i, i + 1, cycle[distance[i + 1] % 4]))
    n = len(distance)
    order = list(range(n))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    model = Model(
        names=[f"c{old}" for old in order],
        degrees=[1, 2, 3, 4],  # godel5 chain indices; rank k is index k
        concepts={"End": [4 if distance[old] == 0 else 0 for old in order]},
        roles={"next": sorted((pos[x], pos[y], k) for x, y, k in triples)},
    )
    return Chains(model, [distance[old] for old in order], cycle)


# --- semantics -------------------------------------------------------------

SEM_BASE = 80
SEM_TWINS = 20
SEM_COMMUNITY = 10  # r stays inside communities of this many base elements
SEM_DEGREES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
               Fraction(2, 3), Fraction(3, 4), Fraction(9, 10), Fraction(1)]


def semantics_model(seed: int) -> Model:
    """About 100 elements: r links members of one community (about two
    successors each), s links across communities (about 1.5 each)."""
    rng = random.Random(f"semantics:{seed}")
    r_pairs: set[tuple[int, int]] = set()
    while len(r_pairs) < 2 * SEM_BASE:
        x = rng.randrange(SEM_BASE)
        base = x - x % SEM_COMMUNITY
        r_pairs.add((x, base + rng.randrange(SEM_COMMUNITY)))
    edges = {"r": sorted(r_pairs), "s": _random_pairs(rng, SEM_BASE * 3 // 2, SEM_BASE)}
    order, twin_of, concepts, roles = _lifted(
        rng, SEM_BASE, SEM_TWINS, {"A": 0.7, "B": 0.6}, edges, len(SEM_DEGREES))
    return _relabel(order, "e", SEM_DEGREES, twin_of, concepts, roles)


# Query shapes: ("some" | "all", role, body).  Roles are ("r",), ("inv", R),
# ("seq", R, S), ("or", R, S), ("star", R) and ("test", C); concepts are
# ("name", A), ("and", C, D), ("implies", C, D).  The shapes are fixed; the
# element each query is asked at comes from the seed.
A, B = ("name", "A"), ("name", "B")
R, S = ("r",), ("s",)
QUERY_SHAPES = [
    ("some", R, A),
    ("all", R, B),
    ("some", ("inv", R), B),
    ("all", ("inv", S), A),
    ("some", ("seq", R, S), A),
    ("all", ("seq", S, R), ("implies", A, B)),
    ("some", ("or", R, S), ("and", A, B)),
    ("all", ("or", R, S), A),
    ("some", ("star", R), A),
    ("all", ("star", R), B),
    ("some", ("test", A), B),
    ("all", ("seq", ("test", B), R), A),
]
SEM_FEATURES = "baaz,comp,union,star,test,inverse"


def render_role(role) -> str:
    kind = role[0]
    if kind in ("r", "s"):
        return kind
    if kind == "inv":
        return f"({render_role(role[1])})-"
    if kind == "seq":
        return f"({render_role(role[1])} ; {render_role(role[2])})"
    if kind == "or":
        return f"({render_role(role[1])} | {render_role(role[2])})"
    if kind == "star":
        return f"({render_role(role[1])})*"
    if kind == "test":
        return f"({render_concept(role[1])})?"
    raise ValueError(f"unknown role shape {role!r}")


def render_concept(concept) -> str:
    kind = concept[0]
    if kind == "name":
        return concept[1]
    if kind == "and":
        return f"({render_concept(concept[1])} & {render_concept(concept[2])})"
    if kind == "implies":
        return f"({render_concept(concept[1])} -> {render_concept(concept[2])})"
    if kind in ("some", "all"):
        return f"{kind} {render_role(concept[1])} . {render_concept(concept[2])}"
    raise ValueError(f"unknown concept shape {concept!r}")


def semantics_queries(seed: int, model: Model) -> list[tuple[tuple, int]]:
    """The round's eval queries: each shape once, asked at a seeded element."""
    rng = random.Random(f"queries:{seed}")
    return [(shape, rng.randrange(model.n)) for shape in QUERY_SHAPES]


# --- verify ----------------------------------------------------------------

VERIFY_CASES = 20  # cases per `fuzzmin verify` call
VERIFY_BATCHES = 20  # calls per round; 400 cases even out the case mix between seeds


def verify_seeds(seed: int) -> list[int]:
    """The --seed of each call in a round."""
    rng = random.Random(f"verify:{seed}")
    return [rng.randrange(1_000_000) for _ in range(VERIFY_BATCHES)]
