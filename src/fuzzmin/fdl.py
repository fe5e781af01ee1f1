"""Fuzzy interpretations and everything built on them: feature sets,
concept/role expressions with their semantics, crisp bisimulation checking,
the graph encoding, the largest bisimulation and minimization (both from
the encoding's coarsest stable partition, `compcb`), the quotient
construction, pruning of unreachable elements, and satisfaction of
assertions and terminological axioms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import Algebra, Degree, degree_parser, read_json
from .errors import FeatureError, UsageError
from .graph import FuzzyGraph
from .partition import Partition, ordered_blocks
from .refine import compcb

FEATURE_NAMES = ("baaz", "comp", "union", "star", "test", "inverse", "universal", "nominal")

_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class FeatureSet:
    """Enabled optional constructors.  The crisping projection (baaz) is
    always available and cannot be switched off."""

    comp: bool = False
    union: bool = False
    star: bool = False
    test: bool = False
    inverse: bool = False
    universal: bool = False
    nominal: bool = False

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "FeatureSet":
        names = list(names)
        unknown = [n for n in names if n not in FEATURE_NAMES]
        if unknown:
            raise UsageError(f"unknown features {unknown}; valid: {list(FEATURE_NAMES)}")
        if "baaz" not in names:
            raise UsageError('feature list must include "baaz"')
        chosen = set(names)
        return cls(**{name: name in chosen for name in FEATURE_NAMES if name != "baaz"})

    def names(self) -> list[str]:
        enabled = ["baaz"]
        enabled += [n for n in FEATURE_NAMES if n != "baaz" and getattr(self, n)]
        return enabled

    def with_universal(self) -> "FeatureSet":
        return self if self.universal else FeatureSet.from_names(self.names() + ["universal"])


# --- concept and role expressions -----------------------------------------

class ConceptNode:
    __slots__ = ()


class RoleNode:
    __slots__ = ()


@dataclass(frozen=True)
class ConstantConcept(ConceptNode):
    value: Fraction


@dataclass(frozen=True)
class ConceptName(ConceptNode):
    name: str


@dataclass(frozen=True)
class Nominal(ConceptNode):
    individual: str


@dataclass(frozen=True)
class BaazConcept(ConceptNode):
    child: ConceptNode


@dataclass(frozen=True)
class NotConcept(ConceptNode):
    child: ConceptNode


@dataclass(frozen=True)
class AndConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


@dataclass(frozen=True)
class OrConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


@dataclass(frozen=True)
class ImpliesConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


@dataclass(frozen=True)
class ForallConcept(ConceptNode):
    role: RoleNode
    child: ConceptNode


@dataclass(frozen=True)
class ExistsConcept(ConceptNode):
    role: RoleNode
    child: ConceptNode


@dataclass(frozen=True)
class RoleName(RoleNode):
    name: str


@dataclass(frozen=True)
class InverseRole(RoleNode):
    child: RoleNode


@dataclass(frozen=True)
class ComposeRole(RoleNode):
    left: RoleNode
    right: RoleNode


@dataclass(frozen=True)
class UnionRole(RoleNode):
    left: RoleNode
    right: RoleNode


@dataclass(frozen=True)
class StarRole(RoleNode):
    child: RoleNode


@dataclass(frozen=True)
class TestRole(RoleNode):
    concept: ConceptNode


@dataclass(frozen=True)
class UniversalRole(RoleNode):
    pass


# the feature each optional constructor needs, and how a refusal names it
_GATES = {
    Nominal: ("nominal", "nominal {a}"),
    InverseRole: ("inverse", "role inverse '-'"),
    ComposeRole: ("comp", "role composition ';'"),
    UnionRole: ("union", "role union '|'"),
    StarRole: ("star", "role closure '*'"),
    TestRole: ("test", "role test '?'"),
    UniversalRole: ("universal", "universal role 'U'"),
}


def check_features(node, phi: FeatureSet) -> None:
    """Raise FeatureError if the expression uses a constructor outside phi.

    The walk keeps its own stack: the parser reads a chain of '&', '|',
    '->' or ';', or a run of postfix operators, in a loop, so a parsed tree
    can be deeper than the recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        gate = _GATES.get(type(node))
        if gate is not None and not getattr(phi, gate[0]):
            raise FeatureError(f"{gate[1]} requires feature '{gate[0]}'")
        # pushed last-first, so children are visited child, left, right,
        # role, concept: the order of a recursive pre-order walk
        for attr in ("concept", "role", "right", "left", "child"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)


def _chain_operands(node) -> list:
    """The operands, left to right, of the chain of node's binary operator
    that node heads, read in a loop since a parsed chain can be deeper than
    the recursion limit: '&', '|' and ';' chains (concept or role) nest to
    the left, '->' chains to the right."""
    kind = type(node)
    down, other = ("right", "left") if kind is ImpliesConcept else ("left", "right")
    operands = []
    while type(node) is kind:
        operands.append(getattr(node, other))
        node = getattr(node, down)
    operands.append(node)
    return operands if kind is ImpliesConcept else operands[::-1]


# --- assertions and axioms --------------------------------------------------

@dataclass(frozen=True)
class ConceptAssertion:
    concept: ConceptNode
    individual: str
    op: str  # one of >=, >, <=, <
    degree: Degree

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise UsageError(f"bad comparison {self.op!r}")


@dataclass(frozen=True)
class RoleAssertion:
    role: RoleNode
    a: str
    b: str
    op: str
    degree: Degree

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise UsageError(f"bad comparison {self.op!r}")


@dataclass(frozen=True)
class SameAssertion:
    a: str
    b: str


@dataclass(frozen=True)
class DistinctAssertion:
    a: str
    b: str


@dataclass(frozen=True)
class TBoxAxiom:
    """left is subsumed by right, to a degree bounded by `degree`."""

    left: ConceptNode
    right: ConceptNode
    op: str  # >= or >
    degree: Degree

    def __post_init__(self):
        if self.op not in (">=", ">"):
            raise UsageError(f"axiom comparison must be >= or >, got {self.op!r}")


# --- interpretations ---------------------------------------------------------

class Interpretation:
    """A finite fuzzy interpretation over a shared algebra.

    Concept assignments default to bottom for unlisted elements; role
    assignments are sparse and hold strictly positive degrees only.
    Treated as immutable after construction.

    The constructor takes names and degree text and validates both; it is
    the boundary for JSON documents and generators.  Each distinct degree
    text is parsed once per interpretation.
    """

    def __init__(
        self,
        algebra: Algebra,
        domain: Sequence[str],
        individuals: Mapping[str, str] | None = None,
        concepts: Mapping[str, Mapping[str, Degree]] | None = None,
        roles: Mapping[str, Iterable[tuple[str, str, Degree]]] | None = None,
    ):
        if not domain:
            raise UsageError("interpretation domain must be non-empty")
        names = tuple(domain)
        self._id = _element_ids(names)
        element_id = self.element_id
        parse = degree_parser(algebra)

        individual_ids = {a: element_id(elem) for a, elem in (individuals or {}).items()}

        concept_tables: dict[str, dict[int, Degree]] = {}
        for cname, assignment in (concepts or {}).items():
            table: dict[int, Degree] = {}
            for elem, degree in assignment.items():
                v = element_id(elem)  # every name, also one with a bottom degree
                degree = parse(degree)
                if degree:  # bottom is falsy (see `Algebra`)
                    table[v] = degree
            concept_tables[cname] = table

        role_tables: dict[str, dict[tuple[int, int], Degree]] = {}
        for rname, instances in (roles or {}).items():
            table2: dict[tuple[int, int], Degree] = {}
            for entry in instances:
                if len(entry) != 3:
                    raise UsageError(f"role instance {entry!r} must be [from, to, degree]")
                src, tgt, degree = entry
                degree = parse(degree)
                if not degree:
                    raise UsageError(
                        f"role instance {rname}({src},{tgt}) has degree 0; omit zero instances"
                    )
                key = (element_id(src), element_id(tgt))
                if key in table2:
                    raise UsageError(f"duplicate role instance {rname}({src},{tgt})")
                table2[key] = degree
            role_tables[rname] = table2
        self._build(algebra, names, individual_ids, concept_tables, role_tables)

    @classmethod
    def _from_ids(
        cls,
        algebra: Algebra,
        names: tuple[str, ...],
        individuals: dict[str, int],
        concepts: dict[str, dict[int, Degree]],
        roles: dict[str, dict[tuple[int, int], Degree]],
    ) -> "Interpretation":
        """An interpretation from element ids and degrees that are already
        checked: concept tables hold no bottom degrees, role tables no zero
        degrees.  Element names are still checked for duplicates."""
        i = cls.__new__(cls)
        i._id = _element_ids(names)
        i._build(algebra, names, individuals, concepts, roles)
        return i

    def _build(
        self,
        algebra: Algebra,
        names: tuple[str, ...],
        individuals: dict[str, int],
        concepts: dict[str, dict[int, Degree]],
        roles: dict[str, dict[tuple[int, int], Degree]],
    ) -> None:
        self.algebra = algebra
        self.names: tuple[str, ...] = names
        self.n = len(names)
        self.individuals: dict[str, int] = individuals
        self.individual_names: tuple[str, ...] = tuple(sorted(individuals))
        self._concepts: dict[str, dict[int, Degree]] = concepts
        self.concept_names: tuple[str, ...] = tuple(sorted(concepts))
        self._roles: dict[str, dict[tuple[int, int], Degree]] = roles
        self.role_names: tuple[str, ...] = tuple(sorted(roles))

        vocab = [("concept", n) for n in self.concept_names]
        vocab += [("role", n) for n in self.role_names]
        vocab += [("individual", n) for n in self.individual_names]
        by_name: dict[str, str] = {}
        for kind, name in vocab:
            if name in by_name:
                raise UsageError(f"name {name!r} used both as {by_name[name]} and {kind}")
            by_name[name] = kind

    def element_id(self, name: str) -> int:
        try:
            return self._id[name]
        except KeyError:
            raise UsageError(f"unknown element or individual {name!r}") from None

    def individual_element(self, a: str) -> int:
        try:
            return self.individuals[a]
        except KeyError:
            raise UsageError(f"unknown individual {a!r}") from None

    def concept_degree(self, cname: str, x: int) -> Degree:
        if cname not in self._concepts:
            raise UsageError(f"unknown concept name {cname!r}")
        return self._concepts[cname].get(x, self.algebra.bottom)

    def role_instances(self, rname: str) -> Mapping[tuple[int, int], Degree]:
        if rname not in self._roles:
            raise UsageError(f"unknown role name {rname!r}")
        return self._roles[rname]


def _element_ids(names: tuple[str, ...]) -> dict[str, int]:
    ids = {name: x for x, name in enumerate(names)}
    if len(ids) != len(names):
        raise UsageError("duplicate element names in domain")
    return ids


def _check_signatures(i1: Interpretation, i2: Interpretation) -> None:
    for attr in ("concept_names", "role_names", "individual_names"):
        if getattr(i1, attr) != getattr(i2, attr):
            raise UsageError(
                f"signature mismatch: {attr} differ "
                f"({getattr(i1, attr)} vs {getattr(i2, attr)})"
            )
    if type(i1.algebra) is not type(i2.algebra) or getattr(i1.algebra, "name", None) != getattr(i2.algebra, "name", None):
        raise UsageError("interpretations use different algebras")


# --- semantics ---------------------------------------------------------------

def eval_role(i: Interpretation, role: RoleNode, phi: FeatureSet) -> list[list[Degree]]:
    """Degree matrix of a complex role over the whole domain."""
    check_features(role, phi)
    rows = [[i.algebra.bottom] * i.n for _ in range(i.n)]
    tests: dict[int, list[Degree]] = {}
    for y in range(i.n):
        for x, degree in enumerate(_role_column(i, role, y, tests)):
            rows[x][y] = degree
    return rows


def _role_column(i: Interpretation, role: RoleNode, y: int,
                 tests: dict[int, list[Degree]]) -> list[Degree]:
    """R(x, y) for every x, as some R.v where v is top at y and bottom elsewhere."""
    v = [i.algebra.bottom] * i.n
    v[y] = i.algebra.top
    return _modal(i, role, v, tests, True)


def _modal(i: Interpretation, role: RoleNode, v: list[Degree], tests: dict[int, list[Degree]],
           some: bool, inverted: bool = False) -> list[Degree]:
    """some R.v at every element, or all R.v when not `some`, computed from
    the stored role instances alone.  A pending inverse is pushed down to
    the role names; tests and the universal role are their own inverses.
    `tests` keeps the values of each test's concept, by node identity, so
    that a `*` around a test evaluates the test's concept once, not in
    every round.

    The `all` form of each step takes min and the residuum where `some`
    takes max and the t-norm: (sup a) => c = inf (a => c) and
    (a * b) => c = a => (b => c).
    """
    alg = i.algebra
    join, step = (max, alg.tnorm) if some else (min, alg.residuum)
    while isinstance(role, InverseRole):
        role, inverted = role.child, not inverted
    if isinstance(role, RoleName):
        out = [alg.bottom if some else alg.top] * i.n
        for (x, y), degree in i.role_instances(role.name).items():
            if inverted:
                x, y = y, x
            out[x] = join(out[x], step(degree, v[y]))
        return out
    if isinstance(role, UniversalRole):
        return [step(alg.top, join(v))] * i.n
    if isinstance(role, TestRole):
        values = tests.get(id(role))
        if values is None:
            values = tests[id(role)] = _concept_values(i, role.concept, tests)
        return [step(c, d) for c, d in zip(values, v)]
    if isinstance(role, UnionRole):
        first, *rest = _chain_operands(role)
        out = _modal(i, first, v, tests, some, inverted)
        for part in rest:
            out = list(map(join, out, _modal(i, part, v, tests, some, inverted)))
        return out
    if isinstance(role, ComposeRole):
        # R ; S applies S first, and R first under an inverse
        parts = _chain_operands(role)
        for part in (parts if inverted else reversed(parts)):
            v = _modal(i, part, v, tests, some, inverted)
        return v
    if isinstance(role, StarRole):
        # (R*)* = R* and (R-)* = (R*)-, so stars and inverses under a star drop out
        child = role.child
        while isinstance(child, (StarRole, InverseRole)):
            if isinstance(child, InverseRole):
                inverted = not inverted
            child = child.child
        # the least (for all, greatest) w with w = join(v, R.w); degrees
        # never grow along a path, so paths of fewer than n steps suffice
        # and the iteration settles within n rounds
        w = v
        while True:
            nxt = [join(a, b) for a, b in zip(v, _modal(i, child, w, tests, some, inverted))]
            if nxt == w:
                return w
            w = nxt
    raise UsageError(f"unknown role node {role!r}")


def eval_concept(i: Interpretation, concept: ConceptNode, phi: FeatureSet) -> list[Degree]:
    """Degree of a concept at every domain element, in domain order."""
    check_features(concept, phi)
    return _concept_values(i, concept, {})


def _concept_values(i: Interpretation, concept: ConceptNode,
                    tests: dict[int, list[Degree]]) -> list[Degree]:
    alg = i.algebra
    n = i.n
    if isinstance(concept, ConstantConcept):
        value = alg.check(concept.value)
        return [value] * n
    if isinstance(concept, ConceptName):
        return [i.concept_degree(concept.name, x) for x in range(n)]
    if isinstance(concept, Nominal):
        elem = i.individual_element(concept.individual)
        return [alg.top if x == elem else alg.bottom for x in range(n)]
    if isinstance(concept, BaazConcept):
        return [alg.baaz(v) for v in _concept_values(i, concept.child, tests)]
    if isinstance(concept, NotConcept):
        return [alg.neg(v) for v in _concept_values(i, concept.child, tests)]
    if isinstance(concept, (AndConcept, OrConcept)):
        op = alg.tnorm if isinstance(concept, AndConcept) else alg.snorm
        first, *rest = _chain_operands(concept)
        values = _concept_values(i, first, tests)
        for part in rest:
            values = list(map(op, values, _concept_values(i, part, tests)))
        return values
    if isinstance(concept, ImpliesConcept):
        *lefts, last = _chain_operands(concept)
        values = _concept_values(i, last, tests)
        for part in reversed(lefts):
            values = list(map(alg.residuum, _concept_values(i, part, tests), values))
        return values
    if isinstance(concept, (ForallConcept, ExistsConcept)):
        child = _concept_values(i, concept.child, tests)
        return _modal(i, concept.role, child, tests, isinstance(concept, ExistsConcept))
    raise UsageError(f"unknown concept node {concept!r}")


# --- bisimulations -----------------------------------------------------------

@dataclass(frozen=True)
class BisimReport:
    ok: bool
    condition: int | None = None
    witness: tuple[str, ...] | None = None
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        where = ",".join(self.witness or ())
        return f"condition ({self.condition}) violated at ({where})"


def is_bisimulation(
    i1: Interpretation,
    i2: Interpretation,
    z: Iterable[tuple[int, int]],
    phi: FeatureSet,
) -> BisimReport:
    """Check the crisp bisimulation conditions for a relation between two
    interpretations over the same signature.

    Numbering used in reports: (9) concept-name agreement, (10) forth and
    (11) back over every basic role, (13) nominal agreement when nominals
    are enabled, (14) totality and (15) surjectivity of non-empty
    relations when the universal role is enabled.
    """
    _check_signatures(i1, i2)
    pairs = sorted(set(z))
    for x, xp in pairs:
        if not (0 <= x < i1.n and 0 <= xp < i2.n):
            raise UsageError(f"relation pair ({x},{xp}) outside the two domains")

    def fail(cond: int, x: int, xp: int, detail: str) -> BisimReport:
        return BisimReport(False, cond, (i1.names[x], i2.names[xp]), detail)

    for x, xp in pairs:
        for cname in i1.concept_names:
            d1, d2 = i1.concept_degree(cname, x), i2.concept_degree(cname, xp)
            if d1 != d2:
                return fail(9, x, xp, f"{cname} differs: {d1} vs {d2}")

    zset = set(pairs)
    basic_roles = [(rname, False) for rname in i1.role_names]
    if phi.inverse:  # every r, then every r-
        basic_roles += [(rname, True) for rname in i1.role_names]
    for rname, inverted in basic_roles:
        out1 = _successors(i1, rname, inverted)
        out2 = _successors(i2, rname, inverted)
        shown = rname + ("-" if inverted else "")
        for x, xp in pairs:
            for y, degree in out1[x]:
                if not any(dp >= degree and (y, yp) in zset for yp, dp in out2[xp]):
                    return fail(10, x, xp, f"no matching {shown}-successor for {i1.names[y]}")
            for yp, degree_p in out2[xp]:
                if not any(d >= degree_p and (y, yp) in zset for y, d in out1[x]):
                    return fail(11, x, xp, f"no matching {shown}-successor for {i2.names[yp]}")

    if phi.nominal:
        for x, xp in pairs:
            for a in i1.individual_names:
                if (x == i1.individuals[a]) != (xp == i2.individuals[a]):
                    return fail(13, x, xp, f"nominal {a} distinguishes the pair")

    if phi.universal and pairs:
        left = {x for x, _ in pairs}
        right = {xp for _, xp in pairs}
        if len(left) < i1.n:
            x = min(set(range(i1.n)) - left)
            return BisimReport(False, 14, (i1.names[x],), "element unmatched on the left")
        if len(right) < i2.n:
            xp = min(set(range(i2.n)) - right)
            return BisimReport(False, 15, (i2.names[xp],), "element unmatched on the right")

    return BisimReport(True)


def _successors(i: Interpretation, rname: str, inverted: bool) -> list[list[tuple[int, Degree]]]:
    """Per-element (successor, degree) lists of role rname, or of its inverse,
    in the order of the sorted (x, y) pairs."""
    out: list[list[tuple[int, Degree]]] = [[] for _ in range(i.n)]
    for (x, y), degree in sorted(i._roles[rname].items()):
        if inverted:
            out[y].append((x, degree))
        else:
            out[x].append((y, degree))
    return out


def largest_bisimulation(
    i1: Interpretation, i2: Interpretation, phi: FeatureSet
) -> set[tuple[int, int]]:
    """The largest crisp bisimulation, read off the coarsest stable
    partition of a graph encoding: for `i1 is i2`, the same-block pairs of
    `compcb(interpretation_to_graph(i1, phi))`; otherwise the pairs (x, y)
    sharing a block of the encoded disjoint union, i2's ids shifted by
    `i1.n` (Nguyen & Tran, "Computing crisp bisimulations for fuzzy
    structures", 2020).  Over finite domains an equivalence satisfies forth
    and back exactly when related elements have equal sups into each class.

    With the universal role, a relation that is not total and surjective
    gives the empty relation: every non-empty bisimulation must be total
    and surjective, and all are subsets of the largest.  Time:
    O((m log l + n) log n) for both interpretations together, plus the
    size of the result.
    """
    _check_signatures(i1, i2)
    if i1 is i2:  # the identity makes it total and surjective
        p = compcb(interpretation_to_graph(i1, phi))
        return {(x, y) for block in p.blocks for x in block for y in block}

    labels, edges = _encoding(i1, phi)
    labels2, edges2 = _encoding(i2, phi)
    n1 = i1.n
    labels = {  # a concept may be non-bottom on one side only
        label: {**labels.get(label, {}), **{x + n1: d for x, d in labels2.get(label, {}).items()}}
        for label in labels.keys() | labels2.keys()
    }
    edges = {  # the signatures match, so both sides have the same edge labels
        label: {**table, **{(s + n1, t + n1): d for (s, t), d in edges2[label].items()}}
        for label, table in edges.items()
    }
    # element names may repeat across the sides; the engine reads only ids
    union = FuzzyGraph._from_ids(i1.algebra, i1.names + i2.names, labels, edges)
    pairs: set[tuple[int, int]] = set()
    for block in compcb(union).blocks:
        left = [x for x in block if x < n1]
        right = [y - n1 for y in block if y >= n1]
        if phi.universal and not (left and right):
            return set()
        pairs.update((x, y) for x in left for y in right)
    return pairs


# --- minimization ------------------------------------------------------------

def interpretation_to_graph(i: Interpretation, phi: FeatureSet) -> FuzzyGraph:
    """Encode an interpretation as a fuzzy graph for partition refinement.

    Vertex labels are the concept names (plus, with nominals enabled, one
    crisp label per individual name); edge labels are the role names
    (plus, with inverses enabled, a reversed copy labelled `r-`).  Element
    ids and the interpretation's degrees, checked when it was built, go to
    the graph as they are.
    """
    return FuzzyGraph._from_ids(i.algebra, i.names, *_encoding(i, phi))


def _encoding(
    i: Interpretation, phi: FeatureSet
) -> tuple[dict[str, Mapping[int, Degree]], dict[str, Mapping[tuple[int, int], Degree]]]:
    """Per-label vertex tables {x: degree} and edge tables {(x, y): degree}
    of i's graph encoding, shared with `largest_bisimulation`'s disjoint
    union: i's own non-empty concept tables, plus one {x: top} table per
    individual under nominals, and i's own role tables, only read."""
    labels: dict[str, Mapping[int, Degree]] = {c: t for c, t in i._concepts.items() if t}
    if phi.nominal:  # names are unique across concepts and individuals
        for a, x in i.individuals.items():
            labels[a] = {x: i.algebra.top}

    edges: dict[str, Mapping[tuple[int, int], Degree]] = dict(i._roles)
    if phi.inverse:
        for rname in i.role_names:
            reversed_label = rname + "-"
            if reversed_label in i.role_names:
                raise UsageError(
                    f"role name {reversed_label!r} collides with the inverse label of {rname!r}"
                )
            edges[reversed_label] = {(y, x): d for (x, y), d in i._roles[rname].items()}
    return labels, edges


def block_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def quotient(i: Interpretation, p: Partition) -> Interpretation:
    """Collapse each partition block to one element.

    Concept degrees come from an arbitrary block member and role degrees
    are the largest degree from any member into the target block; both are
    well defined when p is the stable partition computed for i's graph
    encoding.  Blocks are ordered, and named, as `p.to_names` renders them.
    """
    if p.n != i.n:
        raise UsageError("partition does not cover the interpretation domain")
    name_of = i.names.__getitem__
    member_ids = ordered_blocks(p.blocks, i.names)
    block_of = [0] * i.n
    for bi, ids in enumerate(member_ids):
        for x in ids:
            block_of[x] = bi
    firsts = [ids[0] for ids in member_ids]

    concepts: dict[str, dict[int, Degree]] = {}
    for cname in i.concept_names:
        table = i._concepts[cname]
        concepts[cname] = {bi: table[x] for bi, x in enumerate(firsts) if x in table}
    roles: dict[str, dict[tuple[int, int], Degree]] = {}
    for rname in i.role_names:
        sups: dict[tuple[int, int], Degree] = {}
        for (x, y), degree in i.role_instances(rname).items():
            key = (block_of[x], block_of[y])
            held = sups.get(key)
            if held is None or degree > held:
                sups[key] = degree
        roles[rname] = sups

    return Interpretation._from_ids(
        i.algebra,
        tuple(block_name(map(name_of, ids)) for ids in member_ids),
        {a: block_of[x] for a, x in i.individuals.items()},
        concepts,
        roles,
    )


def minimize(i: Interpretation, phi: FeatureSet) -> Interpretation:
    """Quotient by the partition of the largest auto-bisimulation."""
    return quotient(i, compcb(interpretation_to_graph(i, phi)))


def canonical_relation(
    i: Interpretation, p: Partition, reduced: Interpretation
) -> set[tuple[int, int]]:
    """The pairs (element, its block) between an interpretation and its quotient."""
    rel: set[tuple[int, int]] = set()
    for ids in ordered_blocks(p.blocks, i.names):
        target = reduced.element_id(block_name(map(i.names.__getitem__, ids)))
        rel.update((x, target) for x in ids)
    return rel


def prune_unreachable(i: Interpretation, phi: FeatureSet) -> Interpretation:
    """Drop every element not reachable from a named individual via
    positive-degree basic roles (inverse steps included when enabled).

    Only without the universal role: `some U . C` reads every element, so
    dropping one can change a degree at a named individual."""
    if not i.individual_names:
        raise UsageError("pruning needs at least one named individual")
    if phi.universal:
        raise UsageError("pruning applies only when the universal role is disabled")
    successors: list[list[int]] = [[] for _ in range(i.n)]
    for table in i._roles.values():
        for x, y in table:
            successors[x].append(y)
            if phi.inverse:
                successors[y].append(x)
    seen = set(i.individuals.values())
    stack = list(seen)
    while stack:
        for y in successors[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)

    keep = [x for x in range(i.n) if x in seen]
    new_id = {x: k for k, x in enumerate(keep)}
    concepts = {
        cname: {new_id[x]: degree for x, degree in i._concepts[cname].items() if x in new_id}
        for cname in i.concept_names
    }
    roles = {
        rname: {
            (new_id[x], new_id[y]): degree
            for (x, y), degree in i.role_instances(rname).items()
            if x in new_id and y in new_id
        }
        for rname in i.role_names
    }
    individuals = {a: new_id[x] for a, x in i.individuals.items()}
    return Interpretation._from_ids(
        i.algebra, tuple(i.names[x] for x in keep), individuals, concepts, roles
    )


# --- satisfaction ------------------------------------------------------------

def satisfies(i: Interpretation, phi: FeatureSet, stmt) -> bool:
    """Whether the interpretation validates an assertion or axiom.

    A bounded statement is checked in a fixed order: its bound, then its
    individuals, then its features as it is evaluated.  An axiom's bound
    holds at every element, an assertion's at its individuals."""
    if isinstance(stmt, SameAssertion):
        return i.individual_element(stmt.a) == i.individual_element(stmt.b)
    if isinstance(stmt, DistinctAssertion):
        return i.individual_element(stmt.a) != i.individual_element(stmt.b)
    if not isinstance(stmt, (TBoxAxiom, ConceptAssertion, RoleAssertion)):
        raise UsageError(f"unknown statement {stmt!r}")
    bound = i.algebra.check(stmt.degree)
    if isinstance(stmt, TBoxAxiom):
        values = eval_concept(i, ImpliesConcept(stmt.left, stmt.right), phi)
    elif isinstance(stmt, ConceptAssertion):
        x = i.individual_element(stmt.individual)
        values = [eval_concept(i, stmt.concept, phi)[x]]
    else:
        x, y = i.individual_element(stmt.a), i.individual_element(stmt.b)
        check_features(stmt.role, phi)
        values = [_role_column(i, stmt.role, y, {})[x]]
    compare = _COMPARE[stmt.op]
    return all(compare(v, bound) for v in values)


# --- JSON formats ------------------------------------------------------------

def interpretation_from_json(doc, algebra: Algebra) -> Interpretation:
    """Schema: {"domain": [names], "individuals": {a: name},
    "concepts": {A: {name: degree}}, "roles": {r: [[from, to, degree]]}}."""
    if not isinstance(doc, dict) or "domain" not in doc:
        raise UsageError("interpretation document must be a JSON object with a \"domain\" list")
    domain, individuals = doc["domain"], doc.get("individuals", {})
    concepts, roles = doc.get("concepts", {}), doc.get("roles", {})
    if not isinstance(domain, list) or not all(isinstance(x, str) for x in domain):
        raise UsageError('"domain" must be a list of element names')
    if not _object_of(individuals, str):
        raise UsageError('"individuals" must be an object of element names')
    if not _object_of(concepts, dict):
        raise UsageError('"concepts" must be an object of {element: degree} objects')
    if not _object_of(roles, list) or not all(
        isinstance(e, list) and len(e) == 3 and isinstance(e[0], str) and isinstance(e[1], str)
        for entries in roles.values()
        for e in entries
    ):
        raise UsageError('"roles" must be an object of lists of [from, to, degree] lists')
    return Interpretation(algebra, domain, individuals, concepts, roles)


def _object_of(value, kind: type) -> bool:
    return isinstance(value, dict) and all(isinstance(v, kind) for v in value.values())


def interpretation_to_json(i: Interpretation) -> dict:
    fmt = i.algebra.format_degree
    return {
        "domain": list(i.names),
        "individuals": {a: i.names[x] for a, x in sorted(i.individuals.items())},
        "concepts": {
            cname: {
                i.names[x]: fmt(degree)
                for x, degree in sorted(i._concepts[cname].items())
            }
            for cname in i.concept_names
        },
        "roles": {
            rname: [
                [i.names[x], i.names[y], fmt(degree)]
                for (x, y), degree in sorted(i.role_instances(rname).items())
            ]
            for rname in i.role_names
        },
    }


def interpretation_json_pieces(i: Interpretation) -> Iterator[str]:
    """Pieces of text that join to `json.dumps(interpretation_to_json(i),
    indent=1) + "\n"`, byte for byte.

    Each element name is encoded once, with the `encode_basestring_ascii`
    that `json.dumps` uses, and each degree object is formatted once.
    Unlike `json.dumps` with `indent`, it makes no reference cycles.
    """
    names = [encode_basestring_ascii(name) for name in i.names]
    fmt = i.algebra.format_degree
    # keyed by object id, not by degree: `Fraction.__hash__` is slow, and
    # i's tables keep every degree alive, so no id is reused meanwhile
    texts: dict[int, str] = {}

    def degree_text(degree: Degree) -> str:
        text = texts.get(id(degree))
        if text is None:
            text = texts[id(degree)] = encode_basestring_ascii(fmt(degree))
        return text

    yield "{\n \"domain\": "
    yield _json_container("[", "]", names, 1)
    yield ",\n \"individuals\": "
    yield _json_container("{", "}", [
        f"{encode_basestring_ascii(a)}: {names[x]}" for a, x in sorted(i.individuals.items())
    ], 1)
    yield ",\n \"concepts\": "
    yield _json_container("{", "}", [
        f"{encode_basestring_ascii(cname)}: " + _json_container("{", "}", [
            f"{names[x]}: {degree_text(degree)}"
            for x, degree in sorted(i._concepts[cname].items())
        ], 2)
        for cname in i.concept_names
    ], 1)
    yield ",\n \"roles\": "
    yield _json_container("{", "}", [
        f"{encode_basestring_ascii(rname)}: " + _json_container("[", "]", [
            f"[\n    {names[x]},\n    {names[y]},\n    {degree_text(degree)}\n   ]"
            for (x, y), degree in sorted(i.role_instances(rname).items())
        ], 2)
        for rname in i.role_names
    ], 1)
    yield "\n}\n"


def _json_container(open_: str, close: str, items: list[str], depth: int) -> str:
    """A JSON array or object at `depth`, laid out as `json.dumps` lays it
    out with `indent=1`, from its already rendered items."""
    if not items:
        return open_ + close
    inner = "\n" + " " * (depth + 1)
    return f"{open_}{inner}{(',' + inner).join(items)}\n{' ' * depth}{close}"


def load_interpretation(path: str, algebra: Algebra) -> Interpretation:
    return interpretation_from_json(read_json(path), algebra)


def load_relation(path: str, i1: Interpretation, i2: Interpretation) -> set[tuple[int, int]]:
    """Load a relation as a JSON array of [left-name, right-name] pairs."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise UsageError(f"{path}: relation document must be a JSON array of pairs")
    pairs: set[tuple[int, int]] = set()
    for entry in doc:
        if not isinstance(entry, list) or len(entry) != 2 or not all(isinstance(e, str) for e in entry):
            raise UsageError(f"relation entry {entry!r} must be a [left, right] pair of names")
        pairs.add((i1.element_id(entry[0]), i2.element_id(entry[1])))
    return pairs
