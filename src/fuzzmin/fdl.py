"""Fuzzy interpretations and everything built on them: feature sets,
concept/role expressions with their semantics, crisp bisimulation checking,
the graph encoding, the largest bisimulation and minimization (both from
the encoding's coarsest stable partition, `compcb`), the quotient
construction, pruning of unreachable elements, and satisfaction of
assertions and terminological axioms.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, repeat, starmap
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import Algebra, Degree, _OperatorMemo, read_json
from .errors import FeatureError, UsageError
from .graph import (FuzzyGraph, _as_sequence, _column, _EdgeLists, _Reader, _Tables, _Triples,
                    _by_source, _ids, _object_of, _ranked_store, _union_store)
from .partition import Partition, ordered_blocks
from .record import Record
from .refine import compcb

FEATURE_NAMES = ("baaz", "comp", "union", "star", "test", "inverse", "universal", "nominal")

_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


class FeatureSet(Record):
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
        return cls(*[name in chosen for name in FEATURE_NAMES if name != "baaz"])  # the field order

    def names(self) -> list[str]:
        enabled = ["baaz"]
        enabled += [n for n in FEATURE_NAMES if n != "baaz" and getattr(self, n)]
        return enabled

    def with_universal(self) -> "FeatureSet":
        return self if self.universal else FeatureSet.from_names(self.names() + ["universal"])


# --- concept and role expressions -----------------------------------------

class ConceptNode(Record):
    __slots__ = ()


class RoleNode(Record):
    __slots__ = ()


class ConstantConcept(ConceptNode):
    value: Fraction


class ConceptName(ConceptNode):
    name: str


class Nominal(ConceptNode):
    individual: str


class BaazConcept(ConceptNode):
    child: ConceptNode


class NotConcept(ConceptNode):
    child: ConceptNode


class AndConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


class OrConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


class ImpliesConcept(ConceptNode):
    left: ConceptNode
    right: ConceptNode


class ForallConcept(ConceptNode):
    role: RoleNode
    child: ConceptNode


class ExistsConcept(ConceptNode):
    role: RoleNode
    child: ConceptNode


class RoleName(RoleNode):
    name: str


class InverseRole(RoleNode):
    child: RoleNode


class ComposeRole(RoleNode):
    left: RoleNode
    right: RoleNode


class UnionRole(RoleNode):
    left: RoleNode
    right: RoleNode


class StarRole(RoleNode):
    child: RoleNode


class TestRole(RoleNode):
    concept: ConceptNode


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

class ConceptAssertion(Record):
    concept: ConceptNode
    individual: str
    op: str  # one of >=, >, <=, <
    degree: Degree

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise UsageError(f"bad comparison {self.op!r}")


class RoleAssertion(Record):
    role: RoleNode
    a: str
    b: str
    op: str
    degree: Degree

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise UsageError(f"bad comparison {self.op!r}")


class SameAssertion(Record):
    a: str
    b: str


class DistinctAssertion(Record):
    a: str
    b: str


class TBoxAxiom(Record):
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

    Every degree is a rank into `levels`: bottom, then the distinct concept
    and role degrees ascending, then top if no concept or role has it.
    Concept assignments are {element: rank} tables, bottom left out and
    read as bottom.  Role instances, of positive degrees, are held once:
    per-target lists and per-source lists (`_out`).  Immutable.

    The constructor takes names and degree text and validates both; it is
    the boundary for JSON documents and generators.  One `graph._Reader`
    ranks the document's degrees, each distinct text parsed once, before
    any entry is checked; then one checked loop per concept and per role
    writes each entry's rank into its table or per-target list.
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
        self._id = _ids(names, "element")
        element_id = self.element_id
        individual_ids = {a: element_id(elem) for a, elem in (individuals or {}).items()}
        concepts = concepts or {}
        roles = {rname: _as_sequence(entries) for rname, entries in (roles or {}).items()}
        reader = _Reader(algebra, (table.values() for table in concepts.values()),
                         (_column(roles.values(), 2),))
        tables = reader.tables(((cname, element_id(elem), degree)
                                for cname, assignment in concepts.items()
                                for elem, degree in assignment.items()), concepts)
        incoming = reader.lists(self._id, roles.items(), "role instance {1}({0},{2})")
        self._build(algebra, names, individual_ids, tables, incoming, reader.levels, reader.l)

    @classmethod
    def _from_ids(
        cls,
        algebra: Algebra,
        names: tuple[str, ...],
        individuals: dict[str, int],
        concepts: _Tables,
        roles: _Triples,
        levels: tuple[Degree, ...],
    ) -> "Interpretation":
        """An interpretation from element ids and checked ranks into
        `levels`, an ascending tuple: per concept an {x: rank} table without
        bottom, per role the (source, target, rank) triples.  `levels` is
        compacted to the ranks in use (`graph._ranked_store`).  Names are
        checked for duplicates."""
        i = cls.__new__(cls)
        i._id = _ids(names, "element")
        i._build(algebra, names, individuals, *_ranked_store(len(names), concepts, roles, levels))
        return i

    def _build(self, algebra: Algebra, names: tuple[str, ...], individuals: dict[str, int],
               concepts: _Tables, incoming: dict[str, _EdgeLists], levels: tuple[Degree, ...],
               l: int) -> None:
        self.algebra = algebra
        self.names: tuple[str, ...] = names
        self.n = len(names)
        self.individuals: dict[str, int] = individuals
        self.individual_names: tuple[str, ...] = tuple(sorted(individuals))
        self.concept_names: tuple[str, ...] = tuple(sorted(concepts))
        self.role_names: tuple[str, ...] = tuple(sorted(incoming))
        self._concepts, self._in, self.levels, self._l = concepts, incoming, levels, l
        self._out: dict[str, tuple] = {}  # per role, its per-source lists, made on first use

        kind_of: dict[str, str] = {}
        for kind, group in (("concept", self.concept_names), ("role", self.role_names),
                            ("individual", self.individual_names)):
            for name in group:
                if kind_of.setdefault(name, kind) != kind:
                    raise UsageError(f"name {name!r} used both as {kind_of[name]} and {kind}")

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
        return self.levels[self._concept_table(cname).get(x, 0)]

    def _concept_table(self, cname: str) -> dict[int, int]:
        """Concept cname's {element: rank} table, bottom left out."""
        try:
            return self._concepts[cname]
        except KeyError:
            raise UsageError(f"unknown concept name {cname!r}") from None

    def role_instances(self, rname: str) -> Mapping[tuple[int, int], Degree]:
        """A read-only {(x, y): degree} copy of role rname, by target."""
        return MappingProxyType({(s, t): self.levels[rank] for t, sources in
                                 enumerate(self._adjacency(rname, True)) for s, rank in sources})

    def _adjacency(self, rname: str, inverted: bool) -> tuple:
        """Per-element (successor, rank) lists of role rname or its inverse."""
        if rname not in self._in:
            raise UsageError(f"unknown role name {rname!r}")
        if inverted:
            return self._in[rname]
        lists = self._out.get(rname)
        if lists is None:
            lists = self._out[rname] = _by_source(self._in[rname])
        return lists


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
    ops = _OperatorMemo(i.algebra)  # one for all the columns
    for y in range(i.n):
        for x, degree in enumerate(_role_column(i, role, y, ops)):
            rows[x][y] = degree
    return rows


def _role_column(i: Interpretation, role: RoleNode, y: int, ops: _OperatorMemo) -> list[Degree]:
    """R(x, y) for every x, as some R.v where v is top at y and bottom elsewhere."""
    v = [i.algebra.bottom] * i.n
    v[y] = i.algebra.top
    return _modal(i, role, v, ops, True)


def _modal(i: Interpretation, role: RoleNode, v: list[Degree], ops: _OperatorMemo,
           some: bool, inverted: bool = False) -> list[Degree]:
    """some R.v at every element, or all R.v when not `some`, computed from
    the role store alone.  A pending inverse is pushed down to the role
    names; tests and the universal role are their own inverses.  Like the
    star search, it reads predecessor lists.  `ops` is the evaluation's
    `algebra._OperatorMemo`.

    The `all` form of each step takes min and the residuum where `some`
    takes max and the t-norm: (sup a) => c = inf (a => c) and
    (a * b) => c = a => (b => c).
    """
    alg = i.algebra
    join, step, _ = ops.modal(some)
    while isinstance(role, InverseRole):
        role, inverted = role.child, not inverted
    if isinstance(role, RoleName):
        neutral = alg.bottom if some else alg.top
        out = [neutral] * i.n
        levels = i.levels
        for y, sources in enumerate(i._adjacency(role.name, not inverted)):
            w = v[y]
            for x, rank in sources:
                d = step(levels[rank], w)
                out[x] = d if out[x] is neutral else join(out[x], d)  # neutral: join's unit
        return out
    if isinstance(role, UniversalRole):
        return [step(alg.top, max(v) if some else min(v))] * i.n
    if isinstance(role, TestRole):
        return [step(c, d) for c, d in zip(_test_values(i, role, ops), v)]
    if isinstance(role, UnionRole):
        first, *rest = _chain_operands(role)
        out = _modal(i, first, v, ops, some, inverted)
        for part in rest:
            out = list(map(join, out, _modal(i, part, v, ops, some, inverted)))
        return out
    if isinstance(role, ComposeRole):
        # R ; S applies S first, and R first under an inverse
        parts = _chain_operands(role)
        for part in (parts if inverted else reversed(parts)):
            v = _modal(i, part, v, ops, some, inverted)
        return v
    if isinstance(role, StarRole):
        return _star(i, role, v, ops, some, inverted)
    raise UsageError(f"unknown role node {role!r}")


def _test_values(i: Interpretation, test: TestRole, ops: _OperatorMemo) -> list[Degree]:
    """The values of a test's concept, evaluated once and kept in `ops.tests`."""
    values = ops.tests.get(id(test))
    if values is None:
        values = ops.tests[id(test)] = _concept_values(i, test.concept, ops)
    return values


def _star(i: Interpretation, star: RoleNode, v: list[Degree], ops: _OperatorMemo,
          some: bool, inverted: bool) -> list[Degree]:
    """some R*.v, or all R*.v when not `some`, by one search over the pairs
    (element, state of R*'s automaton, see `_StarAutomaton`).

    In state q at x, the value is the best over the words the automaton
    accepts from q, and over the paths from x that spell them, of the path
    degree combined with v at the path's end.  Along a path, `some` values
    never grow (d * w <= w) and `all` values never fall (d => w >= w), so
    the search settles the largest value first (for `all`, the smallest),
    as in Knuth's generalization of Dijkstra's algorithm (Inf. Process.
    Lett. 6(1), 1977), and each move into a pair is relaxed once, when the
    pair settles.  This is exact because * distributes over sup and
    (a * b) => c = a => (b => c).  Time O((m k + n k) log(n k)) for k
    states."""
    alg = i.algebra
    n = i.n
    _, step, better = ops.modal(some)
    neutral = alg.bottom if some else alg.top  # the value no path improves
    automaton = _StarAutomaton(i, star, inverted, ops)
    into, accepting = automaton.into, automaton.accepting
    value = [[neutral] * n for _ in accepting]
    done = [bytearray(n) for _ in accepting]
    reached = bytearray(len(accepting))  # states in which some pair has settled
    # heap entries (key, state, element), best value first
    heap = [(-d if some else d, q, x)
            for q, end in enumerate(accepting) if end
            for x, d in enumerate(v) if d != neutral]
    for _, q, x in heap:
        value[q][x] = v[x]
    heapify(heap)
    while heap:
        _, q, y = heappop(heap)
        if done[q][y]:
            continue
        done[q][y] = 1
        w = value[q][y]
        first = not reached[q]
        reached[q] = 1
        for c, sources in into[q]:
            if sources is None:  # U: the best value settled in q reaches every element
                moves, levels = (zip(range(n), repeat(0)) if first else ()), (alg.top,)
            elif sources is _EMPTY_MOVE:  # the same element, the same value
                moves = ((y, None),)
            else:
                lists, levels = sources
                moves = lists[y]
            value_c, done_c = value[c], done[c]
            for x, rank in moves:
                if not done_c[x]:
                    cand = w if rank is None else step(levels[rank], w)
                    if better(cand, value_c[x]):
                        value_c[x] = cand
                        heappush(heap, (-cand if some else cand, c, x))
    return value[0]


_EMPTY_MOVE = object()  # the sources of a move that stays on its element


class _StarAutomaton:
    """An automaton of R*, read once, in the manner of Thompson (CACM
    1968): `build(R, after)` makes a state whose words are R's words
    followed by those of state `after`.  A pending inverse is pushed down
    to the role names, and (R ; S)- is S- ; R-.  Each role name or
    inverse, each test and each U is a move; a union or a star joins the
    states of its parts (`absorb`), so the automaton has O(|R|) states and
    moves, and `r*`, `(r-)*` and `(r | s-)*` have one state.

    `into[q]` lists the moves into state q as pairs (state p, sources):
    for an atom S, (lists, levels) where `lists[y]` holds the (x, rank)
    with S(x, y) = levels[rank] > bottom, a test C? giving (y, y) over C's
    values; None for U and `_EMPTY_MOVE` for an empty move.  `accepting[q]`
    says whether a word may end in q; state 0 is the start.  States are
    numbers, so the automaton holds no reference cycle."""

    def __init__(self, i: Interpretation, star: RoleNode, inverted: bool, ops: _OperatorMemo):
        self.i, self.ops = i, ops
        self.built: dict = {}  # sources per role name and direction, and per test node
        self.ends: list[bool] = []  # per state built, whether a word may end in it
        self.moves: list[list[tuple]] = []  # per state built, its (sources, next state)
        self.referenced: set[int] = set()  # states that a move leads to
        self.open: set[int] = set()  # stars' loop states while their child is built
        states = [self.build(star, inverted, self.state(end=True))]
        number = {states[0]: 0}
        for state in states:  # grows while read: every state reachable from the start
            for _, nxt in self.moves[state]:
                if nxt not in number:
                    number[nxt] = len(states)
                    states.append(nxt)
        self.into: list[list[tuple]] = [[] for _ in states]
        for p, state in enumerate(states):
            moves = {(id(sources), number[nxt]): sources for sources, nxt in self.moves[state]}
            for (_, q), sources in moves.items():
                self.into[q].append((p, sources))
        self.accepting = [self.ends[state] for state in states]

    def state(self, end: bool = False) -> int:
        self.ends.append(end)
        self.moves.append([])
        return len(self.moves) - 1

    def absorb(self, state: int, other: int) -> None:
        """Let every word from `other` be a word from `state` as well: copy
        other's content when no move leads to other, or when other is
        complete and has one move at most; otherwise add an empty move to
        other.  So no content is copied twice, and the automaton stays
        linear in the size of the expression."""
        if other in self.referenced and (other in self.open or len(self.moves[other]) > 1):
            self.moves[state].append((_EMPTY_MOVE, other))
            return
        self.ends[state] = self.ends[state] or self.ends[other]
        self.moves[state] += self.moves[other]

    def build(self, role: RoleNode, inverted: bool, after: int) -> int:
        looped = False
        while isinstance(role, (StarRole, InverseRole)):  # (R*)* = R*, (R-)* = (R*)-
            looped = looped or isinstance(role, StarRole)
            inverted = inverted != isinstance(role, InverseRole)
            role = role.child
        if not looped and isinstance(role, ComposeRole):
            parts = _chain_operands(role)
            for part in (parts if inverted else reversed(parts)):  # the last read is built first
                after = self.build(part, inverted, after)
            return after
        state = self.state()
        if looped:
            self.open.add(state)
            body = self.build(role, inverted, state)
            self.referenced.add(after)  # a union's parts share their `after`
            self.absorb(state, after)
            self.absorb(state, body)
            self.open.remove(state)
        elif isinstance(role, UnionRole):
            for part in _chain_operands(role):
                self.absorb(state, self.build(part, inverted, after))
        else:
            self.moves[state].append((self.sources(role, inverted), after))
            self.referenced.add(after)
        return state

    def sources(self, role: RoleNode, inverted: bool) -> tuple | None:
        """An atom's sources (a role's predecessor lists), made once per
        role name and direction and per test; None for U."""
        if isinstance(role, UniversalRole):
            return None
        if isinstance(role, RoleName):
            key = (role.name, inverted)
            if key not in self.built:
                self.built[key] = (self.i._adjacency(role.name, not inverted), self.i.levels)
        elif isinstance(role, TestRole):
            key = id(role)
            if key not in self.built:
                values = _test_values(self.i, role, self.ops)
                self.built[key] = (tuple(((y, y),) if c else () for y, c in enumerate(values)),
                                   values)
        else:
            raise UsageError(f"unknown role node {role!r}")
        return self.built[key]


def eval_concept(i: Interpretation, concept: ConceptNode, phi: FeatureSet) -> list[Degree]:
    """Degree of a concept at every domain element, in domain order."""
    check_features(concept, phi)
    return _concept_values(i, concept, _OperatorMemo(i.algebra))


def _concept_values(i: Interpretation, concept: ConceptNode, ops: _OperatorMemo) -> list[Degree]:
    alg = i.algebra
    n = i.n
    if isinstance(concept, ConstantConcept):
        value = alg.check(concept.value)
        return [value] * n
    if isinstance(concept, ConceptName):
        table, levels = i._concept_table(concept.name), i.levels
        values = [levels[0]] * n
        for x, rank in table.items():
            values[x] = levels[rank]
        return values
    if isinstance(concept, Nominal):
        elem = i.individual_element(concept.individual)
        return [alg.top if x == elem else alg.bottom for x in range(n)]
    if isinstance(concept, BaazConcept):
        return list(map(ops.baaz, _concept_values(i, concept.child, ops)))
    if isinstance(concept, NotConcept):
        return list(map(ops.neg, _concept_values(i, concept.child, ops)))
    if isinstance(concept, (AndConcept, OrConcept)):
        op = ops.tnorm if isinstance(concept, AndConcept) else ops.snorm
        first, *rest = _chain_operands(concept)
        values = _concept_values(i, first, ops)
        for part in rest:
            values = list(map(op, values, _concept_values(i, part, ops)))
        return values
    if isinstance(concept, ImpliesConcept):
        *lefts, last = _chain_operands(concept)
        values = _concept_values(i, last, ops)
        for part in reversed(lefts):
            values = list(map(ops.residuum, _concept_values(i, part, ops), values))
        return values
    if isinstance(concept, (ForallConcept, ExistsConcept)):
        child = _concept_values(i, concept.child, ops)
        return _modal(i, concept.role, child, ops, isinstance(concept, ExistsConcept))
    raise UsageError(f"unknown concept node {concept!r}")


# --- bisimulations -----------------------------------------------------------

class BisimReport(Record):
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
    lv1, lv2 = i1.levels, i2.levels
    for inverted in (False, True) if phi.inverse else (False,):  # every r, then every r-
        for rname in i1.role_names:
            out1, out2 = i1._adjacency(rname, inverted), i2._adjacency(rname, inverted)
            role = rname + ("-" if inverted else "")
            for x, xp in pairs:  # r- lists are in input order: report the least id
                bad = [y for y, r in out1[x]
                       if not any(lv2[rp] >= lv1[r] and (y, yp) in zset for yp, rp in out2[xp])]
                if bad:
                    return fail(10, x, xp, f"no matching {role}-successor for {i1.names[min(bad)]}")
                bad = [yp for yp, rp in out2[xp]
                       if not any(lv1[r] >= lv2[rp] and (y, yp) in zset for y, r in out1[x])]
                if bad:
                    return fail(11, x, xp, f"no matching {role}-successor for {i2.names[min(bad)]}")

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

    # element names may repeat across the sides; the engine reads only ids
    n1 = i1.n
    union = FuzzyGraph._from_ids(i1.algebra, i1.names + i2.names, *_union_store(
        (n1, *_encoding(i1, phi), i1.levels), (i2.n, *_encoding(i2, phi), i2.levels)))
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
    (plus, with inverses enabled, `r-`).  The graph reads i's own store:
    `r` is r's per-target lists, `r-` its per-source lists.
    """
    return FuzzyGraph._from_ids(i.algebra, i.names, *_encoding(i, phi), i.levels, i._l)


def _encoding(i: Interpretation, phi: FeatureSet) -> tuple[_Tables, dict]:
    """Per-label vertex rank tables and edge lists of i's graph encoding,
    read from i, plus one {x: top's rank} table per individual under
    nominals."""
    labels = {c: t for c, t in i._concepts.items() if t}
    if phi.nominal:  # names are unique across concepts and individuals
        top = len(i.levels) - 1
        for a, x in i.individuals.items():
            labels[a] = {x: top}

    edges = dict(i._in)
    if phi.inverse:
        for rname in i.role_names:
            if rname + "-" in edges:
                raise UsageError(f"role name {rname + '-'!r} collides with the inverse label "
                                 f"of {rname!r}")
            edges[rname + "-"] = i._adjacency(rname, False)
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

    concepts = {cname: {block_of[x]: rank for x, rank in table.items() if firsts[block_of[x]] == x}
                for cname, table in i._concepts.items()}
    roles: _Triples = {}
    for rname in i.role_names:
        sups: dict[tuple[int, int], int] = {}
        for by, sources in zip(block_of, i._in[rname]):
            for x, rank in sources:
                key = (block_of[x], by)
                if rank > sups.get(key, 0):
                    sups[key] = rank
        roles[rname] = [(bx, by, rank) for (bx, by), rank in sups.items()]

    return Interpretation._from_ids(
        i.algebra, tuple(block_name(map(name_of, ids)) for ids in member_ids),
        {a: block_of[x] for a, x in i.individuals.items()}, concepts, roles, i.levels)


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
    adjacency = [i._adjacency(rname, inverted) for rname in i.role_names
                 for inverted in ((False, True) if phi.inverse else (False,))]
    seen = set(i.individuals.values())
    stack = list(seen)
    while stack:
        x = stack.pop()
        for lists in adjacency:
            for y, _ in lists[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)

    keep = [x for x in range(i.n) if x in seen]
    new_id = {x: k for k, x in enumerate(keep)}
    concepts = {
        cname: {new_id[x]: rank for x, rank in i._concepts[cname].items() if x in new_id}
        for cname in i.concept_names
    }
    roles = {rname: [(new_id[x], new_id[y], rank)
                     for y, sources in enumerate(i._in[rname]) if y in new_id
                     for x, rank in sources if x in new_id]
             for rname in i.role_names}
    individuals = {a: new_id[x] for a, x in i.individuals.items()}
    return Interpretation._from_ids(
        i.algebra, tuple(i.names[x] for x in keep), individuals, concepts, roles, i.levels
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
        values = [_role_column(i, stmt.role, y, _OperatorMemo(i.algebra))[x]]
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
    if not _object_of(roles, list):
        raise UsageError('"roles" must be an object of lists of [from, to, degree] lists')
    return Interpretation(algebra, domain, individuals, concepts, roles)


def interpretation_to_json(i: Interpretation) -> dict:
    texts = [i.algebra.format_degree(degree) for degree in i.levels]
    return {
        "domain": list(i.names),
        "individuals": {a: i.names[x] for a, x in sorted(i.individuals.items())},
        "concepts": {
            cname: {
                i.names[x]: texts[rank]
                for x, rank in sorted(i._concepts[cname].items())
            }
            for cname in i.concept_names
        },
        "roles": {
            rname: [
                [i.names[x], i.names[y], texts[rank]]
                for x, successors in enumerate(i._adjacency(rname, False)) for y, rank in successors
            ]
            for rname in i.role_names
        },
    }


def interpretation_json_pieces(i: Interpretation) -> Iterator[str]:
    """Pieces of text that join to `json.dumps(interpretation_to_json(i),
    indent=1) + "\n"`, byte for byte, about one per element, concept value
    and role instance, so a writer can stream them.  Each element name is
    encoded once, with the `encode_basestring_ascii` that `json.dumps` uses,
    and each level once.  Unlike `json.dumps` with `indent`, it makes no
    reference cycles."""
    names = [encode_basestring_ascii(name) for name in i.names]
    levels = [encode_basestring_ascii(i.algebra.format_degree(degree)) for degree in i.levels]

    def concept(cname: str) -> Iterator[str]:
        return _json_container(f"{encode_basestring_ascii(cname)}: {{", "}", 2, sorted(
            i._concepts[cname].items()), lambda x, rank: f"{names[x]}: {levels[rank]}")

    def role(rname: str) -> Iterator[str]:
        return _json_container(f"{encode_basestring_ascii(rname)}: [", "]", 2, [
            (x, y, rank) for x, successors in enumerate(i._adjacency(rname, False))
            for y, rank in successors
        ], lambda x, y, rank: f"[\n    {names[x]},\n    {names[y]},\n    {levels[rank]}\n   ]")

    return chain(
        ("{\n \"domain\": ",), _json_container("[", "]", 1, names),
        (",\n \"individuals\": ",), _json_container("{", "}", 1, sorted(i.individuals.items()),
                                                     lambda a, x: f"{encode_basestring_ascii(a)}: {names[x]}"),
        (",\n \"concepts\": ",), _json_container("{", "}", 1, i.concept_names, concept, nested=True),
        (",\n \"roles\": ",), _json_container("{", "}", 1, i.role_names, role, nested=True),
        ("\n}\n",),
    )


def _json_container(open_: str, close: str, depth: int, items: Sequence,
                    render: Callable | None = None, nested: bool = False) -> Iterator[str]:
    """Pieces of a JSON array or object at `depth`, as `json.dumps` lays it
    out with `indent=1`, one per item; `open_` may start with the
    container's key.  An item is its text, or `render(*item)` makes it;
    when `nested`, `render(item)` makes its pieces.  Both run lazily."""
    if not items:
        return iter((open_ + close,))
    seps = chain((open_ + "\n" + " " * (depth + 1),), repeat(",\n" + " " * (depth + 1)))
    if nested:
        body = chain.from_iterable(map(chain, zip(seps), map(render, items)))
    else:
        body = map(str.__add__, seps, starmap(render, items) if render else items)
    return chain(body, ("\n" + " " * depth + close,))


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
