"""Surface syntax for concept and role expressions.

Grammar (ASCII):

    C ::= DEGREE | NAME | '{' NAME '}' | 'tri' C | 'not' C
        | C '&' C | C '|' C | C '->' C
        | 'all' R '.' C | 'some' R '.' C | '(' C ')'
    R ::= NAME | 'U' | R '-' | R ';' R | R '|' R | R '*' | C '?' | '(' R ')'

Precedence: for roles, postfix ('-', '*', '?') binds tighter than ';',
which binds tighter than '|'.  For concepts, prefix ('tri', 'not') binds
tighter than '&', then '|', then right-associative '->'; a quantifier's
body extends as far right as possible.  Degrees are decimals or 'p/q'
fractions and print canonically as fractions ("0.5" prints as "1/2").
A '?' test takes an atomic or parenthesized concept: write '(A & B) ?'.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import check_number_text
from .errors import FeatureError, ParseError
from .fdl import (
    AndConcept,
    BaazConcept,
    ComposeRole,
    ConceptName,
    ConceptNode,
    ConstantConcept,
    ExistsConcept,
    FeatureSet,
    ForallConcept,
    ImpliesConcept,
    InverseRole,
    Nominal,
    NotConcept,
    OrConcept,
    RoleName,
    RoleNode,
    StarRole,
    TestRole,
    UnionRole,
    UniversalRole,
)

_KEYWORDS = {"all", "some", "not", "tri", "U"}
_CONCEPT_STARTERS = {"not", "tri", "all", "some"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<arrow>->)
      | (?P<sym>[&|;*?.(){}\-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            value = match.group()
            if kind == "name" and value in _KEYWORDS:
                kind = value  # keywords are their own token kind
            elif kind == "arrow" or kind == "sym":
                kind = value
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Deepest expression nesting the parser accepts.  The parser, the checks
# and the evaluator all recurse once per level, so this bound keeps every
# one of them inside the interpreter's recursion limit.
MAX_NESTING = 100


def _nesting(method):
    """Count one level of nesting around a parser method that recursion
    passes through."""

    def counted(self):
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", self.pos())
        self.depth += 1
        try:
            return method(self)
        finally:
            self.depth -= 1

    return counted


class _PendingConcept:
    """A concept parsed in role position; must be completed by '?'."""

    __slots__ = ("node", "pos")

    def __init__(self, node: ConceptNode, pos: int):
        self.node = node
        self.pos = pos


class _Parser:
    def __init__(self, text: str, phi: FeatureSet):
        self.tokens = _tokenize(text)
        self.phi = phi
        self.i = 0
        self.depth = 0
        # (token index, depth) -> (node or ParseError, token index after it)
        # for the groups parsed in role position
        self.groups: dict[tuple[int, int], tuple] = {}

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def pos(self) -> int:
        return self.tokens[self.i][2]

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r}, found {self.tokens[self.i][1] or 'end of input'!r}", self.pos())
        return self.advance()

    def need(self, feature: str, construct: str) -> None:
        # FeatureError, not ParseError: recognized-but-disabled constructs
        # must not trigger backtracking in role position
        if not getattr(self.phi, feature):
            raise FeatureError(f"{construct} requires feature '{feature}'")

    # concepts ---------------------------------------------------------

    def concept(self) -> ConceptNode:
        left = self.concept_or()
        if self.peek() == "->":
            self.advance()
            return ImpliesConcept(left, self.concept())
        return left

    def concept_or(self) -> ConceptNode:
        node = self.concept_and()
        while self.peek() == "|":
            self.advance()
            node = OrConcept(node, self.concept_and())
        return node

    def concept_and(self) -> ConceptNode:
        node = self.concept_unary()
        while self.peek() == "&":
            self.advance()
            node = AndConcept(node, self.concept_unary())
        return node

    @_nesting
    def concept_unary(self) -> ConceptNode:
        kind = self.peek()
        if kind == "tri":
            self.advance()
            return BaazConcept(self.concept_unary())
        if kind == "not":
            self.advance()
            return NotConcept(self.concept_unary())
        if kind in ("all", "some"):
            self.advance()
            role = self.role()
            self.expect(".")
            body = self.concept()  # body extends maximally right
            return ForallConcept(role, body) if kind == "all" else ExistsConcept(role, body)
        return self.concept_atom()

    def concept_atom(self) -> ConceptNode:
        kind, value, pos = self.tokens[self.i]
        if kind == "number":
            self.advance()
            try:
                return ConstantConcept(Fraction(check_number_text(value)))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad degree literal {value!r}", pos) from None
        if kind == "name":
            self.advance()
            return ConceptName(value)
        if kind == "{":
            self.need("nominal", "nominal '{a}'")
            self.advance()
            _, individual, _ = self.expect("name")
            self.expect("}")
            return Nominal(individual)
        if kind == "(":
            self.advance()
            node = self.concept()
            self.expect(")")
            return node
        raise ParseError(f"expected a concept, found {value or 'end of input'!r}", pos)

    # roles ------------------------------------------------------------

    def role(self) -> RoleNode:
        node = self.role_union()
        if isinstance(node, _PendingConcept):
            raise ParseError("expected '?' after concept in role position", node.pos)
        return node

    def role_union(self):
        node = self.role_seq()
        while self.peek() == "|":
            self.need("union", "role union '|'")
            self.advance()
            right = self.role_seq()
            node = UnionRole(self._done(node), self._done(right))
        return node

    def role_seq(self):
        node = self.role_post()
        while self.peek() == ";":
            self.need("comp", "role composition ';'")
            self.advance()
            right = self.role_post()
            node = ComposeRole(self._done(node), self._done(right))
        return node

    def _done(self, node) -> RoleNode:
        if isinstance(node, _PendingConcept):
            raise ParseError("expected '?' after concept in role position", node.pos)
        return node

    def role_post(self):
        node = self.role_atom()
        while True:
            kind = self.peek()
            if kind == "-":
                self.need("inverse", "role inverse '-'")
                self.advance()
                node = InverseRole(self._done(node))
            elif kind == "*":
                self.need("star", "role closure '*'")
                self.advance()
                node = StarRole(self._done(node))
            elif kind == "?":
                self.need("test", "role test '?'")
                pos = self.pos()
                self.advance()
                if isinstance(node, _PendingConcept):
                    node = TestRole(node.node)
                elif isinstance(node, RoleName):
                    # a bare name before '?' was a concept name after all
                    node = TestRole(ConceptName(node.name))
                else:
                    raise ParseError("'?' applies to a concept, not a role", pos)
            else:
                return node

    @_nesting
    def role_atom(self):
        kind, value, pos = self.tokens[self.i]
        if kind == "U":
            self.need("universal", "universal role 'U'")
            self.advance()
            return UniversalRole()
        if kind == "name":
            self.advance()
            return RoleName(value)
        if kind == "(":
            return self.role_group()
        if kind in _CONCEPT_STARTERS or kind in ("number", "{"):
            return _PendingConcept(self.concept_unary(), pos)
        raise ParseError(f"expected a role, found {value or 'end of input'!r}", pos)

    def role_group(self):
        """A parenthesised group in role position: a role, or else a concept
        for a later '?'.  When the role reading fails, the group is parsed
        again as a concept, and so are the groups nested in it.  The outcome
        of a group depends only on its start and the nesting depth, so it is
        kept per (start, depth): each group is parsed at most once per depth,
        and with depth capped at MAX_NESTING, nested groups take linear, not
        exponential, time."""
        key = (self.i, self.depth)
        if key not in self.groups:
            try:
                outcome = self.role_or_concept_group()
            except ParseError as exc:
                outcome = exc
            self.groups[key] = (outcome, self.i)
        outcome, self.i = self.groups[key]
        if isinstance(outcome, ParseError):
            raise outcome.with_traceback(None)
        return outcome

    def role_or_concept_group(self):
        saved = self.i
        pos = self.pos()
        self.advance()
        try:
            node = self.role()
            self.expect(")")
            if self.peek() == "?":
                # '(C | D) ?': the group parsed as a role ('|' is a role
                # operator too) but a trailing '?' means it was a concept
                raise ParseError("group before '?' is a concept", self.pos())
            return node
        except ParseError:
            self.i = saved
        self.advance()
        concept = self.concept()
        self.expect(")")
        return _PendingConcept(concept, pos)


def parse_concept(text: str, phi: FeatureSet) -> ConceptNode:
    parser = _Parser(text, phi)
    node = parser.concept()
    if parser.peek() != "eof":
        raise ParseError(f"trailing input {parser.tokens[parser.i][1]!r}", parser.pos())
    return node


def parse_role(text: str, phi: FeatureSet) -> RoleNode:
    parser = _Parser(text, phi)
    node = parser.role()
    if parser.peek() != "eof":
        raise ParseError(f"trailing input {parser.tokens[parser.i][1]!r}", parser.pos())
    return node


# printing ---------------------------------------------------------------

_C_IMPLIES, _C_OR, _C_AND, _C_UNARY, _C_ATOM = 0, 1, 2, 3, 4
_R_UNION, _R_SEQ, _R_POST, _R_ATOM = 0, 1, 2, 3


def _pc(node: ConceptNode, context: int) -> str:
    text, prec = _render_concept(node)
    return f"({text})" if prec < context else text


def _render_concept(node: ConceptNode) -> tuple[str, int]:
    if isinstance(node, ConstantConcept):
        return str(node.value), _C_ATOM
    if isinstance(node, ConceptName):
        return node.name, _C_ATOM
    if isinstance(node, Nominal):
        return "{" + node.individual + "}", _C_ATOM
    if isinstance(node, BaazConcept):
        return f"tri {_pc(node.child, _C_UNARY)}", _C_UNARY
    if isinstance(node, NotConcept):
        return f"not {_pc(node.child, _C_UNARY)}", _C_UNARY
    if isinstance(node, AndConcept):
        return f"{_pc(node.left, _C_AND)} & {_pc(node.right, _C_AND + 1)}", _C_AND
    if isinstance(node, OrConcept):
        return f"{_pc(node.left, _C_OR)} | {_pc(node.right, _C_OR + 1)}", _C_OR
    if isinstance(node, ImpliesConcept):
        return f"{_pc(node.left, _C_OR)} -> {_pc(node.right, _C_IMPLIES)}", _C_IMPLIES
    if isinstance(node, (ForallConcept, ExistsConcept)):
        keyword = "all" if isinstance(node, ForallConcept) else "some"
        body = _pc(node.child, _C_UNARY)
        return f"{keyword} {print_role(node.role)} . {body}", _C_IMPLIES
    raise ValueError(f"unknown concept node {node!r}")


def _pr(node: RoleNode, context: int) -> str:
    text, prec = _render_role(node)
    return f"({text})" if prec < context else text


def _render_role(node: RoleNode) -> tuple[str, int]:
    if isinstance(node, RoleName):
        return node.name, _R_ATOM
    if isinstance(node, UniversalRole):
        return "U", _R_ATOM
    if isinstance(node, UnionRole):
        return f"{_pr(node.left, _R_UNION)} | {_pr(node.right, _R_SEQ)}", _R_UNION
    if isinstance(node, ComposeRole):
        return f"{_pr(node.left, _R_SEQ)} ; {_pr(node.right, _R_POST)}", _R_SEQ
    if isinstance(node, InverseRole):
        return f"{_pr(node.child, _R_POST)}-", _R_POST
    if isinstance(node, StarRole):
        return f"{_pr(node.child, _R_POST)}*", _R_POST
    if isinstance(node, TestRole):
        return f"({_pc(node.concept, _C_UNARY)} ?)", _R_ATOM
    raise ValueError(f"unknown role node {node!r}")


def print_concept(node: ConceptNode) -> str:
    return _pc(node, _C_IMPLIES)


def print_role(node: RoleNode) -> str:
    return _pr(node, _R_UNION)
