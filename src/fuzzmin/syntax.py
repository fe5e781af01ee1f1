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

The parser reads one grammar in one pass, without backtracking.  In role
position a parenthesised group is a concept exactly when the token after
its closing parenthesis is '?', and a role otherwise; a concept starting
with 'not', 'tri', 'all', 'some', a degree or '{' must be followed
directly by '?'.  The grammar does not depend on the feature set:
`parse_concept` and `parse_role` check the finished expression with
`check_features`, the rule the evaluator applies.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import check_number_text
from .errors import ParseError
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
    _chain_operands,
    check_features,
)

_KEYWORDS = {"all", "some", "not", "tri", "U"}
# tokens that start a concept which, in role position, needs a '?' after it
_CONCEPT_STARTERS = {"not", "tri", "all", "some", "number", "{"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<arrow>->)
      | (?P<sym>[&|;*?.(){}\-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], dict[int, int]]:
    """The tokens of text, ending with an 'eof' token, and the index of the
    matching ')' token for each '(' token that has one."""
    tokens = []
    closing: dict[int, int] = {}
    open_parens: list[int] = []
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
            if kind == "(":
                open_parens.append(len(tokens))
            elif kind == ")" and open_parens:
                closing[open_parens.pop()] = len(tokens)
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens, closing


# Deepest expression nesting the parser accepts.  The parser, the printer
# and the evaluator recurse once per level, so this bound keeps each of
# them inside the interpreter's recursion limit; chains of one binary
# operator and runs of postfix operators are walked in a loop, uncounted.
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


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.closing = _tokenize(text)
        self.i = 0
        self.depth = 0

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

    def end(self) -> None:
        if self.peek() != "eof":
            raise ParseError(f"trailing input {self.tokens[self.i][1]!r}", self.pos())

    # concepts ---------------------------------------------------------

    def concept(self) -> ConceptNode:
        operands = [self.concept_or()]
        while self.peek() == "->":
            self.advance()
            operands.append(self.concept_or())
        node = operands.pop()
        for left in reversed(operands):  # '->' nests to the right
            node = ImpliesConcept(left, node)
        return node

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
        node = self.role_seq()
        while self.peek() == "|":
            self.advance()
            node = UnionRole(node, self.role_seq())
        return node

    def role_seq(self) -> RoleNode:
        node = self.role_post()
        while self.peek() == ";":
            self.advance()
            node = ComposeRole(node, self.role_post())
        return node

    def role_post(self) -> RoleNode:
        node = self.role_atom()
        while True:
            kind = self.peek()
            if kind == "-":
                self.advance()
                node = InverseRole(node)
            elif kind == "*":
                self.advance()
                node = StarRole(node)
            elif kind == "?":
                if not isinstance(node, RoleName):
                    raise ParseError("'?' applies to a concept, not a role", self.pos())
                # a bare name before '?' was a concept name after all
                self.advance()
                node = TestRole(ConceptName(node.name))
            else:
                return node

    @_nesting
    def role_atom(self) -> RoleNode:
        kind, value, pos = self.tokens[self.i]
        if kind == "U":
            self.advance()
            return UniversalRole()
        if kind == "name":
            self.advance()
            return RoleName(value)
        if kind == "(":
            close = self.closing.get(self.i)
            if close is None or self.tokens[close + 1][0] != "?":
                self.advance()
                node = self.role()
                self.expect(")")
                return node
            concept = self.concept_atom()  # the group before '?' is a concept
        elif kind in _CONCEPT_STARTERS:
            concept = self.concept_unary()
            if self.peek() != "?":
                raise ParseError("expected '?' after concept in role position", pos)
        else:
            raise ParseError(f"expected a role, found {value or 'end of input'!r}", pos)
        self.advance()
        return TestRole(concept)


def parse_concept(text: str, phi: FeatureSet) -> ConceptNode:
    parser = _Parser(text)
    node = parser.concept()
    parser.end()
    check_features(node, phi)
    return node


def parse_role(text: str, phi: FeatureSet) -> RoleNode:
    parser = _Parser(text)
    node = parser.role()
    parser.end()
    check_features(node, phi)
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
    if isinstance(node, (AndConcept, OrConcept)):
        prec, symbol = (_C_AND, " & ") if isinstance(node, AndConcept) else (_C_OR, " | ")
        first, *rest = _chain_operands(node)
        return symbol.join([_pc(first, prec), *(_pc(part, prec + 1) for part in rest)]), prec
    if isinstance(node, ImpliesConcept):
        *lefts, last = _chain_operands(node)
        return " -> ".join([*(_pc(part, _C_OR) for part in lefts), _pc(last, _C_IMPLIES)]), _C_IMPLIES
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
    if isinstance(node, (UnionRole, ComposeRole)):
        prec, symbol = (_R_UNION, " | ") if isinstance(node, UnionRole) else (_R_SEQ, " ; ")
        first, *rest = _chain_operands(node)
        return symbol.join([_pr(first, prec), *(_pr(part, prec + 1) for part in rest)]), prec
    if isinstance(node, (InverseRole, StarRole)):
        suffix = []
        while isinstance(node, (InverseRole, StarRole)):  # a run of postfix operators, in a loop
            suffix.append("-" if isinstance(node, InverseRole) else "*")
            node = node.child
        return _pr(node, _R_POST) + "".join(reversed(suffix)), _R_POST
    if isinstance(node, TestRole):
        return f"({_pc(node.concept, _C_UNARY)} ?)", _R_ATOM
    raise ValueError(f"unknown role node {node!r}")


def print_concept(node: ConceptNode) -> str:
    return _pc(node, _C_IMPLIES)


def print_role(node: RoleNode) -> str:
    return _pr(node, _R_UNION)
