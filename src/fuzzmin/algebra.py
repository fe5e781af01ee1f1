"""Algebras of fuzzy truth values.

An algebra bundles a linearly ordered set of degrees with the operators
tnorm (strong conjunction), snorm (disjunction), residuum (implication),
neg (negation) and the crisping projection `baaz`.  Three unit-interval
families are built in (Godel, product, Lukasiewicz), whose negation is the
residual `a -> 0`, plus finite linear lattices defined by explicit
operation tables, a `neg` table included.

Degrees are exact: `fractions.Fraction` values in [0, 1] for the
unit-interval families, plain `int` chain indices (0 = bottom) for finite
lattices.  Floats and booleans are rejected everywhere; decimal text such
as "0.8" is parsed to the exact rational 4/5.  Exactness matters because
downstream partition refinement groups vertices by degree equality.

Every degree enters through one rule per backend: `Algebra.check`, for
file degrees (read by `Algebra.parse_degree`), expression constants and
axiom or assertion bounds alike.  A lattice therefore takes an integral
constant such as 2 (the parser's `Fraction(2)`) and rejects 1/2.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import UsageError

Degree = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest digit count, and largest exponent size, of a number read from
# outside: Fraction and int expand "1e999999999" or a huge literal in full.
MAX_NUMBER_DIGITS = 1000

# Largest finite lattice: load_lattice checks its laws over all size**3
# triples, so a larger chain is rejected before any table is built.
MAX_LATTICE_SIZE = 32


def check_number_text(text: str) -> str:
    """Return numeric text unchanged, or raise UsageError when it has more
    than MAX_NUMBER_DIGITS digits or an exponent larger than that."""
    if len(text) <= MAX_NUMBER_DIGITS and "e" not in text and "E" not in text:
        return text
    mantissa, _, exponent = text.lower().partition("e")
    exponent = "".join(c for c in exponent if c.isdigit()).lstrip("0")
    if (
        sum(c.isdigit() for c in mantissa) > MAX_NUMBER_DIGITS
        or len(exponent) > len(str(MAX_NUMBER_DIGITS))
        or int(exponent or 0) > MAX_NUMBER_DIGITS
    ):
        raise UsageError(
            f"number {text[:30]!r}{'...' if len(text) > 30 else ''} too large: at most "
            f"{MAX_NUMBER_DIGITS} digits and an exponent of at most {MAX_NUMBER_DIGITS}"
        )
    return text


def read_json(path: str):
    """Parse a JSON file, raising UsageError on malformed or oversized input.

    Bare decimals are read as exact Fractions (0.8 -> 4/5).
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(
                f,
                parse_float=lambda text: Fraction(check_number_text(text)),
                parse_int=lambda text: int(check_number_text(text)),
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise UsageError(f"{path}: invalid JSON: nested too deeply") from None


def degree_parser(algebra: Algebra) -> Callable[[object], Degree]:
    """`algebra.parse_degree` for one document, parsing each distinct degree
    text once: equal texts give one shared degree object.

    Only `str` texts are memoised.  Other values (ints, Fractions, and the
    floats and booleans `parse_degree` rejects) go to `parse_degree` every
    time, since a memo keyed on values would hand `1.0` the degree cached
    for the equal `1`.  A text that fails to parse is not memoised, so it
    raises again at every occurrence.
    """
    parse = algebra.parse_degree
    memo: dict[str, Degree] = {}

    def parse_once(value) -> Degree:
        if type(value) is not str:
            return parse(value)
        degree = memo.get(value)
        if degree is None:
            degree = memo[value] = parse(value)
        return degree

    return parse_once


def _reject_float(value) -> None:
    """Reject floats and booleans: neither is an exact degree, though Python
    takes `True` for the int 1."""
    if isinstance(value, (float, bool)):
        raise UsageError(
            f"{type(value).__name__} degree {value!r} rejected: degrees must be exact "
            "(use a string like \"0.8\" or \"4/5\", or an int)"
        )


class Algebra:
    """Base class; concrete backends implement the binary operators.

    One rule per job.  `check` validates a degree value and is the only
    validation rule: it rejects floats, booleans and foreign values and
    normalizes what it accepts.  `parse_degree` reads JSON data: text goes
    through `check_number_text` and the backend's number rule (`number`),
    then `check`; any other value goes straight to `check`.  Expression
    constants and axiom or assertion bounds go to `check` as well.

    Bottom is the one falsy degree of every backend (`ZERO` or the int 0),
    so a checked degree `d` is bottom exactly when `not d`; the
    constructors test degrees that way.

    Instances are immutable and safe to share.  All operations are pure.
    """

    name = "abstract"
    bottom: Degree
    top: Degree
    # the backend's number rule for text, and how a rejected text is described
    number: Callable[[str], Degree]
    number_rule: str

    def check(self, a: Degree) -> Degree:
        """Validate and normalize a degree, raising UsageError if foreign."""
        raise NotImplementedError

    def tnorm(self, a: Degree, b: Degree) -> Degree:
        raise NotImplementedError

    def snorm(self, a: Degree, b: Degree) -> Degree:
        raise NotImplementedError

    def residuum(self, a: Degree, b: Degree) -> Degree:
        raise NotImplementedError

    def neg(self, a: Degree) -> Degree:
        raise NotImplementedError

    def baaz(self, a: Degree) -> Degree:
        """Crisping projection: top if a is top, bottom otherwise.

        Never table-driven, even for lattice backends.
        """
        return self.top if self.check(a) == self.top else self.bottom

    def parse_degree(self, value) -> Degree:
        """Read a degree from JSON-level data (string, int, or Fraction)."""
        if isinstance(value, str):
            try:
                value = self.number(check_number_text(value))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"cannot parse degree {value!r}: {self.number_rule}") from None
        return self.check(value)

    def format_degree(self, a: Degree) -> str:
        return str(self.check(a))


class UnitIntervalAlgebra(Algebra):
    """Shared plumbing for the three families over exact rationals in [0,1]."""

    bottom = ZERO
    top = ONE
    number = Fraction
    number_rule = "expected a decimal or a fraction such as 0.8 or 4/5"

    def check(self, a: Degree) -> Degree:
        if type(a) is Fraction and 0 <= a.numerator <= a.denominator:
            return a  # exact: a Fraction keeps its denominator positive
        _reject_float(a)
        if isinstance(a, int):
            a = Fraction(a)
        if not isinstance(a, Fraction):
            raise UsageError(f"degree {a!r} is not a rational")
        if not (ZERO <= a <= ONE):
            raise UsageError(f"degree {a} outside [0, 1]")
        return a

    def neg(self, a: Degree) -> Degree:
        """Residual negation a -> 0: 1 - a under Lukasiewicz, crisp otherwise."""
        return self.residuum(a, ZERO)


class GodelAlgebra(UnitIntervalAlgebra):
    name = "godel"

    def tnorm(self, a, b):
        return min(self.check(a), self.check(b))

    def snorm(self, a, b):
        return max(self.check(a), self.check(b))

    def residuum(self, a, b):
        a, b = self.check(a), self.check(b)
        return ONE if a <= b else b


class ProductAlgebra(UnitIntervalAlgebra):
    name = "product"

    def tnorm(self, a, b):
        return self.check(a) * self.check(b)

    def snorm(self, a, b):
        a, b = self.check(a), self.check(b)
        return a + b - a * b

    def residuum(self, a, b):
        a, b = self.check(a), self.check(b)
        return ONE if a <= b else b / a


class LukasiewiczAlgebra(UnitIntervalAlgebra):
    name = "lukasiewicz"

    def tnorm(self, a, b):
        return max(ZERO, self.check(a) + self.check(b) - ONE)

    def snorm(self, a, b):
        return min(ONE, self.check(a) + self.check(b))

    def residuum(self, a, b):
        return min(ONE, ONE - self.check(a) + self.check(b))


class FiniteLatticeAlgebra(Algebra):
    """A finite chain 0 < 1 < ... < size-1 with table-driven operators.

    Degrees are chain indices: `check` takes an int, or an integral
    Fraction such as an expression constant, in 0..size-1.  The
    constructor validates table shape and value range only; to test the
    algebra laws, pass every triple to `check_axioms`, as load_lattice
    does: `check_axioms(lat, itertools.product(range(lat.size), repeat=3))`.
    """

    name = "lattice"
    number = int
    number_rule = "lattice degrees are chain indices"

    def __init__(
        self,
        size: int,
        tnorm_table: Sequence[Sequence[int]],
        snorm_table: Sequence[Sequence[int]],
        residuum_table: Sequence[Sequence[int]],
        neg_table: Sequence[int],
        name: str = "lattice",
    ):
        if type(size) is not int:
            raise UsageError(f"finite lattice size {size!r} is not an integer")
        if size < 2:
            raise UsageError("finite lattice needs at least two elements (0 and top)")
        if size > MAX_LATTICE_SIZE:
            raise UsageError(
                f"finite lattice of {size} elements too large: at most {MAX_LATTICE_SIZE}"
            )
        self.size = size
        self.name = name
        self.bottom = 0
        self.top = size - 1
        self._tnorm = self._table2(tnorm_table, "tnorm")
        self._snorm = self._table2(snorm_table, "snorm")
        self._residuum = self._table2(residuum_table, "residuum")
        self._neg = self._table1(neg_table, "neg")

    def _entry(self, value, where: str) -> int:
        _reject_float(value)
        if not isinstance(value, int) or not 0 <= value < self.size:
            raise UsageError(f"{where} table entry {value!r} not an index in 0..{self.size - 1}")
        return value

    def _table2(self, table, label: str) -> tuple[tuple[int, ...], ...]:
        if not (
            _is_list(table) and len(table) == self.size
            and all(_is_list(row) and len(row) == self.size for row in table)
        ):
            raise UsageError(f"{label} table must be a {self.size}x{self.size} list of lists")
        return tuple(tuple(self._entry(v, label) for v in row) for row in table)

    def _table1(self, table, label: str) -> tuple[int, ...]:
        if not (_is_list(table) and len(table) == self.size):
            raise UsageError(f"{label} table must be a list of {self.size} entries")
        return tuple(self._entry(v, label) for v in table)

    def check(self, a: Degree) -> Degree:
        if type(a) is int and 0 <= a < self.size:
            return a
        _reject_float(a)
        if isinstance(a, Fraction) and a.denominator == 1:
            a = int(a)
        if not isinstance(a, int) or not 0 <= a < self.size:
            raise UsageError(f"degree {a} is not a chain index in 0..{self.size - 1}")
        return a

    def tnorm(self, a, b):
        return self._tnorm[self.check(a)][self.check(b)]

    def snorm(self, a, b):
        return self._snorm[self.check(a)][self.check(b)]

    def residuum(self, a, b):
        return self._residuum[self.check(a)][self.check(b)]

    def neg(self, a):
        return self._neg[self.check(a)]


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def check_axioms(algebra: Algebra, triples: Iterable[tuple[Degree, Degree, Degree]]) -> list[str]:
    """Verify the algebra laws on the given triples of degrees; returns
    human-readable violations (empty = valid).

    Checked laws: tnorm commutativity, associativity, identity with top,
    monotonicity of tnorm in each argument, antitonicity/monotonicity of
    the residuum, and residuum(a, b) = top exactly when a <= b.
    """
    violations: list[str] = []
    seen: set[str] = set()

    def report(law: str, detail: str) -> None:
        if law not in seen:
            seen.add(law)
            violations.append(f"{law}: {detail}")

    top = algebra.top
    for x, y, z in triples:
        x, y, z = algebra.check(x), algebra.check(y), algebra.check(z)
        if algebra.tnorm(x, y) != algebra.tnorm(y, x):
            report("commutativity", f"tnorm({x},{y}) != tnorm({y},{x})")
        if algebra.tnorm(x, algebra.tnorm(y, z)) != algebra.tnorm(algebra.tnorm(x, y), z):
            report("associativity", f"grouping of tnorm({x},{y},{z}) matters")
        if algebra.tnorm(x, top) != x:
            report("identity", f"tnorm({x},top) = {algebra.tnorm(x, top)} != {x}")
        lo, hi = min(x, z), max(x, z)
        if algebra.tnorm(lo, y) > algebra.tnorm(hi, y):
            report("tnorm-monotone", f"tnorm({lo},{y}) > tnorm({hi},{y})")
        if algebra.residuum(hi, y) > algebra.residuum(lo, y):
            report("residuum-antitone-left", f"residuum({hi},{y}) > residuum({lo},{y})")
        lo, hi = min(y, z), max(y, z)
        if algebra.residuum(x, lo) > algebra.residuum(x, hi):
            report("residuum-monotone-right", f"residuum({x},{lo}) > residuum({x},{hi})")
        if (algebra.residuum(x, y) == top) != (x <= y):
            report("residuum-top", f"residuum({x},{y}) = top must hold exactly when {x} <= {y}")
    return violations


def load_lattice(path: str) -> FiniteLatticeAlgebra:
    """Load a finite lattice from its JSON document and verify its laws.

    Schema: {"chain": N, "tnorm": [[..]], "snorm": [[..]], "residuum": [[..]],
    "neg": [..]} with indices 0..N-1, 0 = bottom, N-1 = top.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: lattice document must be a JSON object")
    missing = {"chain", "tnorm", "snorm", "residuum", "neg"} - doc.keys()
    if missing:
        raise UsageError(f"{path}: lattice document missing keys {sorted(missing)}")
    algebra = FiniteLatticeAlgebra(
        doc["chain"], doc["tnorm"], doc["snorm"], doc["residuum"], doc["neg"],
        name=f"lattice:{path}",
    )
    violations = check_axioms(algebra, itertools.product(range(algebra.size), repeat=3))
    if violations:
        raise UsageError(f"{path}: lattice violates algebra laws: " + "; ".join(violations))
    return algebra


def bundled_lattice_path(name: str) -> str:
    """Filesystem path of a lattice shipped with the package (e.g. "boolean")."""
    from importlib.resources import files

    resource = files(__package__) / "data" / "lattices" / f"{name}.json"
    return str(resource)


def make_algebra(selector: str) -> Algebra:
    """Build an algebra from a CLI-style selector.

    Accepted: "godel", "product", "lukasiewicz", "lattice:PATH".
    """
    if selector == "godel":
        return GodelAlgebra()
    if selector == "product":
        return ProductAlgebra()
    if selector == "lukasiewicz":
        return LukasiewiczAlgebra()
    if selector.startswith("lattice:"):
        return load_lattice(selector[len("lattice:"):])
    raise UsageError(
        f"unknown algebra {selector!r}; expected godel|product|lukasiewicz|lattice:PATH"
    )
