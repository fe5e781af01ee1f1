"""Records (`fuzzmin.record.Record`) behave as the frozen dataclasses they
replace, and `import fuzzmin.cli` loads neither `dataclasses` nor
`inspect`."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzmin
from fuzzmin import (
    AndConcept,
    BisimReport,
    ComposeRole,
    ConceptAssertion,
    ConceptName,
    ExistsConcept,
    FeatureSet,
    GraphStats,
    InverseRole,
    OrConcept,
    RoleAssertion,
    RoleName,
    TBoxAxiom,
    UnionRole,
    UniversalRole,
    UsageError,
)
from fuzzmin.fdl import ConstantConcept
from fuzzmin.generate import GeneratorParams

SOURCE = str(Path(fuzzmin.__file__).resolve().parent.parent)
A, B = ConceptName("A"), ConceptName("B")
r, s = RoleName("r"), RoleName("s")


def test_nodes_with_equal_fields_of_different_classes_differ():
    assert AndConcept(A, B) != OrConcept(A, B)
    assert ComposeRole(r, s) != UnionRole(r, s)
    assert AndConcept(A, B) == AndConcept(ConceptName("A"), ConceptName("B"))
    assert AndConcept(A, B) != AndConcept(B, A)
    assert UniversalRole() == UniversalRole()
    assert A != "A" and A != ("A",)


def test_equal_records_hash_equal_and_work_as_dict_keys():
    pairs = [(AndConcept(A, B), AndConcept(ConceptName("A"), ConceptName("B"))),
             (UniversalRole(), UniversalRole()),
             (FeatureSet(), FeatureSet.from_names(["baaz"])),
             (GraphStats(1, 2, 3), GraphStats(n=1, m=2, l=3))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    table = {x: k for k, (x, _) in enumerate(pairs)}
    assert [table[y] for _, y in pairs] == list(range(len(pairs)))
    assert len({AndConcept(A, B), OrConcept(A, B), AndConcept(A, B)}) == 2


def test_records_are_immutable():
    node = AndConcept(A, B)
    with pytest.raises(AttributeError):
        node.left = B
    with pytest.raises(AttributeError):
        node.other = B
    with pytest.raises(AttributeError):
        del node.left
    assert node.left is A


def test_repr_names_each_field():
    node = AndConcept(A, ExistsConcept(InverseRole(r), ConstantConcept(F(1, 2))))
    assert repr(node) == (
        "AndConcept(left=ConceptName(name='A'), right=ExistsConcept(role=InverseRole("
        "child=RoleName(name='r')), child=ConstantConcept(value=Fraction(1, 2))))")
    assert repr(FeatureSet()) == ("FeatureSet(comp=False, union=False, star=False, test=False, "
                                  "inverse=False, universal=False, nominal=False)")
    assert repr(UniversalRole()) == "UniversalRole()"


def test_defaults():
    assert FeatureSet().names() == ["baaz"]
    assert FeatureSet(star=True) == FeatureSet(False, False, True)
    params = GeneratorParams()
    assert (params.n_min, params.n_max, params.individual_count) == (2, 20, 1)
    assert GeneratorParams(n_max=5) == GeneratorParams(2, 5)
    report = BisimReport(True)
    assert (report.ok, report.condition, report.witness, report.detail) == (True, None, None, "")
    assert str(report) == "pass"
    assert BisimReport(False, 9, ("x", "y")).detail == ""


def test_bad_calls_raise_type_error():
    with pytest.raises(TypeError, match="missing"):
        AndConcept(A)
    with pytest.raises(TypeError, match="missing"):
        BisimReport(condition=9)
    with pytest.raises(TypeError, match="takes 2 fields"):
        AndConcept(A, B, A)
    with pytest.raises(TypeError, match="takes 0 fields"):
        UniversalRole(r)
    with pytest.raises(TypeError, match="no field 'middle'"):
        AndConcept(A, B, middle=A)
    with pytest.raises(TypeError, match="twice"):
        AndConcept(A, left=B)


def test_bounded_statements_check_their_comparison():
    with pytest.raises(UsageError, match="^bad comparison '=='$"):
        ConceptAssertion(A, "a", "==", F(1))
    with pytest.raises(UsageError, match="^bad comparison '=>'$"):
        RoleAssertion(r, "a", "b", "=>", F(1))
    with pytest.raises(UsageError, match="^axiom comparison must be >= or >, got '<='$"):
        TBoxAxiom(A, B, "<=", F(1))
    assert TBoxAxiom(A, B, op=">", degree=F(1)).op == ">"


def test_cli_start_up_imports_no_dataclass_machinery():
    code = ("import sys; before = set(sys.modules); import fuzzmin.cli; "
            "print(fuzzmin.cli.__file__); print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": SOURCE}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    where, added = done.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(SOURCE)
    added = added.split()
    assert "fuzzmin.fdl" in added
    assert "dataclasses" not in added and "inspect" not in added
