"""Parenthesised groups in role position: a group is a concept when '?'
follows its closing parenthesis and a role otherwise, so nested groups are
read once each and parse in linear time."""

import time

import pytest

from fuzzmin import ConceptName, ExistsConcept, FeatureSet, TestRole
from fuzzmin.errors import ParseError
from fuzzmin.fdl import FEATURE_NAMES
from fuzzmin.syntax import parse_concept, print_concept

FULL = FeatureSet.from_names(FEATURE_NAMES)


def nested_tests(levels: int, inner: str = "A") -> str:
    text = inner
    for _ in range(levels):
        text = f"some ({text})? . A"
    return text


def test_thirty_nested_test_groups_parse_fast():
    start = time.perf_counter()
    node = parse_concept(nested_tests(30), FULL)
    assert time.perf_counter() - start < 0.25
    expected = ConceptName("A")
    for _ in range(30):
        expected = ExistsConcept(TestRole(expected), ConceptName("A"))
    assert node == expected
    assert parse_concept(print_concept(node), FULL) == node


def test_nested_groups_fail_fast():
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_concept(nested_tests(30, inner="A &"), FULL)
    with pytest.raises(ParseError, match="nested more than"):
        parse_concept(nested_tests(60), FULL)
    assert time.perf_counter() - start < 0.5
