"""Tests for the predicate model."""

import pytest

from repro.errors import AlgebraError
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate, Sum, column, const


def test_columns_collection():
    predicate = Predicate.of(
        Comparison(Sum(column("pre"), column("size")), ">=", column("x")),
        Comparison(column("kind"), "=", const("ELEM")),
    )
    assert predicate.columns() == frozenset({"pre", "size", "x", "kind"})


def test_rename():
    predicate = Predicate.equality("a", "b").rename({"a": "z"})
    assert predicate.column_equalities() == [("z", "b")]


def test_cached_columns_follow_rename_and_conjoin():
    """``columns()`` is computed once per predicate; derived predicates
    report their own columns, and equality/hashing stay field-based."""
    base = Predicate.equality("a", "b")
    assert base.columns() == frozenset({"a", "b"})
    assert base.rename({"a": "z"}).columns() == frozenset({"z", "b"})
    conjoined = base.conjoin(Predicate.of(Comparison(column("c"), "<", const(3))))
    assert conjoined.columns() == frozenset({"a", "b", "c"})
    assert base.columns() == frozenset({"a", "b"})  # operands untouched
    twin = Predicate.equality("a", "b")
    assert twin == base and hash(twin) == hash(base)
    assert twin != base.rename({"a": "z"})
    assert "_columns" not in repr(base)


def test_evaluate_conjunction():
    predicate = Predicate.of(
        Comparison(column("a"), "<", column("b")),
        Comparison(column("b"), "<=", const(10)),
    )
    assert predicate.evaluate({"a": 1, "b": 5})
    assert not predicate.evaluate({"a": 7, "b": 5})
    assert not predicate.evaluate({"a": None, "b": 5})


def test_flip():
    comparison = Comparison(column("a"), "<", const(3)).flipped()
    assert comparison.op == ">" and isinstance(comparison.left, Literal)


def test_mixed_type_comparison_is_false_not_error():
    assert not Comparison(column("a"), "<", const(3)).evaluate({"a": "text"})


def test_invalid_operator_rejected():
    with pytest.raises(AlgebraError):
        Comparison(column("a"), "~", const(1))


def test_empty_predicate_rejected():
    with pytest.raises(AlgebraError):
        Predicate([])


def test_single_column_equality_detection():
    assert Predicate.equality("a", "b").is_single_column_equality()
    assert not Predicate.of(Comparison(column("a"), "=", const(1))).is_single_column_equality()
