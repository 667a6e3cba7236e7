"""Predicate terms used by selections and joins of the table algebra.

The paper's predicates are conjunctions of comparisons whose sides are
columns, constants, or sums of columns and constants (``pre° + size°``,
``level° + 1``).  This module models exactly that vocabulary:

* :class:`ColumnRef` — a column reference,
* :class:`Literal` — a constant,
* :class:`Sum` — a sum of terms (used for ``pre + size`` and ``level + 1``),
* :class:`Comparison` — ``term op term`` with ``op ∈ {=, !=, <, <=, >, >=}``,
* :class:`Predicate` — a conjunction of comparisons.

All predicate objects are immutable and hashable so they can be shared
between plan nodes and compared structurally in tests.  The auxiliary
function ``cols(·)`` of the paper corresponds to the ``columns()`` methods.
"""

from __future__ import annotations

import operator as _operator_module
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, Union

from repro.errors import AlgebraError

_RANGE_RELATIONS = {
    "<": _operator_module.lt,
    "<=": _operator_module.le,
    ">": _operator_module.gt,
    ">=": _operator_module.ge,
}

#: Comparison operators admitted by the algebra (GeneralComp of Fig. 1).
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

_FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column of the input table(s)."""

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnRef":
        return ColumnRef(mapping.get(self.name, self.name))

    def evaluate(self, row: Mapping[str, object]) -> object:
        try:
            return row[self.name]
        except KeyError:
            raise AlgebraError(f"unknown column {self.name!r} in predicate evaluation") from None

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal:
    """A constant value (number or string)."""

    value: object

    def columns(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Literal":
        return self

    def evaluate(self, row: Mapping[str, object]) -> object:
        return self.value

    def render(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter:
    """A late-bound query parameter slot (an external variable).

    Parameter terms are placeholders for values supplied at execution time:
    compiled plans carry them through predicates, and :meth:`Predicate.bind`
    turns them into :class:`Literal` terms once bindings are known.  They
    evaluate like the bound literal would; evaluating or compiling an
    *unbound* parameter is an error.
    """

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Parameter":
        return self

    def evaluate(self, row: Mapping[str, object]) -> object:
        raise AlgebraError(
            f"parameter ${self.name} is unbound; bind() the predicate "
            "(or pass parameters to the interpreter) before evaluation"
        )

    def render(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Sum:
    """A sum of terms, e.g. ``pre + size`` or ``level + 1``."""

    terms: tuple[Union[ColumnRef, Literal], ...]

    def __init__(self, *terms: Union[ColumnRef, Literal]):
        if len(terms) < 2:
            raise AlgebraError("Sum needs at least two terms")
        object.__setattr__(self, "terms", tuple(terms))

    def columns(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Sum":
        return Sum(*(term.rename(mapping) for term in self.terms))

    def evaluate(self, row: Mapping[str, object]) -> object:
        total = 0
        for term in self.terms:
            value = term.evaluate(row)
            if value is None:
                return None
            total += value  # type: ignore[operator]
        return total

    def render(self) -> str:
        return " + ".join(term.render() for term in self.terms)


Term = Union[ColumnRef, Literal, Sum, Parameter]


def term_parameters(term: Term) -> frozenset[str]:
    """The names of all :class:`Parameter` slots occurring in ``term``."""
    if isinstance(term, Parameter):
        return frozenset((term.name,))
    if isinstance(term, Sum):
        result: frozenset[str] = frozenset()
        for part in term.terms:
            result |= term_parameters(part)
        return result
    return frozenset()


def bind_term(term: Term, values: Mapping[str, object]) -> Term:
    """Replace :class:`Parameter` slots in ``term`` by :class:`Literal` values."""
    if isinstance(term, Parameter):
        try:
            return Literal(values[term.name])
        except KeyError:
            raise AlgebraError(f"no binding supplied for parameter ${term.name}") from None
    if isinstance(term, Sum) and term_parameters(term):
        return Sum(*(bind_term(part, values) for part in term.terms))
    return term


def _compare(left: object, op: str, right: object) -> bool:
    """Three-valued-ish comparison: any ``None`` operand makes the test fail."""
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    # Mixed numeric / string comparisons fail rather than raise, mirroring
    # SQL's type checking at a level adequate for the doc encoding.
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    raise AlgebraError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True)
class Comparison:
    """A single comparison ``left op right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.left.rename(mapping), self.op, self.right.rename(mapping))

    def flipped(self) -> "Comparison":
        """Return the equivalent comparison with sides exchanged."""
        return Comparison(self.right, _FLIPPED_OP[self.op], self.left)

    def parameters(self) -> frozenset[str]:
        """Names of the unbound :class:`Parameter` slots in this comparison."""
        return term_parameters(self.left) | term_parameters(self.right)

    def bind(self, values: Mapping[str, object]) -> "Comparison":
        """Resolve parameter slots against ``values`` (identity if none occur)."""
        if not self.parameters():
            return self
        return Comparison(bind_term(self.left, values), self.op, bind_term(self.right, values))

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return _compare(self.left.evaluate(row), self.op, self.right.evaluate(row))

    def is_column_equality(self) -> bool:
        """True for ``a = b`` with both sides plain columns (a key-join conjunct)."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


@dataclass(frozen=True)
class Predicate:
    """A conjunction of comparisons (possibly a single one)."""

    conjuncts: tuple[Comparison, ...]
    #: ``cols(·)`` of the conjunction, computed once: σ/⋈ constructors and
    #: property inference ask for it on every plan rebuild.
    _columns: frozenset[str] = field(init=False, repr=False, compare=False)

    def __init__(self, conjuncts: Iterable[Comparison]):
        conjuncts = tuple(conjuncts)
        if not conjuncts:
            raise AlgebraError("a predicate needs at least one conjunct")
        object.__setattr__(self, "conjuncts", conjuncts)
        columns: frozenset[str] = frozenset()
        for conjunct in conjuncts:
            columns |= conjunct.columns()
        object.__setattr__(self, "_columns", columns)

    @staticmethod
    def of(*conjuncts: Comparison) -> "Predicate":
        return Predicate(conjuncts)

    @staticmethod
    def equality(left: str, right: str) -> "Predicate":
        """Convenience constructor for a single-column equi-join predicate."""
        return Predicate.of(Comparison(ColumnRef(left), "=", ColumnRef(right)))

    def columns(self) -> frozenset[str]:
        return self._columns

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        return Predicate(conjunct.rename(mapping) for conjunct in self.conjuncts)

    def conjoin(self, other: "Predicate") -> "Predicate":
        return Predicate(self.conjuncts + other.conjuncts)

    def parameters(self) -> frozenset[str]:
        """Names of all unbound :class:`Parameter` slots in the conjunction."""
        result: frozenset[str] = frozenset()
        for conjunct in self.conjuncts:
            result |= conjunct.parameters()
        return result

    def bind(self, values: Mapping[str, object]) -> "Predicate":
        """Resolve parameter slots against ``values`` (identity if none occur)."""
        if not self.parameters():
            return self
        return Predicate(conjunct.bind(values) for conjunct in self.conjuncts)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return all(conjunct.evaluate(row) for conjunct in self.conjuncts)

    def column_equalities(self) -> list[tuple[str, str]]:
        """All ``a = b`` column/column equality conjuncts as ``(a, b)`` pairs."""
        pairs = []
        for conjunct in self.conjuncts:
            if conjunct.is_column_equality():
                pairs.append((conjunct.left.name, conjunct.right.name))  # type: ignore[union-attr]
        return pairs

    def is_single_column_equality(self) -> bool:
        """True when the predicate is exactly one ``a = b`` column equality."""
        return len(self.conjuncts) == 1 and self.conjuncts[0].is_column_equality()

    def render(self) -> str:
        return " ∧ ".join(conjunct.render() for conjunct in self.conjuncts)


# ---------------------------------------------------------------------------
# Predicate compilation (the vectorized execution core's hot path)
# ---------------------------------------------------------------------------
#
# ``Term.evaluate`` / ``Predicate.evaluate`` take ``row`` *dictionaries* —
# convenient for the reference semantics, ruinous on the hot path where every
# operator would build one dict per row.  The ``compile_*`` functions below
# translate a predicate tree *once* per operator into closures over positional
# row tuples: column references become ``row[i]`` lookups resolved at compile
# time against the input schema.  The compiled closures implement exactly the
# reference semantics of :func:`_compare` (``None`` operands and mixed-type
# range comparisons fail instead of raising).


def compile_term(term: Term, index_of: Mapping[str, int]) -> "Callable[[Sequence[object]], object]":
    """Compile ``term`` into a closure over a positional row tuple."""
    if isinstance(term, ColumnRef):
        try:
            position = index_of[term.name]
        except KeyError:
            raise AlgebraError(
                f"unknown column {term.name!r} in predicate compilation"
            ) from None
        return lambda row: row[position]
    if isinstance(term, Literal):
        value = term.value
        return lambda row: value
    if isinstance(term, Sum):
        parts = tuple(compile_term(part, index_of) for part in term.terms)

        def _sum(row: Sequence[object]) -> object:
            total = 0
            for part in parts:
                value = part(row)
                if value is None:
                    return None
                total += value  # type: ignore[operator]
            return total

        return _sum
    if isinstance(term, Parameter):
        raise AlgebraError(
            f"parameter ${term.name} must be bound before predicate compilation; "
            "call Predicate.bind() or pass parameters to the interpreter"
        )
    raise AlgebraError(f"cannot compile term {term!r}")


def compile_comparison(
    comparison: Comparison, index_of: Mapping[str, int]
) -> "Callable[[Sequence[object]], bool]":
    """Compile one comparison into a positional-row boolean closure."""
    left = compile_term(comparison.left, index_of)
    right = compile_term(comparison.right, index_of)
    op = comparison.op
    if op == "=":
        def _eq(row: Sequence[object]) -> bool:
            lv = left(row)
            rv = right(row)
            return lv is not None and rv is not None and lv == rv

        return _eq
    if op == "!=":
        def _ne(row: Sequence[object]) -> bool:
            lv = left(row)
            rv = right(row)
            return lv is not None and rv is not None and lv != rv

        return _ne
    if op not in COMPARISON_OPS:
        raise AlgebraError(f"unknown comparison operator {op!r}")
    relation = _RANGE_RELATIONS[op]

    def _range(row: Sequence[object]) -> bool:
        lv = left(row)
        rv = right(row)
        if lv is None or rv is None:
            return False
        try:
            return relation(lv, rv)
        except TypeError:
            return False

    return _range


def compile_predicate(
    predicate: Predicate, columns: Sequence[str]
) -> "Callable[[Sequence[object]], bool]":
    """Compile a conjunction into one closure over positional row tuples."""
    return compile_comparisons(predicate.conjuncts, columns)


def compile_comparisons(
    comparisons: Iterable[Comparison], columns: Sequence[str]
) -> "Callable[[Sequence[object]], bool]":
    """Compile a list of residual conjuncts into one positional closure."""
    index_of = {name: position for position, name in enumerate(columns)}
    compiled = tuple(compile_comparison(conjunct, index_of) for conjunct in comparisons)
    if len(compiled) == 1:
        return compiled[0]

    def _all(row: Sequence[object]) -> bool:
        for conjunct in compiled:
            if not conjunct(row):
                return False
        return True

    return _all


# ---------------------------------------------------------------------------
# Columnar (mask) compilation
# ---------------------------------------------------------------------------
#
# The columnar twins of ``compile_term`` / ``compile_comparisons``: a term
# compiles into a closure over a :class:`~repro.algebra.columnar.ColumnarTable`
# returning a whole :class:`~repro.algebra.columnar.Column` (or a scalar), and
# a conjunction compiles into a closure returning one boolean *mask* over all
# rows.  The mask kernels in :mod:`repro.algebra.columnar` implement exactly
# the :func:`_compare` reference semantics, vectorized where provably safe
# and element-by-element otherwise, so masks agree bit-for-bit with the
# compiled row closures above.


def compile_term_columnar(term: Term, index_of: Mapping[str, int]):
    """Compile ``term`` into a closure over a :class:`ColumnarTable`."""
    from repro.algebra import columnar as _columnar

    if isinstance(term, ColumnRef):
        try:
            position = index_of[term.name]
        except KeyError:
            raise AlgebraError(
                f"unknown column {term.name!r} in predicate compilation"
            ) from None
        return lambda table: table.cols[position]
    if isinstance(term, Literal):
        value = term.value
        return lambda table: value
    if isinstance(term, Sum):
        parts = tuple(compile_term_columnar(part, index_of) for part in term.terms)
        return lambda table: _columnar.sum_columns(
            [part(table) for part in parts], table.length
        )
    if isinstance(term, Parameter):
        raise AlgebraError(
            f"parameter ${term.name} must be bound before predicate compilation; "
            "call Predicate.bind() or pass parameters to the interpreter"
        )
    raise AlgebraError(f"cannot compile term {term!r}")


def compile_comparisons_mask(comparisons: Iterable[Comparison], columns: Sequence[str]):
    """Compile a conjunction into one mask closure over a :class:`ColumnarTable`."""
    from repro.algebra import columnar as _columnar

    index_of = {name: position for position, name in enumerate(columns)}
    compiled = tuple(
        (
            compile_term_columnar(conjunct.left, index_of),
            conjunct.op,
            compile_term_columnar(conjunct.right, index_of),
        )
        for conjunct in comparisons
    )

    def _mask(table):
        mask = None
        for left, op, right in compiled:
            conjunct_mask = _columnar.compare_mask(left(table), op, right(table), table.length)
            mask = conjunct_mask if mask is None else _columnar.mask_and(mask, conjunct_mask)
            if not _columnar.mask_any(mask):
                break
        return mask

    return _mask


def compile_predicate_mask(predicate: Predicate, columns: Sequence[str]):
    """Columnar twin of :func:`compile_predicate`: one boolean mask per call."""
    return compile_comparisons_mask(predicate.conjuncts, columns)


def column(name: str) -> ColumnRef:
    """Shorthand constructor used pervasively by the compiler."""
    return ColumnRef(name)


def const(value: object) -> Literal:
    """Shorthand constructor for literal terms."""
    return Literal(value)
