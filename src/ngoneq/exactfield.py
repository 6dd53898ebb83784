"""Exact rational scalars, distinct-value assignments, integer rows, rank by
fraction-free (Bareiss) elimination over integer rows, and a dense exact
matrix type (multiplication, rank, equality) that only the tests build.

Values enter the package as ``fractions.Fraction`` (always in lowest terms), the hot loops run
over rows of Python ints (``IntRow``, not always in lowest terms; ``same_rows`` compares two by
value), and products and vectors leave entry by entry (``EntryRow``), each entry over its own
denominator and reduced by its reader, so all comparisons are exact, with no tolerances. An
assignment is read in one integer coordinate system, z = p / q and the determinants Delta_ab
= p_a q_b - p_b q_a (``ZetaAssignment.deltas``), never over a common denominator; the
weights of Identity 1 built from them are ``fvectors.power_weights``.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InvalidInputError

Rat = Fraction
IntRow = tuple[tuple[int, ...], int]  # (numerators, denominator > 0), not always in lowest terms
EntryRow = tuple[tuple[int, int], ...]  # one (numerator, denominator > 0) per entry, likewise

RANDOM_VALUE_RANGE = (1, 10**6)

_RATIONAL = re.compile(r"(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?")


def rat_from_string(text: str) -> Rat:
    """Parse "p/q" (or plain "p") into an exact rational.

    After surrounding whitespace is stripped the text must match
    ``[+-]?[0-9]+(/[0-9]+)?`` in ASCII digits, with a nonzero denominator.
    """
    text = text.strip()
    match = _RATIONAL.fullmatch(text)
    if match is None or (match["den"] is not None and int(match["den"]) == 0):
        raise InvalidInputError(f"not a valid rational: {text!r}")
    return Fraction(int(match["num"]), int(match["den"] or 1))


class ZetaAssignment(namedtuple("ZetaAssignment", "n values label")):
    """Pairwise-distinct rational values, one per vertex 1..n; a tuple (n, values,
    label) whose equality and hash ignore the label (a description only).

    Indexing is 1-based to match vertex labels: ``zeta[r]`` is the value at
    vertex ``r``.
    """

    def __new__(cls, n: int, values: tuple[Rat, ...], label: str = "explicit"):
        if n < 1 or len(values) != n:
            raise InvalidInputError(f"expected {n} values, got {len(values)}")
        for x in values:  # bool is an int subclass, and would print as "True"
            if type(x) is not int and type(x) is not Fraction:
                raise InvalidInputError(f"value {x!r} is not an int or a Fraction")
        if len(set(values)) != n:
            raise InvalidInputError("assignment values must be pairwise distinct")
        return tuple.__new__(cls, (n, values, label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaAssignment):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    __ne__ = object.__ne__  # the negated __eq__; tuple's own compares every field

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __getitem__(self, vertex: int) -> Rat:
        if not 1 <= vertex <= self.n:
            raise InvalidInputError(f"vertex {vertex} out of range 1..{self.n}")
        return self.values[vertex - 1]

    @cached_property
    def integral(self) -> bool:
        """Whether every value is an integer (every q is 1), taken once."""
        return all(x.denominator == 1 for x in self.values)

    @cached_property
    def deltas(self) -> tuple[tuple[int, ...], ...]:
        """The 2x2 determinants Delta_ab = p_a q_b - p_b q_a = q_a q_b (z_a - z_b), z = p / q
        in lowest terms, 0-based, taken once; z_a - z_b at integral values."""
        pq = [(x.numerator, x.denominator) for x in self.values]
        return tuple(tuple([p * r - o * q for o, r in pq]) for p, q in pq)

    @classmethod
    def consecutive(cls, n: int) -> "ZetaAssignment":
        """The default assignment: vertex r gets the integer r."""
        return cls(n, tuple(Fraction(r) for r in range(1, n + 1)), label="consecutive")

    @classmethod
    def random_distinct(cls, n: int, seed: int) -> "ZetaAssignment":
        """Seeded distinct integers drawn from RANDOM_VALUE_RANGE."""
        lo, hi = RANDOM_VALUE_RANGE
        if not 1 <= n <= hi - lo + 1:
            raise InvalidInputError(f"cannot draw {n} distinct values from {lo}..{hi}")
        rng = random.Random(seed)
        values = rng.sample(range(lo, hi + 1), n)
        return cls(n, tuple(Fraction(v) for v in values), label=f"seed:{seed}")

    @classmethod
    def from_strings(cls, texts: list[str]) -> "ZetaAssignment":
        return cls(len(texts), tuple(rat_from_string(t) for t in texts))

    def to_strings(self) -> list[str]:
        return [str(v) for v in self.values]


def same_rows(a: IntRow, b: IntRow) -> bool:
    """Whether v / d and w / e (numerator tuples) hold the same rationals, reduced or not:
    v == w if d == e, v == w d if e == 1, else v (e / g) == w (d / g), g = gcd(d, e)."""
    (v, d), (w, e) = a, b
    if d == e:
        return v == w
    if e == 1:
        return v == tuple([y * d for y in w])
    g = gcd(d, e)
    d, e = d // g, e // g
    return [x * e for x in v] == [y * d for y in w]


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows by Bareiss fraction-free elimination (Bareiss
    1968): with pivot p at (r, c) and previous pivot d, each later entry becomes
    (p * a[i][j] - a[i][c] * a[r][j]) / d, a minor of the matrix (Sylvester's
    identity), so the division is exact, also after a column without a pivot
    is skipped. Pivots are the first nonzero entry in each column."""
    work = [list(row) for row in rows]
    height, width = len(work), len(work[0]) if work else 0
    previous, r = 1, 0
    for c in range(width):
        pivot_row = next((i for i in range(r, height) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        pivot = top[c]
        for i in range(r + 1, height):
            row = work[i]
            lead = row[c]
            row[c] = 0
            for j in range(c + 1, width):
                row[j] = (pivot * row[j] - lead * top[j]) // previous
        previous = pivot
        r += 1
        if r == height:
            break
    return r


class DenseMatrix:
    """Immutable dense matrix of exact rationals, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: list[list[Rat]] | tuple[tuple[Rat, ...], ...]):
        self.entries: tuple[tuple[Rat, ...], ...] = tuple(
            tuple([x if type(x) is Fraction else Fraction(x) for x in row]) for row in entries
        )
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise InvalidInputError("ragged rows in matrix")

    # ---- basic queries ------------------------------------------------

    def __getitem__(self, index: tuple[int, int]) -> Rat:
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # ---- arithmetic ---------------------------------------------------

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        """Exact matrix product self @ other.

        Each row of the result accumulates the rows of ``other`` weighted by
        the nonzero entries of the matching row of ``self``; zero entries
        contribute nothing and are skipped.
        """
        if self.cols != other.rows:
            raise InvalidInputError(
                f"dimension mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        out = []
        for row in self.entries:
            acc = [Fraction(0)] * other.cols
            for a, other_row in zip(row, other.entries):
                if a:
                    for j, b in enumerate(other_row):
                        acc[j] += a * b
            out.append(acc)
        return DenseMatrix(out)

    def rank(self) -> int:
        """``rank`` of the rows, each times the lcm of its denominators (same rank)."""
        scales = [lcm(*[x.denominator for x in row]) for row in self.entries]
        return rank([[x.numerator * (d // x.denominator) for x in row]
                     for row, d in zip(self.entries, scales)])
