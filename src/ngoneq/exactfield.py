"""Exact rational scalars, distinct-value assignments, and dense exact linear
algebra: multiplication, rank by Gaussian elimination, JSON and LaTeX output.

Every quantity in this package is a ``fractions.Fraction`` (arbitrary-precision
numerator/denominator, always in lowest terms), so all comparisons are exact and
no tolerances appear anywhere.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInputError

Rat = Fraction

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


def rat_to_string(value: Rat) -> str:
    """Format as "p/q", omitting the denominator when it is 1."""
    return str(value)


@dataclass(frozen=True)
class ZetaAssignment:
    """Pairwise-distinct rational values, one per vertex 1..n.

    Indexing is 1-based to match vertex labels: ``zeta[r]`` is the value at
    vertex ``r``.
    """

    n: int
    values: tuple[Rat, ...]
    label: str = field(default="explicit", compare=False)  # description only

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.values) != self.n:
            raise InvalidInputError(
                f"expected {self.n} values, got {len(self.values)}"
            )
        if len(set(self.values)) != self.n:
            raise InvalidInputError("assignment values must be pairwise distinct")

    def __getitem__(self, vertex: int) -> Rat:
        if not 1 <= vertex <= self.n:
            raise InvalidInputError(f"vertex {vertex} out of range 1..{self.n}")
        return self.values[vertex - 1]

    @classmethod
    def consecutive(cls, n: int) -> "ZetaAssignment":
        """The default assignment: vertex r gets the integer r."""
        return cls(n, tuple(Fraction(r) for r in range(1, n + 1)), label="consecutive")

    @classmethod
    def random_distinct(cls, n: int, seed: int) -> "ZetaAssignment":
        """Seeded distinct integers drawn from RANDOM_VALUE_RANGE."""
        rng = random.Random(seed)
        lo, hi = RANDOM_VALUE_RANGE
        values = rng.sample(range(lo, hi + 1), n)
        return cls(n, tuple(Fraction(v) for v in values), label=f"seed:{seed}")

    @classmethod
    def from_strings(cls, texts: list[str]) -> "ZetaAssignment":
        return cls(len(texts), tuple(rat_from_string(t) for t in texts))

    def to_strings(self) -> list[str]:
        return [rat_to_string(v) for v in self.values]


class DenseMatrix:
    """Immutable dense matrix of exact rationals, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: list[list[Rat]] | tuple[tuple[Rat, ...], ...]):
        self.entries: tuple[tuple[Rat, ...], ...] = tuple(
            tuple(Fraction(x) for x in row) for row in entries
        )
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise InvalidInputError("ragged rows in matrix")

    # ---- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    # ---- basic queries ------------------------------------------------

    def __getitem__(self, index: tuple[int, int]) -> Rat:
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rat_to_string(x) for x in row) for row in self.entries
        )
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row_sums(self) -> list[Rat]:
        return [sum(row, Fraction(0)) for row in self.entries]

    def with_entry(self, i: int, j: int, value: Rat) -> "DenseMatrix":
        """Copy of this matrix with one entry replaced."""
        rows = [list(row) for row in self.entries]
        rows[i][j] = Fraction(value)
        return DenseMatrix(rows)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

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
        """Exact rank by Gaussian elimination over the rationals.

        Pivots on the first nonzero entry in each column; no magnitude
        pivoting is needed since the arithmetic is exact.
        """
        work = [list(row) for row in self.entries]
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if work[i][c] != 0), None)
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            pivot = work[r][c]
            for i in range(r + 1, self.rows):
                if work[i][c] != 0:
                    factor = work[i][c] / pivot
                    for j in range(c, self.cols):
                        work[i][j] -= factor * work[r][j]
            r += 1
            if r == self.rows:
                break
        return r

    # ---- serialization ------------------------------------------------

    def to_json_rows(self) -> list[list[str]]:
        """2-D array of "p/q" strings (row-major)."""
        return [[rat_to_string(x) for x in row] for row in self.entries]

    def to_latex(self) -> str:
        """Render as a LaTeX array with \\frac{p}{q} entries."""
        lines = ["\\left(\\begin{array}{%s}" % ("c" * self.cols)]
        for row in self.entries:
            lines.append(" & ".join(_latex_rat(x) for x in row) + " \\\\")
        lines.append("\\end{array}\\right)")
        return "\n".join(lines)


def _latex_rat(value: Rat) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"

