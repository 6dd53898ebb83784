"""Full-equation verification and the property suite, with structured reports.

A verification builds both move sequences for a given n, forms the two side products by their
columns in the pair gauge (``pmatrix.side_columns``) at one concrete distinct-value assignment,
compares them column by column, by value, and reads them row by row out of the gauge only to
report a first difference (row-major); the initial and final triangulations are the ends of a
sequence's path. A passing check certifies the identity there.

Error bound (Schwartz-Zippel): let move k remove the pairs of its b-set B_k, m = |B_k| =
floor((n-1)/2). Each column weight W_j divides V_k = prod_{a<b in B_k} (z_a - z_b), so V_k E_k
(E_k the extended matrix) has polynomial entries, homogeneous of degree C(m, 2). With V_L, V_R
the products of the V_k over each side and K_L, K_R the move counts, every entry of V_L V_R
(LHS - RHS) has degree at most d = (K_L + K_R) C(m, 2) (120 at n=12, 210 at n=14) and, at
distinct values, vanishes exactly when the entries agree. A false identity would pass one
``random_distinct`` trial (values in 1..10^6, drawn distinct, so conditioned on no collision)
with probability at most (d / 10^6) / (1 - C(n,2) / 10^6), and t independent trials with at
most its t-th power. The consecutive assignment is one fixed point and carries no such bound.
"""

from __future__ import annotations

import time
from collections import namedtuple
from types import MappingProxyType

from .errors import InvalidInputError
from .exactfield import IntRow, Rat, ZetaAssignment, same_rows
from .pmatrix import move_matrices, side_columns, true_product
from .simplicial import Triangulation, equation_sequences
from .version import __version__


class FirstDifference(
    namedtuple("FirstDifference", "row col row_simplex col_simplex lhs_value rhs_value")
):
    """Location and values of the first unequal product entry (row-major)."""

    __slots__ = ()


class PropertyResult(namedtuple("PropertyResult", "name passed detail", defaults=("",))):
    __slots__ = ()


class VerificationReport(namedtuple(
    "VerificationReport", "n zeta lhs rhs shape equal first_difference properties",
    defaults=(None, None)
)):
    """One verification. Its wall time per layer, ``timings``, is set beside the fields by the
    verification and is no field, so equality, hash and the JSON form ignore it."""

    timings = MappingProxyType({})

    def to_json_dict(self) -> dict:
        """Canonical JSON form; deterministic for identical inputs (timings
        are deliberately excluded)."""
        doc = {
            "n": self.n,
            "zeta": self.zeta.to_strings(),
            "zeta_label": self.zeta.label,
            "lhs_moves": [m.to_json_dict() for m in self.lhs.moves],
            "rhs_moves": [m.to_json_dict() for m in self.rhs.moves],
            "shape": list(self.shape),
            "equal": self.equal,
            "properties": (
                None
                if self.properties is None
                else {r.name: r.passed for r in self.properties}
            ),
            "version": __version__,
        }
        if self.first_difference is not None:
            d = self.first_difference
            doc["first_difference"] = {
                "row": d.row,
                "col": d.col,
                "row_simplex": list(d.row_simplex),
                "col_simplex": list(d.col_simplex),
                "lhs": d.lhs_value,
                "rhs": d.rhs_value,
            }
        return doc


def _first_difference(lhs: list[IntRow], rhs: list[IntRow], final: Triangulation,
                      initial: Triangulation, zeta: ZetaAssignment) -> FirstDifference | None:
    """The first unequal entry (row-major) of two sides given by their columns in the pair
    gauge, at its true values: ``true_product`` reads both entry by entry out of it, alike,
    and each entry is compared as one ``Rat``."""
    lhs, rhs = (true_product(cols, final.pairs, initial.pairs, zeta) for cols in (lhs, rhs))
    for i, rows in enumerate(zip(lhs, rhs)):
        for j, (x, y) in enumerate(zip(*rows)):
            x, y = Rat(*x), Rat(*y)
            if x != y:
                return FirstDifference(
                    row=i,
                    col=j,
                    row_simplex=final.pairs[i].simplex(),
                    col_simplex=initial.pairs[j].simplex(),
                    lhs_value=str(x),
                    rhs_value=str(y),
                )
    return None


def verify_equation(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """Check that both side products agree entrywise."""
    return _verify(n, zeta)[0]


def _verify(n: int, zeta: ZetaAssignment) -> tuple[VerificationReport, dict]:
    """``verify_equation`` and the move matrices of its side products, for the suite."""
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    timings: dict = {}
    t0 = time.perf_counter()
    lhs_seq, rhs_seq = equation_sequences(n)
    initial, final = lhs_seq.path[0], lhs_seq.path[-1]
    timings["sequences"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrices = move_matrices(lhs_seq.moves + rhs_seq.moves, zeta)
    timings["matrices"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lhs_cols = side_columns(lhs_seq, matrices)
    timings["lhs_product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rhs_cols = side_columns(rhs_seq, matrices)
    timings["rhs_product"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    equal = all(map(same_rows, lhs_cols, rhs_cols))  # by value: columns are not reduced
    difference = None if equal else _first_difference(lhs_cols, rhs_cols, final, initial, zeta)
    timings["compare"] = time.perf_counter() - t0

    shape = (len(final), len(initial))
    report = VerificationReport(n, zeta, lhs_seq, rhs_seq, shape, equal, difference)
    report.timings = timings
    return report, matrices


def verify_with_properties(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """verify_equation plus the property suite, bundled into one report; the
    suite reuses the report's move sequences and move matrices."""
    from .fvectors import property_suite  # compiled on first use; fvectors imports this module
    report, matrices = _verify(n, zeta)
    t0 = time.perf_counter()
    properties = property_suite(n, zeta, (report.lhs, report.rhs), matrices)
    report.timings["properties"] = time.perf_counter() - t0
    checked = report._replace(properties=properties)
    checked.timings = report.timings
    return checked
