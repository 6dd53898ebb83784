"""Reference factor matrices for the pentagon, hexagon and heptagon identities.

Entries are coded directly as difference-quotient formulas in the assignment
values, so comparing them with constructed matrices at several assignments
checks the construction as rational functions, not just at one point.
"""

from fractions import Fraction

from ngoneq import DenseMatrix, ZetaAssignment
from oracles import transpose


def _m(zeta: ZetaAssignment, rows) -> DenseMatrix:
    z = zeta
    out = []
    for row in rows:
        out.append([entry(z) if callable(entry) else Fraction(entry) for entry in row])
    return DenseMatrix(out)


def _q(a, b, c, d):
    """Entry (z_a - z_b) / (z_c - z_d)."""
    return lambda z: (z[a] - z[b]) / (z[c] - z[d])


# ---------------------------------------------------------------------------
# Pentagon: two-factor and three-factor products of extended 3x3 matrices.
# Factors are listed left to right as they appear in the products (leftmost
# factor belongs to the last-applied move). The two left-side factors are
# tabulated in transposed orientation (their rows as printed do not sum to 1);
# pentagon_lhs_factors returns them transposed back to the action-on-stacks
# convention used throughout this package.
# ---------------------------------------------------------------------------

def pentagon_lhs_factors_as_tabulated(zeta: ZetaAssignment) -> list[DenseMatrix]:
    f1 = _m(zeta, [
        [_q(3, 2, 5, 2), _q(1, 2, 5, 2), 0],
        [_q(3, 5, 2, 5), _q(1, 5, 2, 5), 0],
        [0, 0, 1],
    ])
    f2 = _m(zeta, [
        [1, 0, 0],
        [0, _q(4, 3, 5, 3), _q(1, 3, 5, 3)],
        [0, _q(4, 5, 3, 5), _q(1, 5, 3, 5)],
    ])
    return [f1, f2]


def pentagon_lhs_factors(zeta: ZetaAssignment) -> list[DenseMatrix]:
    return [transpose(m) for m in pentagon_lhs_factors_as_tabulated(zeta)]


def pentagon_rhs_factors(zeta: ZetaAssignment) -> list[DenseMatrix]:
    """Right-side factors, left to right; the middle triangulation of this side
    is tabulated in the order (124, 234, 145) rather than canonical
    (124, 145, 234), so the trailing two factors carry that ordering."""
    f1 = _m(zeta, [
        [1, 0, 0],
        [0, _q(3, 4, 3, 5), _q(4, 5, 3, 5)],
        [0, _q(3, 2, 3, 5), _q(2, 5, 3, 5)],
    ])
    f2 = _m(zeta, [
        [_q(2, 4, 2, 5), 0, _q(4, 5, 2, 5)],
        [0, 1, 0],
        [_q(2, 1, 2, 5), 0, _q(1, 5, 2, 5)],
    ])
    f3 = _m(zeta, [
        [_q(2, 3, 2, 4), _q(3, 4, 2, 4), 0],
        [_q(2, 1, 2, 4), _q(1, 4, 2, 4), 0],
        [0, 0, 1],
    ])
    return [f1, f2, f3]


# Permutation mapping the tabulated order (124, 234, 145) of the pentagon's
# right-branch middle triangulation to canonical order (124, 145, 234).
PENTAGON_MIDDLE_PERMUTATION = (0, 2, 1)


def permute_rows(m: DenseMatrix, perm) -> DenseMatrix:
    return DenseMatrix([list(m.entries[p]) for p in perm])


def permute_cols(m: DenseMatrix, perm) -> DenseMatrix:
    return DenseMatrix([[row[p] for p in perm] for row in m.entries])


# ---------------------------------------------------------------------------
# Hexagon: triangulation list (1)-(6) and the six factors (shapes 6x5, 5x4,
# 4x3 on each side), all in canonical ordering.
# ---------------------------------------------------------------------------

HEXAGON_TRIANGULATIONS = [
    [(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6)],
    [(1, 2, 3, 4), (1, 2, 4, 6), (1, 4, 5, 6), (2, 4, 5, 6)],
    [(1, 2, 3, 5), (1, 2, 5, 6), (1, 3, 4, 5), (2, 3, 4, 5)],
    [(1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 5, 6), (2, 3, 4, 6), (2, 4, 5, 6)],
    [(1, 2, 3, 6), (1, 3, 4, 5), (1, 3, 5, 6), (2, 3, 4, 5), (2, 3, 5, 6)],
    [(1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 5, 6), (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6)],
]

# Left branch visits (1)->(2)->(4)->(6); right branch visits (1)->(3)->(5)->(6).
HEXAGON_LHS_PATH = [0, 1, 3, 5]
HEXAGON_RHS_PATH = [0, 2, 4, 5]


def hexagon_lhs_factors(zeta: ZetaAssignment) -> list[DenseMatrix]:
    f1 = _m(zeta, [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, _q(3, 6, 3, 5), _q(6, 5, 3, 5)],
        [0, 0, 0, _q(3, 4, 3, 5), _q(4, 5, 3, 5)],
        [0, 0, 0, _q(3, 2, 3, 5), _q(2, 5, 3, 5)],
    ])
    f2 = _m(zeta, [
        [_q(3, 4, 3, 6), _q(4, 6, 3, 6), 0, 0],
        [_q(3, 2, 3, 6), _q(2, 6, 3, 6), 0, 0],
        [0, 0, 1, 0],
        [_q(3, 1, 3, 6), _q(1, 6, 3, 6), 0, 0],
        [0, 0, 0, 1],
    ])
    f3 = _m(zeta, [
        [1, 0, 0],
        [0, _q(4, 5, 4, 6), _q(5, 6, 4, 6)],
        [0, _q(4, 2, 4, 6), _q(2, 6, 4, 6)],
        [0, _q(4, 1, 4, 6), _q(1, 6, 4, 6)],
    ])
    return [f1, f2, f3]


def hexagon_rhs_factors(zeta: ZetaAssignment) -> list[DenseMatrix]:
    f1 = _m(zeta, [
        [1, 0, 0, 0, 0],
        [0, _q(4, 5, 4, 6), _q(5, 6, 4, 6), 0, 0],
        [0, _q(4, 3, 4, 6), _q(3, 6, 4, 6), 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, _q(4, 1, 4, 6), _q(1, 6, 4, 6), 0, 0],
    ])
    f2 = _m(zeta, [
        [_q(3, 5, 3, 6), _q(5, 6, 3, 6), 0, 0],
        [0, 0, 1, 0],
        [_q(3, 2, 3, 6), _q(2, 6, 3, 6), 0, 0],
        [0, 0, 0, 1],
        [_q(3, 1, 3, 6), _q(1, 6, 3, 6), 0, 0],
    ])
    f3 = _m(zeta, [
        [_q(3, 4, 3, 5), _q(4, 5, 3, 5), 0],
        [0, 0, 1],
        [_q(3, 2, 3, 5), _q(2, 5, 3, 5), 0],
        [_q(3, 1, 3, 5), _q(1, 5, 3, 5), 0],
    ])
    return [f1, f2, f3]


# ---------------------------------------------------------------------------
# Heptagon: the 3x3 move matrix as a table of Vandermonde-product ratios, and
# the rank-3 6x6 stack of invariant vectors on six vertices.
# ---------------------------------------------------------------------------

def vprod(zeta: ZetaAssignment, i: int, j: int, k: int):
    """(z_i - z_j)(z_i - z_k)(z_j - z_k); a 3x3 Vandermonde up to sign."""
    return (zeta[i] - zeta[j]) * (zeta[i] - zeta[k]) * (zeta[j] - zeta[k])


def heptagon_p_matrix(zeta: ZetaAssignment) -> DenseMatrix:
    rows = [
        [(2, 4, 5), (2, 5, 6), (5, 4, 6)],
        [(2, 4, 3), (2, 3, 6), (3, 4, 6)],
        [(2, 4, 1), (2, 1, 6), (1, 4, 6)],
    ]
    den = vprod(zeta, 2, 4, 6)
    return DenseMatrix(
        [[vprod(zeta, *ijk) / den for ijk in row] for row in rows]
    )


def heptagon_closed_form_component(zeta: ZetaAssignment, i, j, k, l, m):
    """(4 z_i - z_j - z_k - z_l - z_m) / prod (z_i - z_*)."""
    num = 4 * zeta[i] - zeta[j] - zeta[k] - zeta[l] - zeta[m]
    den = (zeta[i] - zeta[j]) * (zeta[i] - zeta[k]) * (zeta[i] - zeta[l]) * (zeta[i] - zeta[m])
    return num / den


def heptagon_m_matrix(zeta: ZetaAssignment) -> DenseMatrix:
    """6x6: row r is the invariant vector of the simplex on {1..6} minus r,
    written in coordinates 1..6 via the closed form."""
    rows = []
    for r in range(1, 7):
        others = [v for v in range(1, 7) if v != r]
        row = []
        for c in range(1, 7):
            if c == r:
                row.append(Fraction(0))
            else:
                rest = [v for v in others if v != c]
                row.append(heptagon_closed_form_component(zeta, c, *rest))
        rows.append(row)
    return DenseMatrix(rows)
