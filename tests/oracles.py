"""Independent dense oracles for the row-action side products.

The library never forms identity-padded move matrices on its hot path; these
helpers do, exactly as the padded-product description of the polygon equation
reads, so that the row-action results can be checked against them.
"""

from fractions import Fraction

from ngoneq import DenseMatrix, build_p_matrix, triangulation_path


def dense_extend(move, t_old, t_new, zeta) -> DenseMatrix:
    """The move matrix padded to |t_new| x |t_old|: a 1 for every simplex the
    move leaves alone, the move matrix entries at the active rows and columns."""
    p, index_map = build_p_matrix(move, zeta)
    row_of = {pair: k for k, pair in enumerate(t_new.pairs)}
    col_of = {pair: k for k, pair in enumerate(t_old.pairs)}
    out = [[Fraction(0)] * len(t_old) for _ in range(len(t_new))]
    for pair in set(t_old.pairs) & set(t_new.pairs):
        out[row_of[pair]][col_of[pair]] = Fraction(1)
    for i, row_pair in enumerate(index_map.row_pairs):
        for j, col_pair in enumerate(index_map.col_pairs):
            out[row_of[row_pair]][col_of[col_pair]] = p[i, j]
    return DenseMatrix(out)


def dense_factors(seq, zeta) -> list[DenseMatrix]:
    """Padded matrix of every move of a sequence, in application order."""
    path = triangulation_path(seq)
    return [dense_extend(move, path[k], path[k + 1], zeta) for k, move in enumerate(seq.moves)]


def dense_fold(factors) -> DenseMatrix:
    """M_k ... M_1 by dense multiplication, the first factor rightmost."""
    product = factors[0]
    for factor in factors[1:]:
        product = factor.mul(product)
    return product


def dense_product(seq, zeta) -> DenseMatrix:
    """The side product as the dense fold of the padded move matrices."""
    return dense_fold(dense_factors(seq, zeta))
