"""Combinatorics of polygon triangulations and flip moves.

A polygon on vertices 1..n is triangulated by (n-3)-simplices, each of which
has n-2 vertices and is encoded by the pair (i, j) of vertices it omits.
A flip move is determined by the one vertex q it does not involve: it removes
the simplices paired with {b, q} for the floor((n-1)/2) values b present in
the triangulation, and inserts the simplices paired with {c, q} for the
complementary vertices c. A move sequence carries the triangulations it
visits, recorded while its moves are derived; its consumers read them there.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations, compress

from .errors import InternalError, InvalidInputError


def move_size(n: int) -> int:
    """Number of simplices removed by one move: floor((n-1)/2)."""
    return (n - 1) // 2


class Pair(namedtuple("Pair", "i j n")):
    """The (i, j) name of the simplex on {1..n} \\ {i, j}; a tuple (i, j, n)."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # namedtuple's _make checks len(); this skips all checks

    def __new__(cls, i: int, j: int, n: int) -> "Pair":
        if not (1 <= i < j <= n):
            raise InvalidInputError(f"pair ({i},{j}) invalid for n={n}")
        return tuple.__new__(cls, (i, j, n))

    def simplex(self) -> tuple[int, ...]:
        """Sorted vertex tuple of the simplex this pair names."""
        return tuple(v for v in range(1, self.n + 1) if v != self.i and v != self.j)


class Triangulation(namedtuple("Triangulation", "n pairs")):
    """A duplicate-free collection of pairs, stored in canonical order; a tuple
    (n, pairs) whose ``len`` is the number of pairs.

    Canonical order is ascending lexicographic order of the simplex vertex
    tuples (so for n=6: 1234 before 1245 before 1256); this fixes row and
    column orderings of all extended matrices. It is descending (i, j) order
    of the pairs: two simplices first differ at the smaller of the vertices
    their pairs do not share, and the simplex that keeps it comes first.
    """

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # namedtuple's _make checks len(), redefined below

    def __len__(self) -> int:
        return len(self.pairs)

    def simplices(self) -> list[tuple[int, ...]]:
        return [p.simplex() for p in self.pairs]


class PachnerMove(namedtuple("PachnerMove", "n q b_set c_set")):
    """One flip: remove the pairs {b, q}, insert the pairs {c, q}; a tuple (n, q, b_set, c_set)."""

    _make = classmethod(tuple.__new__)  # namedtuple's _make checks len(); this skips all checks

    def __new__(cls, n: int, q: int, b_set: tuple[int, ...], c_set: tuple[int, ...]):
        b, c = set(b_set), set(c_set)
        if q in b or q in c or b & c:
            raise InvalidInputError("q, b_set, c_set must be disjoint")
        if b | c | {q} != set(range(1, n + 1)):
            raise InvalidInputError("move must cover all vertices 1..n")
        if len(b_set) != move_size(n):
            raise InvalidInputError(f"b_set must have {move_size(n)} vertices, got {len(b_set)}")
        if b_set != tuple(sorted(b_set)) or c_set != tuple(sorted(c_set)):
            raise InvalidInputError("b_set and c_set must be sorted")
        return tuple.__new__(cls, (n, q, b_set, c_set))

    @cached_property
    def removed_pairs(self) -> tuple[Pair, ...]:
        """The pairs {b, q}, b descending: the column order of the move matrix."""
        n, q = self.n, self.q  # checked by __new__: Pair._make skips Pair's check
        return tuple([Pair._make((min(b, q), max(b, q), n)) for b in reversed(self.b_set)])

    @cached_property
    def created_pairs(self) -> tuple[Pair, ...]:
        """The pairs {c, q}, c descending: the row order of the move matrix."""
        n, q = self.n, self.q  # checked by __new__: Pair._make skips Pair's check
        return tuple([Pair._make((min(c, q), max(c, q), n)) for c in reversed(self.c_set)])

    def label(self) -> str:
        """Subscript notation d^(q)_{b...} used in step listings."""
        sep = "" if self.n <= 9 else ","
        return f"d^({self.q})_{{{sep.join(str(b) for b in self.b_set)}}}"

    def to_json_dict(self) -> dict:
        return {"q": self.q, "b": list(self.b_set), "c": list(self.c_set)}


class MoveSequence(namedtuple("MoveSequence", "n side moves path")):
    """Moves of one side ("lhs" or "rhs") of the polygon equation, in application
    order, and the triangulations they visit: path[0] is the initial triangulation
    and path[k + 1] is path[k] with moves[k] applied."""

    __slots__ = ()


def check_n(n: int) -> None:
    if n < 5:
        raise InvalidInputError(f"construction requires n >= 5, got {n}")


def _made(n: int, ij) -> Triangulation:
    """The triangulation of the pairs (i, j) given, distinct and 1 <= i < j <= n by
    construction: Pair._make and Triangulation._make skip their checks."""
    pairs = [Pair._make((i, j, n)) for i, j in ij]
    return Triangulation._make((n, tuple(sorted(pairs, reverse=True))))


def initial_triangulation(n: int) -> Triangulation:
    """Pairs (n+1-2k, n+2-2l) for 1 <= l <= k <= floor((n-1)/2)."""
    check_n(n)
    ks = range(1, move_size(n) + 1)
    return _made(n, [(n + 1 - 2 * k, n + 2 - 2 * l) for k in ks for l in range(1, k + 1)])


def final_triangulation(n: int) -> Triangulation:
    """Pairs (n-2k, n+1-2l); for even n also (1, n+2-2l), l = 1..n/2."""
    check_n(n)
    ks = range(1, (move_size(n) if n % 2 == 1 else n // 2 - 1) + 1)
    ij = [(n - 2 * k, n + 1 - 2 * l) for k in ks for l in range(1, k + 1)]
    if n % 2 == 0:
        ij += [(1, n + 2 - 2 * l) for l in range(1, n // 2 + 1)]
    return _made(n, ij)


def lhs_q_order(n: int) -> list[int]:
    if n % 2 == 1:
        return list(range(2, n, 2))
    return list(range(3, n, 2)) + [1]


def rhs_q_order(n: int) -> list[int]:
    if n % 2 == 1:
        return list(range(n, 0, -2))
    return list(range(n, 1, -2))


def equation_sequences(n: int) -> tuple[MoveSequence, MoveSequence]:
    """Both move sequences of the polygon equation, derived from the evolving
    triangulation rather than hard-coded subscript patterns.

    Each side starts from the initial triangulation and must end at the final
    one; the q-orders are lhs: 2,4,...,n-1 / rhs: n,n-2,...,1 for odd n and
    lhs: 3,5,...,n-1,1 / rhs: n,n-2,...,2 for even n. Both sides walk one table of
    the C(n,2) pairs in canonical order, built once per call, with a flag per pair for
    the current triangulation. The link of q, the vertices w whose pair {q, w} is
    present, is read off q's row of table positions: the move at q takes its b-set from
    the link and its c-set as the complement, flips its pairs' flags and takes its
    removed and created pairs from the table, in O(n); each path triangulation is the
    flagged pairs in table order, with no sort. At a valid n a failed derivation is a
    bug, raised as InternalError.
    """
    check_n(n)
    initial, final = initial_triangulation(n), final_triangulation(n)
    m, everyone = move_size(n), range(1, n + 1)
    ranked = [Pair._make((i, j, n)) for i, j in combinations(everyone, 2)][::-1]  # canonical
    at = [[0] * (n + 1) for _ in range(n + 1)]  # at[v][w]: position of the pair {v, w}
    for k, (i, j, _) in enumerate(ranked):
        at[i][j] = at[j][i] = k
    start = bytearray(len(ranked))
    for i, j, _ in initial.pairs:
        start[at[i][j]] = 1
    sides = []
    for side, q_order in (("lhs", lhs_q_order(n)), ("rhs", rhs_q_order(n))):
        present, path, moves = bytearray(start), [initial], []
        for q in q_order:
            link = at[q]  # w is in the link of q iff present[link[w]]
            b_set = tuple([v for v in everyone if v != q and present[link[v]]])
            if len(b_set) != m:
                raise InternalError(
                    f"{side} sequence for n={n}: vertex {q} lies in {len(b_set)} pairs, need {m}"
                )
            c_set = tuple([v for v in everyone if v != q and not present[link[v]]])
            move = PachnerMove._make((n, q, b_set, c_set))  # disjoint, sorted and complete
            vars(move).update(  # fill the cached properties from the table
                removed_pairs=tuple([ranked[link[b]] for b in reversed(b_set)]),
                created_pairs=tuple([ranked[link[c]] for c in reversed(c_set)]),
            )
            for b in b_set:
                present[link[b]] = 0
            for c in c_set:
                present[link[c]] = 1
            moves.append(move)
            # via a list: tuple(iterator) resizes as it grows, which fragments the heap
            path.append(Triangulation._make((n, tuple(list(compress(ranked, present))))))
        if path[-1] != final:
            raise InternalError(
                f"{side} sequence for n={n} did not reach the final triangulation"
            )
        sides.append(MoveSequence(n, side, tuple(moves), tuple(path)))
    return sides[0], sides[1]
