"""Combinatorics of polygon triangulations and flip moves.

A polygon on vertices 1..n is triangulated by (n-3)-simplices, each of which
has n-2 vertices and is encoded by the pair (i, j) of vertices it omits.
A flip move is determined by the one vertex q it does not involve: it removes
the simplices paired with {b, q} for the floor((n-1)/2) values b present in
the triangulation, and inserts the simplices paired with {c, q} for the
complementary vertices c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInputError, MoveNotApplicableError


def move_size(n: int) -> int:
    """Number of simplices removed by one move: floor((n-1)/2)."""
    return (n - 1) // 2


@dataclass(frozen=True, order=True)
class Pair:
    """The (i, j) name of the simplex on {1..n} \\ {i, j}."""

    i: int
    j: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.j <= self.n):
            raise InvalidInputError(f"pair ({self.i},{self.j}) invalid for n={self.n}")

    def simplex(self) -> tuple[int, ...]:
        """Sorted vertex tuple of the simplex this pair names."""
        return tuple(v for v in range(1, self.n + 1) if v != self.i and v != self.j)

    @classmethod
    def of(cls, n: int, i: int, j: int) -> "Pair":
        """Pair with i, j given in either order."""
        return cls(min(i, j), max(i, j), n)


@dataclass(frozen=True)
class Triangulation:
    """A duplicate-free collection of pairs, stored in canonical order.

    Canonical order is ascending lexicographic order of the simplex vertex
    tuples (so for n=6: 1234 before 1245 before 1256); this fixes row and
    column orderings of all extended matrices.
    """

    n: int
    pairs: tuple[Pair, ...]

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Triangulation":
        pairs = tuple(pairs)
        if len(set(pairs)) != len(pairs):
            raise InvalidInputError("duplicate pairs in triangulation")
        for p in pairs:
            if p.n != n:
                raise InvalidInputError(f"pair {p} has wrong ambient size")
        ordered = tuple(sorted(pairs, key=lambda p: p.simplex()))
        return cls(n, ordered)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def simplices(self) -> list[tuple[int, ...]]:
        return [p.simplex() for p in self.pairs]


@dataclass(frozen=True)
class PachnerMove:
    """One flip: remove the pairs {b, q}, insert the pairs {c, q}."""

    n: int
    q: int
    b_set: tuple[int, ...]
    c_set: tuple[int, ...]

    def __post_init__(self) -> None:
        b, c = set(self.b_set), set(self.c_set)
        if self.q in b or self.q in c or b & c:
            raise InvalidInputError("q, b_set, c_set must be disjoint")
        if b | c | {self.q} != set(range(1, self.n + 1)):
            raise InvalidInputError("move must cover all vertices 1..n")
        if len(self.b_set) != move_size(self.n):
            raise InvalidInputError(
                f"b_set must have {move_size(self.n)} vertices, got {len(self.b_set)}"
            )
        if self.b_set != tuple(sorted(self.b_set)) or self.c_set != tuple(sorted(self.c_set)):
            raise InvalidInputError("b_set and c_set must be sorted")

    def removed_pairs(self) -> list[Pair]:
        return [Pair.of(self.n, b, self.q) for b in self.b_set]

    def created_pairs(self) -> list[Pair]:
        return [Pair.of(self.n, c, self.q) for c in self.c_set]

    def label(self) -> str:
        """Subscript notation d^(q)_{b...} used in step listings."""
        sep = "" if self.n <= 9 else ","
        return f"d^({self.q})_{{{sep.join(str(b) for b in self.b_set)}}}"

    def to_json_dict(self) -> dict:
        return {"q": self.q, "b": list(self.b_set), "c": list(self.c_set)}


@dataclass(frozen=True)
class MoveSequence:
    """Moves of one side of the polygon equation, in application order."""

    n: int
    side: str  # "lhs" or "rhs"
    moves: tuple[PachnerMove, ...] = field(default_factory=tuple)


def _check_n(n: int) -> None:
    if n < 5:
        raise InvalidInputError(f"construction requires n >= 5, got {n}")


def initial_triangulation(n: int) -> Triangulation:
    """Pairs (n+1-2k, n+2-2l) for 1 <= l <= k <= floor((n-1)/2)."""
    _check_n(n)
    pairs = []
    for k in range(1, move_size(n) + 1):
        for l in range(1, k + 1):
            pairs.append(Pair.of(n, n + 1 - 2 * k, n + 2 - 2 * l))
    return Triangulation.from_pairs(n, pairs)


def final_triangulation(n: int) -> Triangulation:
    """Pairs (n-2k, n+1-2l); for even n also (1, n+2-2l), l = 1..n/2."""
    _check_n(n)
    pairs = []
    top = move_size(n) if n % 2 == 1 else n // 2 - 1
    for k in range(1, top + 1):
        for l in range(1, k + 1):
            pairs.append(Pair.of(n, n - 2 * k, n + 1 - 2 * l))
    if n % 2 == 0:
        for l in range(1, n // 2 + 1):
            pairs.append(Pair.of(n, 1, n + 2 - 2 * l))
    return Triangulation.from_pairs(n, pairs)


def derive_move(t: Triangulation, q: int) -> PachnerMove:
    """Read the move at q off a triangulation: b_set collects every b with
    pair {b, q} present. Fails unless exactly floor((n-1)/2) pairs contain q."""
    n = t.n
    if not 1 <= q <= n:
        raise InvalidInputError(f"vertex {q} out of range 1..{n}")
    b = sorted(
        (p.i if p.j == q else p.j) for p in t.pairs if q in (p.i, p.j)
    )
    if len(b) != move_size(n):
        raise MoveNotApplicableError(
            f"vertex {q} lies in {len(b)} pairs, need {move_size(n)}"
        )
    c = sorted(set(range(1, n + 1)) - {q} - set(b))
    return PachnerMove(n, q, tuple(b), tuple(c))


def apply_move(t: Triangulation, move: PachnerMove) -> Triangulation:
    """Replace the removed pairs with the created pairs, re-sorted canonically."""
    if move.n != t.n:
        raise InvalidInputError("move and triangulation have different n")
    current = set(t.pairs)
    for p in move.removed_pairs():
        if p not in current:
            raise MoveNotApplicableError(f"pair ({p.i},{p.j}) not present")
        current.remove(p)
    for p in move.created_pairs():
        if p in current:
            raise MoveNotApplicableError(f"pair ({p.i},{p.j}) already present")
        current.add(p)
    return Triangulation.from_pairs(t.n, current)


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
    lhs: 3,5,...,n-1,1 / rhs: n,n-2,...,2 for even n.
    """
    _check_n(n)
    sides = []
    for side, q_order in (("lhs", lhs_q_order(n)), ("rhs", rhs_q_order(n))):
        t = initial_triangulation(n)
        moves = []
        for q in q_order:
            move = derive_move(t, q)
            t = apply_move(t, move)
            moves.append(move)
        if t != final_triangulation(n):
            raise MoveNotApplicableError(
                f"{side} sequence for n={n} did not reach the final triangulation"
            )
        sides.append(MoveSequence(n, side, tuple(moves)))
    return sides[0], sides[1]


def triangulation_path(seq: MoveSequence) -> list[Triangulation]:
    """Triangulations visited by a sequence, starting at the initial one."""
    t = initial_triangulation(seq.n)
    path = [t]
    for move in seq.moves:
        t = apply_move(t, move)
        path.append(t)
    return path
