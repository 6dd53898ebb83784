from itertools import combinations

import pytest

import ngoneq.simplicial as simplicial_module
from ngoneq import (
    InternalError,
    InvalidInputError,
    MoveNotApplicableError,
    PachnerMove,
    Pair,
    Triangulation,
    equation_sequences,
    final_triangulation,
    initial_triangulation,
)
from ngoneq.simplicial import lhs_q_order, move_size, rhs_q_order
import oracles
from oracles import (
    apply_move,
    derive_move,
    other_vertex,
    pair_of,
    stepwise_sequences,
    triangulation_from_pairs,
)


def simplices(t: Triangulation) -> list[tuple[int, ...]]:
    return t.simplices()


# ---------------------------------------------------------------------------
# pair encoding
# ---------------------------------------------------------------------------

def test_pair_to_simplex_examples():
    assert Pair(4, 5, 5).simplex() == (1, 2, 3)
    assert Pair(3, 4, 6).simplex() == (1, 2, 5, 6)
    assert Pair(1, 2, 5).simplex() == (3, 4, 5)


def test_pair_validation():
    with pytest.raises(InvalidInputError):
        Pair(5, 4, 5)
    with pytest.raises(InvalidInputError):
        Pair(0, 3, 5)
    with pytest.raises(InvalidInputError):
        Pair(2, 6, 5)
    with pytest.raises(InvalidInputError):
        Pair(3, 3, 5)
    with pytest.raises(InvalidInputError):
        pair_of(5, 4, 4)


def test_pair_of_is_symmetric_and_hash_agrees_with_equality():
    for n in (5, 6, 9):
        for i, j in combinations(range(1, n + 1), 2):
            p = Pair(i, j, n)
            assert pair_of(n, i, j) == pair_of(n, j, i) == p
            assert hash(pair_of(n, j, i)) == hash(p)
            assert (p.i, p.j, p.n) == (i, j, n)
            assert p != Pair(i, j, n + 1)
            assert len({p, pair_of(n, j, i), Pair(i, j, n + 1)}) == 2


def test_pair_other_vertex():
    assert other_vertex(Pair(2, 5, 6), 2) == 5
    assert other_vertex(Pair(2, 5, 6), 5) == 2
    for v in (1, 3, 6):
        with pytest.raises(InvalidInputError):
            other_vertex(Pair(2, 5, 6), v)


def test_pair_simplex_bijection_all_small_n():
    for n in range(5, 13):
        for i, j in combinations(range(1, n + 1), 2):
            p = Pair(i, j, n)
            assert p.simplex() == tuple(sorted(set(range(1, n + 1)) - {i, j}))


# ---------------------------------------------------------------------------
# initial and final triangulations
# ---------------------------------------------------------------------------

def test_initial_triangulation_examples():
    assert simplices(initial_triangulation(5)) == [(1, 2, 3), (1, 3, 4), (1, 4, 5)]
    assert [(p.i, p.j) for p in initial_triangulation(5).pairs] == [(4, 5), (2, 5), (2, 3)]
    assert simplices(initial_triangulation(6)) == [
        (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6)
    ]
    assert set((p.i, p.j) for p in initial_triangulation(7).pairs) == {
        (6, 7), (4, 7), (4, 5), (2, 7), (2, 5), (2, 3)
    }


def test_final_triangulation_examples():
    assert simplices(final_triangulation(5)) == [(1, 2, 5), (2, 3, 5), (3, 4, 5)]
    assert [(p.i, p.j) for p in final_triangulation(5).pairs] == [(3, 4), (1, 4), (1, 2)]
    assert simplices(final_triangulation(6)) == [
        (1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 5, 6),
        (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6),
    ]
    assert [(p.i, p.j) for p in final_triangulation(7).pairs] == [
        (5, 6), (3, 6), (3, 4), (1, 6), (1, 4), (1, 2)
    ]


def test_triangulation_counts():
    for n in range(5, 13):
        m = move_size(n)
        assert len(initial_triangulation(n)) == m * (m + 1) // 2
        if n % 2 == 1:
            assert len(final_triangulation(n)) == (n - 1) * (n + 1) // 8
        else:
            assert len(final_triangulation(n)) == (n // 2) * (n // 2 + 1) // 2


def test_small_n_rejected():
    for n in (2, 3, 4):
        with pytest.raises(InvalidInputError):
            initial_triangulation(n)
        with pytest.raises(InvalidInputError):
            final_triangulation(n)
        with pytest.raises(InvalidInputError):
            equation_sequences(n)


def test_triangulation_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        triangulation_from_pairs(5, [Pair(1, 2, 5), Pair(1, 2, 5)])


def test_triangulation_canonical_order_is_simplex_lex():
    t = triangulation_from_pairs(5, [Pair(1, 2, 5), Pair(4, 5, 5), Pair(2, 5, 5)])
    assert simplices(t) == [(1, 2, 3), (1, 3, 4), (3, 4, 5)]


@pytest.mark.parametrize("n", range(5, 17))
def test_descending_pair_order_is_ascending_simplex_order(n):
    """triangulation_from_pairs sorts pairs descending; over all C(n,2) pairs that is the
    ascending lexicographic order of their simplices."""
    pairs = [Pair(i, j, n) for i, j in combinations(range(1, n + 1), 2)]
    by_simplex = sorted(pairs, key=lambda p: p.simplex())
    assert sorted(pairs, reverse=True) == by_simplex
    assert list(triangulation_from_pairs(n, reversed(pairs)).pairs) == by_simplex


@pytest.mark.parametrize("n", range(5, 17))
def test_initial_and_final_pairs_are_in_descending_i_j_order(n):
    for t in (initial_triangulation(n), final_triangulation(n)):
        ij = [(p.i, p.j) for p in t.pairs]
        assert ij == sorted(ij, reverse=True)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def test_derive_move_examples():
    move = derive_move(initial_triangulation(5), 2)
    assert (move.b_set, move.c_set) == ((3, 5), (1, 4))
    move = derive_move(initial_triangulation(6), 3)
    assert (move.b_set, move.c_set) == ((4, 6), (1, 2, 5))


def test_derive_move_wrong_count_raises():
    with pytest.raises(MoveNotApplicableError):
        derive_move(initial_triangulation(5), 1)


def test_apply_move_examples():
    t = apply_move(initial_triangulation(5), derive_move(initial_triangulation(5), 2))
    assert simplices(t) == [(1, 2, 3), (1, 3, 5), (3, 4, 5)]
    t6 = apply_move(initial_triangulation(6), derive_move(initial_triangulation(6), 3))
    assert simplices(t6) == [(1, 2, 3, 4), (1, 2, 4, 6), (1, 4, 5, 6), (2, 4, 5, 6)]


def test_apply_move_round_trip_odd_n():
    for n in (5, 7, 9):
        t = initial_triangulation(n)
        move = derive_move(t, 2)
        inverse = PachnerMove(n, move.q, move.c_set, move.b_set)
        assert apply_move(apply_move(t, move), inverse) == t


def test_apply_move_rejects_bad_state():
    t = initial_triangulation(5)
    move = derive_move(t, 2)
    with pytest.raises(MoveNotApplicableError):
        apply_move(apply_move(t, move), move)  # b-pairs no longer present


def test_move_validation():
    with pytest.raises(InvalidInputError):
        PachnerMove(5, 2, (3,), (1, 4, 5))  # wrong b size
    with pytest.raises(InvalidInputError):
        PachnerMove(5, 2, (2, 5), (1, 3, 4))  # q inside b
    with pytest.raises(InvalidInputError):
        PachnerMove(5, 2, (5, 3), (1, 4))  # unsorted


def test_move_label():
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    assert move.label() == "d^(2)_{35}"
    big = derive_move(initial_triangulation(10), 3)
    assert "," in big.label()


# ---------------------------------------------------------------------------
# equation sequences
# ---------------------------------------------------------------------------

def test_sequences_pentagon():
    lhs, rhs = equation_sequences(5)
    assert [(m.q, m.b_set) for m in lhs.moves] == [(2, (3, 5)), (4, (2, 5))]
    assert [(m.q, m.b_set) for m in rhs.moves] == [
        (5, (2, 4)), (3, (2, 5)), (1, (3, 5))
    ]


def test_sequences_hexagon():
    lhs, rhs = equation_sequences(6)
    assert [(m.q, m.b_set) for m in lhs.moves] == [
        (3, (4, 6)), (5, (3, 6)), (1, (3, 5))
    ]
    assert [(m.q, m.b_set) for m in rhs.moves] == [
        (6, (3, 5)), (4, (3, 6)), (2, (4, 6))
    ]


def test_sequences_heptagon():
    lhs, rhs = equation_sequences(7)
    assert [(m.q, m.b_set) for m in lhs.moves] == [
        (2, (3, 5, 7)), (4, (2, 5, 7)), (6, (2, 4, 7))
    ]
    assert [(m.q, m.b_set) for m in rhs.moves] == [
        (7, (2, 4, 6)), (5, (2, 4, 7)), (3, (2, 5, 7)), (1, (3, 5, 7))
    ]


def test_sequence_lengths():
    for n in range(5, 13):
        lhs, rhs = equation_sequences(n)
        if n % 2 == 1:
            assert len(lhs.moves) == (n - 1) // 2
            assert len(rhs.moves) == (n + 1) // 2
        else:
            assert len(lhs.moves) == len(rhs.moves) == n // 2


def test_sequences_reach_final_and_counts_evolve():
    """Both sides map initial to final; each path records one triangulation per
    move applied; simplex counts stay constant for odd n and grow by one per
    move for even n."""
    for n in range(5, 17):
        for seq in equation_sequences(n):
            path = seq.path
            assert len(path) == len(seq.moves) + 1
            assert path[0] == initial_triangulation(n)
            assert path[-1] == final_triangulation(n)
            for k, move in enumerate(seq.moves):
                assert path[k + 1] == apply_move(path[k], move)
            for before, after in zip(path, path[1:]):
                if n % 2 == 1:
                    assert len(after) == len(before)
                else:
                    assert len(after) == len(before) + 1


@pytest.mark.parametrize("n", range(5, 41))
def test_sequences_match_the_stepwise_oracle(n):
    """The vertex-link derivation gives the moves, the paths and each move's pairs
    that reading every move off the whole triangulation gives."""
    for seq, oracle in zip(equation_sequences(n), stepwise_sequences(n)):
        assert (seq.n, seq.side) == (oracle.n, oracle.side)
        assert seq.moves == oracle.moves
        for move in seq.moves:  # built unchecked: the checked constructor accepts each
            assert PachnerMove(*move) == move
        assert seq.path == oracle.path
        for t in seq.path:  # built unchecked: every pair valid, no duplicate, canonical order
            assert triangulation_from_pairs(n, [Pair(*p) for p in t.pairs]) == t
        for move, expected in zip(seq.moves, oracle.moves):
            assert move.removed_pairs == expected.removed_pairs
            assert move.created_pairs == expected.created_pairs


@pytest.mark.parametrize("n", [7, 8, 9, 10])
@pytest.mark.parametrize(
    "broken_order", [lambda q: q[:-1], lambda q: q[::-1]], ids=["truncated", "reversed"]
)
def test_failed_derivation_reads_as_the_stepwise_oracle(monkeypatch, n, broken_order):
    real = simplicial_module.lhs_q_order
    for module in (simplicial_module, oracles):
        monkeypatch.setattr(module, "lhs_q_order", lambda k: broken_order(real(k)))
    messages = []
    for derive in (equation_sequences, stepwise_sequences):
        with pytest.raises(InternalError) as failure:
            derive(n)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


def test_every_prefix_derivable():
    """At each step the next q lies in exactly move_size(n) pairs."""
    for n in range(5, 13):
        for q_order in (lhs_q_order(n), rhs_q_order(n)):
            t = initial_triangulation(n)
            for q in q_order:
                move = derive_move(t, q)  # raises if the count is wrong
                assert len(move.b_set) == move_size(n)
                t = apply_move(t, move)


def test_json_shapes():
    move = derive_move(initial_triangulation(5), 2)
    assert move.to_json_dict() == {"q": 2, "b": [3, 5], "c": [1, 4]}
    assert initial_triangulation(5).pairs == (Pair(4, 5, 5), Pair(2, 5, 5), Pair(2, 3, 5))
