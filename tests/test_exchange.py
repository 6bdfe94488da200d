"""Extended exchange matrix mutation and green sequence search."""

import itertools

import pytest

from greenseq import exchange
from greenseq.cli import _sequence_json
from greenseq.errors import InvalidQuiverError, SearchBudgetExceeded

# The worked six-step chain on the cyclic triangle: mutate at 3, 2, 3, 1, 3.
# Each entry is rows() of the 6x3 extended matrix, B stacked over C.
CHAIN_VERTICES = (3, 2, 3, 1, 3)

CHAIN_MATRICES = (
    ((0, -1, 1), (1, 0, -1), (-1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, -1), (0, 0, 1), (1, -1, 0), (1, 0, 0), (0, 1, 0), (0, 1, -1)),
    ((0, 0, -1), (0, 0, -1), (1, 1, 0), (1, 0, 0), (0, -1, 1), (0, -1, 0)),
    ((0, 0, 1), (0, 0, 1), (-1, -1, 0), (1, 0, 0), (1, 0, -1), (0, -1, 0)),
    ((0, 0, -1), (0, 0, 1), (1, -1, 0), (-1, 0, 1), (-1, 0, 0), (0, -1, 0)),
    ((0, -1, 1), (1, 0, -1), (-1, 1, 0), (0, 0, -1), (-1, 0, 0), (0, -1, 0)),
)

CONSUMED = ((0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0))

GREEN_AT_STEP = ([1, 2, 3], [1, 2], [1, 3], [1], [3], [])


def greens(qp, m):
    return [v for v in qp.quiver.vertices if exchange.is_green(m, qp.quiver.pos(v))]


def test_matrix_chain_golden(a3_qp):
    m = exchange.initial_seed(a3_qp.quiver)
    assert m.rows() == CHAIN_MATRICES[0]
    for step, v in enumerate(CHAIN_VERTICES):
        assert greens(a3_qp, m) == GREEN_AT_STEP[step]
        k = a3_qp.quiver.pos(v)
        assert exchange.c_vector(m, k) == CONSUMED[step]
        m = exchange.mutate(m, k)
        assert m.rows() == CHAIN_MATRICES[step + 1]
    assert greens(a3_qp, m) == []


def test_mutate_is_an_involution(a3_qp):
    m = exchange.initial_seed(a3_qp.quiver)
    for k in range(3):
        assert exchange.mutate(exchange.mutate(m, k), k) == m


def test_mutate_rejects_bad_index(a3_qp):
    m = exchange.initial_seed(a3_qp.quiver)
    with pytest.raises(IndexError):
        exchange.mutate(m, 5)
    with pytest.raises(IndexError):
        exchange.is_green(m, -4)


def test_initial_seed_from_matrix_matches_quiver_seed(a3_qp):
    from greenseq.qp import b_matrix

    direct = exchange.initial_seed_from_matrix(b_matrix(a3_qp.quiver))
    assert direct == exchange.initial_seed(a3_qp.quiver)


@pytest.mark.parametrize(
    "b, message",
    [
        ([[0, 1], [-1]], "square"),
        ([[0, 1]], "square"),
        ([[0], [0, 0]], "square"),
        ([[0, 1], [1, 0]], "skew-symmetric"),
    ],
    ids=["short-row", "wide", "long-row", "symmetric"],
)
def test_initial_seed_from_matrix_rejects_bad_matrices(b, message):
    with pytest.raises(InvalidQuiverError, match=message):
        exchange.initial_seed_from_matrix(b)


def test_a3_census(a3_qp):
    seed = exchange.initial_seed(a3_qp.quiver)
    seqs = exchange.enumerate_green_sequences(seed)
    assert len(seqs) == 9
    lengths = sorted(len(s.mutation_indices) for s in seqs)
    assert lengths == [4] * 6 + [5] * 3
    summary = exchange.mgs_summary(seed)
    assert (summary.min_len, summary.max_len) == (4, 5)
    assert len(exchange.equivalence_classes(seqs)) == 6


def test_a3_every_sequence_ends_with_no_green(a3_qp):
    seed = exchange.initial_seed(a3_qp.quiver)
    for seq in exchange.enumerate_green_sequences(seed):
        m = seed
        for k in seq.mutation_indices:
            assert exchange.is_green(m, k)
            m = exchange.mutate(m, k)
        assert not any(exchange.is_green(m, k) for k in range(m.n))


def test_green_sequence_json(a3_qp):
    # the listing writes the sequence's own tuples, with no list copies
    seed = exchange.initial_seed(a3_qp.quiver)
    seq = exchange.enumerate_green_sequences(seed)[0]
    js = _sequence_json(a3_qp.quiver, seq)
    assert js["length"] == len(seq.mutation_indices)
    assert js["indices"] is seq.mutation_indices
    assert js["c_vectors"] is seq.c_vectors
    assert js["vertices"] == [a3_qp.quiver.vertices[k] for k in seq.mutation_indices]


def test_replay_c_vector_sequence(a3_qp):
    seed = exchange.initial_seed(a3_qp.quiver)
    gs, final = exchange.replay_c_vector_sequence(seed, CONSUMED)
    assert gs.mutation_indices == (2, 1, 2, 0, 2)
    assert gs.c_vectors == CONSUMED
    assert not any(exchange.is_green(final, k) for k in range(3))


def test_replay_rejects_unreachable_c_vector(a3_qp):
    seed = exchange.initial_seed(a3_qp.quiver)
    with pytest.raises(ValueError, match="step 0"):
        exchange.replay_c_vector_sequence(seed, [(0, 1, 1)])


def test_budget_exhaustion_carries_partial_results(a3_qp):
    seed = exchange.initial_seed(a3_qp.quiver)
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.enumerate_green_sequences(seed, budget=3)
    assert info.value.partial is not None


def test_d4_census(d4_qp):
    seed = exchange.initial_seed(d4_qp.quiver)
    seqs = exchange.enumerate_green_sequences(seed)
    assert len(seqs) == 112
    summary = exchange.mgs_summary(seed)
    assert (summary.min_len, summary.max_len) == (6, 9)
    classes = exchange.equivalence_classes(seqs)
    assert len(classes) == 42
    longest = [key for key, members in classes.items() if len(members[0].mutation_indices) == 9]
    assert len(longest) == 4


def test_d4_minimum_against_raw_product_search(d4_qp):
    # Independent check that no maximal green sequence on the cyclic
    # four-vertex quiver is shorter than six: try every raw index word.
    seed = exchange.initial_seed(d4_qp.quiver)

    def is_mgs(word):
        m = seed
        for k in word:
            if not exchange.is_green(m, k):
                return False
            m = exchange.mutate(m, k)
        return not any(exchange.is_green(m, k) for k in range(4))

    assert not any(
        is_mgs(word)
        for length in range(1, 6)
        for word in itertools.product(range(4), repeat=length)
    )
    assert sum(1 for word in itertools.product(range(4), repeat=6) if is_mgs(word)) == 32


def test_a5_extrema(a5_qp):
    seed = exchange.initial_seed(a5_qp.quiver)
    summary = exchange.mgs_summary(seed)
    assert (summary.min_len, summary.max_len) == (7, 13)
