"""Quivers with potential: relations, validation, and mutation."""

from fractions import Fraction

import pytest

from greenseq.errors import InvalidQuiverError
from greenseq.qp import (
    Arrow,
    PotentialTerm,
    Quiver,
    QuiverWithPotential,
    b_matrix,
    combine_terms,
    jacobian_relations,
)
from greenseq.qp_mutation import mutate_qp
from greenseq import exchange

import common


def arrow_triples(qp):
    return sorted((a.id, a.src, a.tgt) for a in qp.quiver.arrows)


def potential_terms(qp):
    return sorted((t.coeff, t.cycle) for t in combine_terms(qp.potential))


def test_triangle_relations(a3_qp):
    rels = {r.arrow: r.terms for r in jacobian_relations(a3_qp)}
    one = Fraction(1)
    assert rels == {
        "a": ((one, ("g", "b")),),
        "b": ((one, ("a", "g")),),
        "g": ((one, ("b", "a")),),
    }


def test_a5_relations(a5_qp):
    rels = {r.arrow: r.terms for r in jacobian_relations(a5_qp)}
    one = Fraction(1)
    assert rels == {
        "u": ((one, ("al", "ga")),),
        "al": ((one, ("ga", "u")),),
        "ga": ((one, ("u", "al")),),
        "be": ((one, ("v", "de")),),
        "v": ((one, ("de", "be")),),
        "de": ((one, ("be", "v")),),
    }


def test_mutation_at_triangle_vertex_kills_the_potential(a3_qp):
    mu = mutate_qp(a3_qp, 3)
    assert arrow_triples(mu) == [("b*", 2, 3), ("g*", 3, 1)]
    assert mu.potential == ()


def test_mutation_of_four_cycle_golden(d4_qp):
    mu = mutate_qp(d4_qp, 1)
    assert arrow_triples(mu) == [
        ("[da]", 2, 4),
        ("a*", 1, 2),
        ("b", 3, 2),
        ("d*", 4, 1),
        ("g", 4, 3),
    ]
    assert potential_terms(mu) == [
        (Fraction(-1), ("[da]", "d*", "a*")),
        (Fraction(1), ("[da]", "g", "b")),
    ]


def test_double_mutation_returns_the_triangle_with_starred_names(a3_qp):
    back = mutate_qp(mutate_qp(a3_qp, 3), 3)
    assert arrow_triples(back) == [("[g*b*]", 2, 1), ("b**", 3, 2), ("g**", 1, 3)]
    assert [(t.coeff, t.cycle) for t in back.potential] == [
        (Fraction(-1), ("[g*b*]", "g**", "b**"))
    ]


@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_mutation_commutes_with_b_matrix_mutation(name):
    qp = common.problem(name).qp
    for v in qp.quiver.vertices:
        mu = mutate_qp(qp, v)
        seed = exchange.initial_seed_from_matrix(b_matrix(qp.quiver))
        expected = exchange.mutate(seed, qp.quiver.pos(v)).b
        assert b_matrix(mu.quiver) == expected


def test_potential_invariant_under_cycle_rotation(a3_qp):
    rotated = QuiverWithPotential(
        quiver=a3_qp.quiver,
        potential=(PotentialTerm(Fraction(1), ("g", "b", "a")),),
    )
    lhs = {(r.arrow, r.terms) for r in jacobian_relations(a3_qp)}
    rhs = {(r.arrow, r.terms) for r in jacobian_relations(rotated)}
    assert lhs == rhs
    mu_a, mu_b = mutate_qp(a3_qp, 3), mutate_qp(rotated, 3)
    assert arrow_triples(mu_a) == arrow_triples(mu_b)
    assert combine_terms(mu_a.potential) == combine_terms(mu_b.potential)


def test_combine_terms_merges_rotations_and_drops_zeros():
    terms = (
        PotentialTerm(Fraction(1), ("a", "g", "b")),
        PotentialTerm(Fraction(2), ("g", "b", "a")),
        PotentialTerm(Fraction(-3), ("b", "a", "g")),
    )
    assert combine_terms(terms) == ()
    terms = terms[:2]
    (merged,) = combine_terms(terms)
    assert merged.coeff == Fraction(3)


def test_quiver_validation():
    with pytest.raises(InvalidQuiverError, match="duplicate arrow"):
        Quiver(vertices=(1, 2), arrows=(Arrow("x", 1, 2), Arrow("x", 2, 1)))
    with pytest.raises(InvalidQuiverError):
        Quiver(vertices=(1, 2), arrows=(Arrow("x", 1, 3),))


def test_potential_validation():
    q = Quiver(vertices=(1, 2, 3), arrows=(Arrow("x", 1, 2), Arrow("y", 2, 3), Arrow("z", 3, 1)))
    with pytest.raises(InvalidQuiverError, match="composable"):
        QuiverWithPotential(quiver=q, potential=(PotentialTerm(Fraction(1), ("x", "z")),))
    with pytest.raises(KeyError):
        QuiverWithPotential(quiver=q, potential=(PotentialTerm(Fraction(1), ("w",)),))


def test_b_matrix_golden(a3_qp, d4_qp):
    assert b_matrix(a3_qp.quiver) == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert b_matrix(d4_qp.quiver) == (
        (0, -1, 0, 1),
        (1, 0, -1, 0),
        (0, 1, 0, -1),
        (-1, 0, 1, 0),
    )
