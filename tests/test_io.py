"""Problem file parsing, serialization round trips, eager validation."""

from fractions import Fraction

import pytest

from greenseq.io import (
    fraction_from_str,
    fraction_to_str,
    problem_from_json,
    qp_from_json,
    qp_to_json,
)

import common


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 2)) == "-3/2"
    assert fraction_to_str(Fraction(7)) == "7"
    assert fraction_from_str("-3/2") == Fraction(-3, 2)
    assert fraction_from_str(4) == Fraction(4)
    # decimal strings are exact and therefore allowed
    assert fraction_from_str("1.5") == Fraction(3, 2)


@pytest.mark.parametrize(
    "x",
    [0, 7, -12, 10**40, True, Fraction(-3, 2), Fraction(6, 4), Fraction(-10, 5), Fraction(0, 9)],
)
def test_fraction_to_str_is_the_text_of_the_fraction(x):
    # ints and Fractions skip the Fraction round trip; the text stays
    assert fraction_to_str(x) == str(Fraction(x))


@pytest.mark.parametrize("bad", ["", "x", "1/0", True, None, 1.5, "1e400000000", "2E-3", "1/1e9"])
def test_fraction_rejects_garbage(bad):
    with pytest.raises(ValueError):
        fraction_from_str(bad)


def test_qp_round_trip():
    for name in common.PROBLEM_NAMES:
        qp = common.problem(name).qp
        assert qp_from_json(qp_to_json(qp)) == qp


def test_problem_defaults(a3_qp):
    prob = problem_from_json({"qp": qp_to_json(a3_qp)})
    assert prob.field_prime == 2
    assert prob.search_budget == 1_000_000
    assert prob.rng_seed == 0


def test_problem_validation(a3_qp):
    base = {"qp": qp_to_json(a3_qp)}
    with pytest.raises(ValueError, match="not prime"):
        problem_from_json({**base, "field_prime": 6})
    with pytest.raises(ValueError, match="budget"):
        problem_from_json({**base, "search_budget": 0})
    with pytest.raises(ValueError, match="unknown problem keys"):
        problem_from_json({**base, "extra": 1})


def test_problem_modules_checked_eagerly(a3_qp):
    # no command reads modules, so a problem file may not carry any
    base = {"qp": qp_to_json(a3_qp)}
    bad = {"dims": [1, 1, 1], "mats": {"a": [[1]], "b": [[1]], "g": [[1]]}}
    with pytest.raises(ValueError, match="unknown problem keys"):
        problem_from_json({**base, "modules": [bad]})
    with pytest.raises(ValueError, match="unknown problem keys"):
        problem_from_json({**base, "modules": []})


def test_problem_algebra(a3_qp):
    prob = common.problem("a3_cyclic")
    alg = prob.algebra()
    assert alg.p == prob.field_prime
    assert alg.quiver == prob.qp.quiver
