"""The fraction-free simplex of `walls.rational_feasible` against the Fraction
simplex it replaced, kept here as the reference.

`rational_feasible` takes inequalities only, so each generated equation
a.x = b is passed to both as the two rows a.x <= b and -a.x <= -b, and the
reference is called with no equations.
"""

import random
from fractions import Fraction

import pytest

from greenseq import walls
from greenseq.walls import rational_feasible


def reference_feasible(n, eqs, ineqs, path=None):
    """Phase-1 simplex over Fractions with Bland's rule: the previous
    implementation of `rational_feasible`, unchanged but for its name and
    `path`, a list to which it appends each entering column, if given."""
    m = len(ineqs)
    width = 2 * n + m
    rows = []
    rhs = []
    for a, b in list(eqs) + list(ineqs):
        if len(a) != n:
            raise ValueError("constraint arity mismatch")
    for a, b in eqs:
        row = [Fraction(c) for c in a] + [-Fraction(c) for c in a] + [Fraction(0)] * m
        rows.append(row)
        rhs.append(Fraction(b))
    for idx, (a, b) in enumerate(ineqs):
        row = [Fraction(c) for c in a] + [-Fraction(c) for c in a] + [Fraction(0)] * m
        row[2 * n + idx] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(b))
    ncons = len(rows)
    for i in range(ncons):
        if rhs[i] < 0:
            rows[i] = [-c for c in rows[i]]
            rhs[i] = -rhs[i]
    total = width + ncons
    tableau = []
    for i in range(ncons):
        row = rows[i] + [Fraction(0)] * ncons + [rhs[i]]
        row[width + i] = Fraction(1)
        tableau.append(row)
    basis = [width + i for i in range(ncons)]
    cost = [Fraction(0)] * width + [Fraction(1)] * ncons

    while True:
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            r = cost[j]
            for i in range(ncons):
                if cost[basis[i]]:
                    r -= cost[basis[i]] * tableau[i][j]
            if r < 0:
                entering = j
                break
        if entering < 0:
            break
        if path is not None:
            path.append(entering)
        leaving = -1
        best = None
        for i in range(ncons):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 simplex reported unboundedness")
        piv = tableau[leaving][entering]
        tableau[leaving] = [c / piv for c in tableau[leaving]]
        for i in range(ncons):
            if i == leaving:
                continue
            f = tableau[i][entering]
            if f:
                tableau[i] = [c - f * d for c, d in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering

    objective = sum((cost[basis[i]] * tableau[i][total] for i in range(ncons)), Fraction(0))
    if objective != 0:
        return None
    values = [Fraction(0)] * total
    for i in range(ncons):
        values[basis[i]] = tableau[i][total]
    return tuple(values[j] - values[n + j] for j in range(n))


def random_system(rng):
    """A small integer system; zero, repeated and opposite rows and zero
    bounds make degenerate pivots, and opposite rows with negative bounds
    make infeasible systems."""
    n = rng.randint(1, 5)
    span = rng.choice([1, 2, 5])

    def row():
        return [rng.randint(-span, span) for _ in range(n)]

    eqs = [(row(), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
    ineqs = [
        (row(), rng.choice([-1, 0, 0, rng.randint(-4, 4)])) for _ in range(rng.randint(0, 2 * n))
    ]
    if ineqs and rng.random() < 0.3:
        a, b = rng.choice(ineqs)
        ineqs.append((list(a), b))
    if ineqs and rng.random() < 0.3:
        a, b = rng.choice(ineqs)
        ineqs.append(([-c for c in a], rng.choice([-b - 1, -b, 0])))
    if rng.random() < 0.1:
        ineqs.append(([0] * n, rng.choice([-1, 0])))
    return n, eqs, ineqs


def as_inequalities(eqs, ineqs):
    """The rows of a system, each equation as two opposite inequalities."""
    rows = []
    for a, b in eqs:
        rows += [(a, b), ([-c for c in a], -b)]
    return rows + list(ineqs)


@pytest.fixture
def entering_path(monkeypatch):
    """The entering columns of each `rational_feasible` call, in order."""
    path = []
    scan = walls._entering

    def spy(*args):
        step = scan(*args)
        if step is not None:
            path.append(step[0])
        return step

    monkeypatch.setattr(walls, "_entering", spy)
    return path


def test_matches_the_fraction_simplex_on_random_systems():
    rng = random.Random(20170620)
    feasible = infeasible = 0
    for _ in range(600):
        n, eqs, ineqs = random_system(rng)
        rows = as_inequalities(eqs, ineqs)
        got = rational_feasible(n, rows)
        assert got == reference_feasible(n, [], rows), (n, rows)
        if got is None:
            infeasible += 1
        else:
            assert all(isinstance(c, Fraction) for c in got)
            feasible += 1
    assert feasible > 200 and infeasible > 200


def a9_sized_system(rng):
    """A system the size of an a9 wall search: up to 9 unknowns and 40
    inequalities, and up to 3 equations.

    Most rows hold at a random integer point, many of them with equality,
    so pivots are often degenerate; a few miss it, which makes some systems
    infeasible. The bounds take both signs, so the simplex negates some
    rows and not others. Repeated, opposite and zero rows are mixed in.
    """
    n = rng.randint(1, 9)
    span = rng.choice([1, 2, 3])
    point = [rng.randint(-3, 3) for _ in range(n)]

    def row():
        return [rng.randint(-span, span) for _ in range(n)]

    def at(a):
        return sum(c * x for c, x in zip(a, point))

    eqs = []
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        a = row()
        eqs.append((a, at(a) + rng.choice([0, 0, 0, 0, 1])))
    ineqs = []
    for _ in range(rng.randint(0, 36)):
        a = row()
        margin = -1 if rng.random() < 0.05 else rng.choice([0, 0, 1, 2, 5])
        ineqs.append((a, at(a) + margin))
    for a, b in list(ineqs):
        pick = rng.random()
        if pick < 0.05:
            ineqs.append((list(a), b))
        elif pick < 0.1:
            ineqs.append(([-c for c in a], -b + rng.choice([-1, 0, 0, 3])))
        elif pick < 0.12:
            ineqs.append(([0] * n, rng.choice([-1, 0, 1])))
    del ineqs[40:]
    rng.shuffle(ineqs)
    return n, eqs, ineqs


def test_pivots_are_those_of_the_fraction_simplex(entering_path):
    # the same x can come from another pivot path, so the path is compared
    # too: a wrong reduced cost after an artificial enters, for one, moved
    # the path of 461 of 6,000 random systems and the x of none
    rng = random.Random(1706)
    for _ in range(300):
        n, eqs, ineqs = random_system(rng)
        rows = as_inequalities(eqs, ineqs)
        entering_path.clear()
        expected = []
        assert rational_feasible(n, rows) == reference_feasible(n, [], rows, expected)
        assert entering_path == expected, (n, rows)


def test_matches_the_fraction_simplex_on_a9_sized_systems(entering_path):
    # the Fraction reference takes about 0.1 s on one of these, so there
    # are few of them
    rng = random.Random(1706065)
    outcomes = []
    large = both_signs = with_eqs = 0
    for _ in range(30):
        n, eqs, ineqs = a9_sized_system(rng)
        rows = as_inequalities(eqs, ineqs)
        entering_path.clear()
        expected = []
        got = rational_feasible(n, rows)
        assert got == reference_feasible(n, [], rows, expected), (n, rows)
        assert entering_path == expected, (n, rows)
        outcomes.append(got is None)
        large += len(ineqs) >= 30
        both_signs += {b < 0 for _, b in ineqs} == {True, False}
        with_eqs += bool(eqs)
    assert 5 <= sum(outcomes) <= 25
    assert large >= 5 and both_signs >= 20 and with_eqs >= 10


def test_rows_must_be_integers():
    with pytest.raises(TypeError, match="integers"):
        rational_feasible(1, [([Fraction(1, 2)], -1)])
    with pytest.raises(TypeError, match="integers"):
        rational_feasible(1, [([1], Fraction(1, 2))])
    with pytest.raises(ValueError, match="arity"):
        rational_feasible(2, [([1], -1)])
