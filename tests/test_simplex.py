"""The fraction-free simplex of `walls.rational_feasible` against the Fraction
simplex it replaced, kept here as the reference."""

import random
from fractions import Fraction

import pytest

from greenseq.walls import rational_feasible


def reference_feasible(n, eqs, ineqs):
    """Phase-1 simplex over Fractions with Bland's rule: the previous
    implementation of `rational_feasible`, unchanged but for its name."""
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


def test_matches_the_fraction_simplex_on_random_systems():
    rng = random.Random(20170620)
    feasible = infeasible = 0
    for _ in range(600):
        n, eqs, ineqs = random_system(rng)
        got = rational_feasible(n, eqs, ineqs)
        assert got == reference_feasible(n, eqs, ineqs), (n, eqs, ineqs)
        if got is None:
            infeasible += 1
        else:
            assert all(isinstance(c, Fraction) for c in got)
            feasible += 1
    assert feasible > 200 and infeasible > 200


def test_rows_must_be_integers():
    with pytest.raises(TypeError, match="integers"):
        rational_feasible(1, [], [([Fraction(1, 2)], -1)])
    with pytest.raises(TypeError, match="integers"):
        rational_feasible(1, [([1], Fraction(1, 2))], [])
    with pytest.raises(ValueError, match="arity"):
        rational_feasible(2, [], [([1], -1)])
