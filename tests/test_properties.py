"""Bulk invariant checks with fixed seeds.

The heavy suites live in cached helper functions returning the number of
instances they checked, so the acceptance tests can reuse the same runs.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from greenseq import exchange
from greenseq.bounds import is_alternating
from greenseq.errors import GenericityError
from greenseq.fho import is_maximal_fho, enumerate_maximal_fho
from greenseq.io import fraction_from_str, fraction_to_str
from greenseq.qp import (
    PotentialTerm,
    QuiverWithPotential,
    combine_terms,
    jacobian_relations,
)
from greenseq.qp_mutation import mutate_qp
from greenseq.reflect import (
    find_isomorphism,
    phi_k,
    psi_k,
    psi_k_inverse,
    reflection_context,
)
from greenseq.rep import hom_dim, simple
from greenseq.walls import (
    compartment_signature,
    crossing_sequence,
    find_base_for_sequence,
    random_rational_base,
    realize_sequence,
)

import common

ALL_FOUR = ("a3_cyclic", "d4_cyclic", "a5_example", "a9_example")
SMALL = ("a3_cyclic", "d4_cyclic", "a5_example")


@lru_cache(maxsize=None)
def mutation_walk_suite():
    """Random green walks: involution at every step, sign-coherent columns."""
    walks = 0
    for name in ALL_FOUR:
        quiver = common.problem(name).qp.quiver
        start = exchange.initial_seed(quiver)
        rng = random.Random(17)
        for _ in range(60):
            m = start
            for _step in range(200):
                for k in range(m.n):
                    col = exchange.c_vector(m, k)
                    assert any(col)
                    assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
                greens = [k for k in range(m.n) if exchange.is_green(m, k)]
                if not greens:
                    break
                k = rng.choice(greens)
                nxt = exchange.mutate(m, k)
                assert exchange.mutate(nxt, k) == m
                m = nxt
            else:
                raise AssertionError("green walk did not terminate")
            walks += 1
    return walks


@lru_cache(maxsize=None)
def reflection_suite():
    """All reflections of all catalog modules: dims follow the linear rule,
    round trips are isomorphisms, Hom dimensions are preserved."""
    checked = 0
    for name in SMALL:
        qp = common.problem(name).qp
        alg = common.algebra(name)
        cat = common.catalog(name)
        for k in qp.quiver.vertices:
            ctx = reflection_context(qp, k)
            s = simple(alg, k)
            legal = [m for m in cat.modules if hom_dim(s, m) == 0]
            images = []
            for m in legal:
                y = psi_k(ctx, m)
                assert y.dims == phi_k(m.dims, qp.quiver, k)
                assert find_isomorphism(m, psi_k_inverse(ctx, y)) is not None
                images.append(y)
                checked += 1
            for (m1, y1), (m2, y2) in itertools.product(zip(legal, images), repeat=2):
                assert hom_dim(m1, m2) == hom_dim(y1, y2)
                checked += 1
    return checked


@lru_cache(maxsize=None)
def rotation_suite():
    """Rotating potential cycles changes neither the relations nor any
    mutation, up to the canonical form of the potential."""
    checked = 0
    for name in ALL_FOUR:
        qp = common.problem(name).qp
        base = {(r.arrow, r.terms) for r in jacobian_relations(qp)}
        offsets = [range(len(t.cycle)) for t in qp.potential]
        for combo in itertools.product(*offsets):
            if not any(combo):
                continue
            terms = tuple(
                PotentialTerm(t.coeff, t.cycle[r:] + t.cycle[:r])
                for t, r in zip(qp.potential, combo)
            )
            rotated = QuiverWithPotential(quiver=qp.quiver, potential=terms)
            rels = {(r.arrow, r.terms) for r in jacobian_relations(rotated)}
            assert rels == base
            for v in qp.quiver.vertices:
                ma, mb = mutate_qp(qp, v), mutate_qp(rotated, v)
                assert sorted(a.id for a in ma.quiver.arrows) == sorted(
                    a.id for a in mb.quiver.arrows
                )
                assert combine_terms(ma.potential) == combine_terms(mb.potential)
                checked += 1
    return checked


def _generic_bases(name, rng, count):
    cat = common.catalog(name)
    n = common.problem(name).qp.quiver.n
    out = []
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        base = random_rational_base(rng, n)
        try:
            records = crossing_sequence(base, cat)
        except GenericityError:
            continue
        out.append((base, records))
    assert len(out) == count
    return out


@lru_cache(maxsize=None)
def first_crossing_suite():
    """The first retained crossing of a generic path is a simple wall."""
    checked = 0
    quotas = {"a3_cyclic": 80, "d4_cyclic": 60, "a5_example": 50, "a9_example": 20}
    for name, count in quotas.items():
        rng = random.Random(23)
        for _base, records in _generic_bases(name, rng, count):
            assert records
            assert records[0].module.total_dim == 1
            checked += 1
    return checked


# The four sequences on the cyclic four-vertex quiver whose time-order
# system is infeasible: no straight generic path crosses their walls in the
# stated order, even though each is a valid maximal sequence. They form one
# orbit under the rotational symmetry of the quiver.
D4_UNREALIZABLE = {
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
    ((0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)),
    ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 0, 1), (0, 1, 0, 0)),
}


@lru_cache(maxsize=None)
def crossing_fho_suite():
    """Crossing sequences are maximal hom-orthogonal sequences. In the
    reverse direction every maximal sequence on the triangle is realized by
    some generic base; on the four-cycle exactly four sequences are not,
    and for those the realization search proves it by linear infeasibility."""
    checked = 0
    quotas = {"a3_cyclic": 60, "d4_cyclic": 60, "a5_example": 60, "a9_example": 20}
    for name, count in quotas.items():
        cat = common.catalog(name)
        rng = random.Random(29)
        for _base, records in _generic_bases(name, rng, count):
            assert is_maximal_fho([r.module for r in records], cat)
            checked += 1
    a3 = common.catalog("a3_cyclic")
    for seq in enumerate_maximal_fho(a3):
        assert realize_sequence(a3, [m.dims for m in seq], random.Random(31)) is not None
        checked += 1
    d4 = common.catalog("d4_cyclic")
    unrealized = set()
    for seq in enumerate_maximal_fho(d4):
        dims = tuple(m.dims for m in seq)
        if find_base_for_sequence(d4, dims) is None:
            unrealized.add(dims)
        else:
            assert realize_sequence(d4, dims, random.Random(41)) is not None
        checked += 1
    assert unrealized == D4_UNREALIZABLE
    # On the five-vertex example the unrealizable fraction is large; spot
    # check that realization succeeds exactly on the feasible ones.
    a5 = common.catalog("a5_example")
    sample = random.Random(5).sample(enumerate_maximal_fho(a5), 25)
    feasible = [
        s for s in sample if find_base_for_sequence(a5, tuple(m.dims for m in s)) is not None
    ]
    assert len(feasible) == 15
    for s in feasible:
        assert realize_sequence(a5, tuple(m.dims for m in s), random.Random(7)) is not None
        checked += 1
    return checked


@lru_cache(maxsize=None)
def midpoint_suite():
    """Midpoints of same-compartment pairs stay in that compartment."""
    checked = 0
    plans = (("a3_cyclic", 500), ("d4_cyclic", 300), ("a5_example", 300))
    for name, quota in plans:
        cat = common.catalog(name)
        n = common.problem(name).qp.quiver.n
        rng = random.Random(43)
        buckets = {}
        # Draw until enough same-compartment pairs exist; the larger examples
        # have many compartments, so the count needed varies by quiver.
        pairs_available = 0
        draws = 0
        while pairs_available < quota and draws < 6000:
            base = random_rational_base(rng, n)
            try:
                sig = compartment_signature(base, cat)
            except GenericityError:
                continue
            members = buckets.setdefault(sig, [])
            pairs_available += len(members)
            members.append(base)
            draws += 1
        done = 0
        for sig, members in sorted(buckets.items()):
            for x, y in itertools.combinations(members, 2):
                if done >= quota:
                    break
                mid = tuple((a + b) / 2 for a, b in zip(x, y))
                assert compartment_signature(mid, cat) == sig
                done += 1
            if done >= quota:
                break
        assert done >= quota
        checked += done
    return checked


@lru_cache(maxsize=None)
def field_independence_suite():
    """Catalogs, Hom tables, and crossing sequences agree over F_2 and F_3."""
    checked = 0
    for name in ALL_FOUR:
        c2 = common.catalog(name, 2)
        c3 = common.catalog(name, 3)
        assert common.labels(c2) == common.labels(c3)
        two = sorted(c2.modules, key=lambda m: m.label)
        three = sorted(c3.modules, key=lambda m: m.label)
        for m2, m3 in zip(two, three):
            assert m2.dims == m3.dims
        for m2, m3 in zip(two, three):
            for n2, n3 in zip(two, three):
                assert hom_dim(m2, n2) == hom_dim(m3, n3)
                checked += 1
        n = common.problem(name).qp.quiver.n
        rng = random.Random(47)
        hits = 0
        while hits < 5:
            base = random_rational_base(rng, n)
            try:
                r2 = crossing_sequence(base, c2)
                r3 = crossing_sequence(base, c3)
            except GenericityError:
                continue
            assert [(r.time, r.module.label) for r in r2] == [
                (r.time, r.module.label) for r in r3
            ]
            hits += 1
            checked += 1
    return checked


def test_mutation_walks():
    assert mutation_walk_suite() == 240


def test_reflections():
    assert reflection_suite() >= 200


def test_potential_rotations():
    assert rotation_suite() >= 200


def test_first_crossings():
    assert first_crossing_suite() == 210


def test_crossings_and_sequences():
    assert crossing_fho_suite() >= 200


def test_midpoints():
    assert midpoint_suite() >= 1000


def test_field_independence():
    assert field_independence_suite() >= 200


def test_length_extrema_inequality():
    for name in SMALL:
        js = common.bounds_report(name)
        assert js["min_len"] + js["max_len"] - js["n"] <= js["indec_count"]
    # tight for the two triangulated line quivers
    a3 = common.bounds_report("a3_cyclic")
    assert a3["min_len"] + a3["max_len"] - a3["n"] == a3["indec_count"]
    a5 = common.bounds_report("a5_example")
    assert a5["min_len"] + a5["max_len"] - a5["n"] == a5["indec_count"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=-30, max_value=30)] * 3),
    st.sampled_from((1, 2, 3)),
)
def test_phi_is_an_involution_on_arbitrary_vectors(vec, k):
    # Reflection at a fixed vertex squares to the identity on all of Z^n;
    # the mutated quiver has its own reflection, exercised via psi round trips.
    qp = common.problem("a3_cyclic").qp
    assert phi_k(phi_k(vec, qp.quiver, k), qp.quiver, k) == vec
    mu = mutate_qp(qp, k)
    assert phi_k(phi_k(vec, mu.quiver, k), mu.quiver, k) == vec


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.fractions())
def test_fraction_strings_round_trip(x):
    assert fraction_from_str(fraction_to_str(x)) == x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.text(alphabet="<>", max_size=12))
def test_is_alternating_matches_the_direct_definition(s):
    expected = all(a != b for a, b in zip(s, s[1:]))
    assert is_alternating(s) == expected
