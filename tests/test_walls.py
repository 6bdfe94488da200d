"""Wall geometry: crossing sequences, compartments, and stratifications."""

import hashlib
import random
from fractions import Fraction

import pytest

import greenseq
from greenseq import exchange
from greenseq.errors import GenericityError
from greenseq.fho import enumerate_maximal_fho, is_maximal_fho, verify_theorem1
from greenseq.rep import projective, submodule_dimvecs
from greenseq.walls import (
    catalog_walls,
    compartment_cvectors,
    compartment_signature,
    crossing_sequence,
    crossing_time,
    crossings_to_json,
    d_full_rank,
    find_base_for_sequence,
    hn_stratification,
    in_D,
    in_int_D,
    random_generic_base,
    random_rational_base,
    realize_sequence,
    wall_for,
)

import common

FIVE_DIMS = [(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0)]


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def test_wall_normals_and_submodule_faces(a3_catalog):
    w = wall_for(a3_catalog.by_label("2<3"))
    assert w.normal == (0, 1, 1)
    # the submodule dims (0,0,0), (0,1,0), (0,1,1) without the zero and full ones
    assert w.faces == ((0, 1, 0),)
    assert in_D(w, frac(5, -1, 1))
    assert not in_D(w, frac(0, 1, -1))
    assert in_int_D(w, frac(5, -1, 1))
    assert not in_int_D(w, frac(5, 0, 0))


def test_d_full_rank(a3_catalog, nakayama_algebra):
    for m in a3_catalog.modules:
        assert d_full_rank(m)
    assert not d_full_rank(projective(nakayama_algebra, 1))


def test_crossing_time_is_exact():
    assert crossing_time(frac(0, 1, 2), (0, 1, 1)) == Fraction(-3, 2)
    assert crossing_time(frac(-12, -5, -9), (1, 1, 0)) == Fraction(17, 2)


def test_five_wall_path(a3_catalog):
    records = crossing_sequence(frac(0, 1, 2), a3_catalog)
    assert [r.module.label for r in records] == ["3", "2<3", "2", "1<2", "1"]
    assert [r.time for r in records] == [
        Fraction(-2),
        Fraction(-3, 2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
    ]
    assert all(r.interior for r in records)
    assert [tuple(r.module.dims) for r in records] == FIVE_DIMS


def test_four_wall_path(a3_catalog):
    records = crossing_sequence(frac(-12, -5, -9), a3_catalog)
    assert [(r.module.label, r.time) for r in records] == [
        ("2", Fraction(5)),
        ("1<2", Fraction(17, 2)),
        ("3", Fraction(9)),
        ("1", Fraction(12)),
    ]


def test_degenerate_bases_are_rejected(a3_catalog):
    with pytest.raises(GenericityError, match="collide"):
        crossing_sequence(frac(-3, -4, -5), a3_catalog)
    with pytest.raises(GenericityError):
        crossing_sequence(frac(0, 0, 0), a3_catalog)


def test_crossings_json(a3_catalog):
    records = crossing_sequence(frac(0, 1, 2), a3_catalog)
    js = crossings_to_json(records)
    assert js[1] == {
        "t": "-3/2",
        "module": "2<3",
        "dims": [0, 1, 1],
        "interior": True,
    }


def test_realize_the_five_wall_sequence(a3_catalog):
    out = realize_sequence(a3_catalog, FIVE_DIMS, random.Random(0))
    assert out is not None
    base, records = out
    assert [tuple(r.module.dims) for r in records] == FIVE_DIMS
    again = find_base_for_sequence(a3_catalog, FIVE_DIMS)
    assert again is not None


def test_sequences_given_as_lists_are_realized(a3_qp, a3_catalog):
    # the JSON report lists each sequence's dims as lists, not tuples
    report = verify_theorem1(a3_qp, a3_catalog)
    assert len(report["sequences"]) == 9
    for seq in report["sequences"]:
        assert isinstance(seq[0], list)
        assert realize_sequence(a3_catalog, seq, random.Random(0)) is not None


def test_reversed_sequence_is_not_realizable(a3_catalog):
    assert realize_sequence(a3_catalog, FIVE_DIMS[::-1], random.Random(0)) is None


def test_compartment_signatures(a3_qp, a3_catalog):
    seed = exchange.initial_seed(a3_qp.quiver)
    base = frac(-5, -7, -11)
    assert compartment_signature(base, a3_catalog) == ()
    assert compartment_cvectors(base, a3_catalog, seed) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    final = frac(5, 7, 11)
    assert compartment_signature(final, a3_catalog) == tuple(FIVE_DIMS)
    assert all(
        all(x <= 0 for x in c) for c in compartment_cvectors(final, a3_catalog, seed)
    )
    middle = frac(2, -3, -7)
    assert compartment_signature(middle, a3_catalog) == ((1, 0, 0),)
    assert compartment_cvectors(middle, a3_catalog, seed) == (
        (-1, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
    )


def test_compartment_rejects_points_on_walls(a3_catalog):
    with pytest.raises(GenericityError, match="wall"):
        compartment_signature(frac(0, 1, 2), a3_catalog)


def test_hn_stratification(a3_catalog):
    five = crossing_sequence(frac(0, 1, 2), a3_catalog)
    four = crossing_sequence(frac(-12, -5, -9), a3_catalog)
    m6 = a3_catalog.by_label("1>3")
    m23 = a3_catalog.by_label("2<3")
    assert [(s.time, s.normal, s.multiple) for s in hn_stratification(m6, five)] == [
        (Fraction(-2), (0, 0, 1), 1),
        (Fraction(0), (1, 0, 0), 1),
    ]
    assert [(s.time, s.normal, s.multiple) for s in hn_stratification(m23, four)] == [
        (Fraction(5), (0, 1, 0), 1),
        (Fraction(9), (0, 0, 1), 1),
    ]
    assert [(s.time, s.normal, s.multiple) for s in hn_stratification(m6, four)] == [
        (Fraction(9), (0, 0, 1), 1),
        (Fraction(12), (1, 0, 0), 1),
    ]
    # A module whose own wall is crossed is stable there: a single stratum.
    m2 = a3_catalog.by_label("2")
    assert [(s.normal, s.multiple) for s in hn_stratification(m2, four)] == [
        ((0, 1, 0), 1)
    ]


def test_hn_times_strictly_increase(a3_catalog):
    records = crossing_sequence(frac(-12, -5, -9), a3_catalog)
    for m in a3_catalog.modules:
        strata = hn_stratification(m, records)
        times = [s.time for s in strata]
        assert times == sorted(set(times))
        assert sum(s.multiple * sum(s.normal) for s in strata) == m.total_dim


def test_random_generic_base_is_deterministic(a3_catalog):
    b1, r1 = random_generic_base(a3_catalog, random.Random(7))
    b2, r2 = random_generic_base(a3_catalog, random.Random(7))
    assert b1 == b2
    assert [c.module.label for c in r1] == [c.module.label for c in r2]


@pytest.mark.parametrize("retries", [0, -1])
def test_random_generic_base_needs_a_retry(a3_catalog, retries):
    with pytest.raises(ValueError, match="retries must be at least 1"):
        random_generic_base(a3_catalog, random.Random(7), retries=retries)


def test_random_bases_yield_maximal_sequences(a3_catalog):
    rng = random.Random(3)
    for _ in range(25):
        base, records = random_generic_base(a3_catalog, rng)
        mods = [r.module for r in records]
        assert is_maximal_fho(mods, a3_catalog)


def test_random_rational_base_shape():
    rng = random.Random(1)
    base = random_rational_base(rng, 5)
    assert len(base) == 5
    assert all(isinstance(x, Fraction) for x in base)


def _reference_crossings(base, modules, subs):
    """(time, module, point, on wall, interior) for each module, straight from
    the definition of D(M) over its submodule dimension vectors."""
    out = []
    for m, sub in zip(modules, subs):
        t = -sum(b * c for b, c in zip(base, m.dims)) / sum(m.dims)
        pt = tuple(b + t for b in base)

        def dot(d):
            return sum(x * c for x, c in zip(pt, d))

        assert dot(m.dims) == 0
        on = all(dot(d) <= 0 for d in sub)
        proper = [d for d in sub if any(d) and d != m.dims]
        out.append((t, m, pt, on, on and all(dot(d) < 0 for d in proper)))
    return out


@pytest.mark.parametrize("name", ["a3_cyclic", "d4_cyclic", "a5_example"])
def test_sign_pass_matches_the_wall_definition(name):
    catalog = common.catalog(name)
    modules = [catalog.modules[i] for i in catalog.schurian_indices()]
    subs = [submodule_dimvecs(m) for m in modules]
    walls = catalog_walls(catalog)
    n = catalog.algebra.quiver.n
    rng = random.Random(11)
    seen = set()
    for k in range(30):
        # small integer bases put crossing points on wall boundaries and make
        # crossing times collide; the others are generic
        if k % 2:
            base = random_rational_base(rng, n)
        else:
            base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        ref = _reference_crossings(base, modules, subs)
        for wall, (t, m, pt, on, interior) in zip(walls, ref):
            assert wall.module is m
            assert in_D(wall, pt) == on
            assert in_int_D(wall, pt) == interior
            seen.add((on, interior))
        crossed = sorted((r for r in ref if r[3]), key=lambda r: r[0])
        collisions = [(a[1], b[1]) for a, b in zip(crossed, crossed[1:]) if a[0] == b[0]]
        if collisions:
            with pytest.raises(GenericityError, match="collide") as info:
                crossing_sequence(base, catalog)
            assert info.value.colliding == collisions[0]
        elif not all(r[4] for r in crossed):
            with pytest.raises(GenericityError, match="boundary"):
                crossing_sequence(base, catalog)
        else:
            records = crossing_sequence(base, catalog)
            assert [(r.time, r.module, r.interior) for r in records] == [
                (t, m, True) for t, m, _, _, _ in crossed
            ]
    assert seen == {(False, False), (True, False), (True, True)}


def test_hn_stratification_without_crossings_raises(a3_catalog):
    assert "FiltrationError" in greenseq.__all__
    with pytest.raises(greenseq.FiltrationError, match="no stratification"):
        hn_stratification(a3_catalog.by_label("2<3"), [])


def test_compartment_cvectors_rejects_a_seed_that_disagrees(a3_qp, a3_catalog):
    seed = exchange.mutate(exchange.initial_seed(a3_qp.quiver), 0)
    with pytest.raises(ValueError, match="no green vertex"):
        compartment_cvectors(frac(5, 7, 11), a3_catalog, seed)


@pytest.mark.parametrize(
    "name, count, digest",
    [
        (
            "d4_cyclic",
            112,
            "5b558c79057d42b025299fc2c7350c6e81b1d2be67d69b9196c9063d85cf4ae4",
        ),
        (
            "a5_example",
            200,
            "fd265895305eb12b08e3e6e28622279cb1c76ebe6abdfc191a573ab6f864f12a",
        ),
    ],
)
def test_simplex_bases_are_pinned(name, count, digest):
    # the bases come from the exact simplex, so any change to its pivots
    # (or to the constraint rows and their order) changes these digests
    catalog = common.catalog(name)
    keys = sorted(s.dim_vectors for s in enumerate_maximal_fho(catalog))[:count]
    assert len(keys) == count
    h = hashlib.sha256()
    for key in keys:
        base = find_base_for_sequence(catalog, key)
        h.update(repr(None if base is None else [str(c) for c in base]).encode())
    assert h.hexdigest() == digest
