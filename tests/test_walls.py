"""Wall geometry: crossing sequences, compartments, and base realization."""

import hashlib
import random
from fractions import Fraction

import pytest

from greenseq import exchange
from greenseq.errors import GenericityError, SearchBudgetExceeded
from greenseq.fho import enumerate_maximal_fho, is_maximal_fho, verify_theorem1
from greenseq.rep import Catalog, submodule_dimvecs
from greenseq.walls import (
    CrossingRecord,
    catalog_walls,
    compartment_signature,
    crossing_sequence,
    crossings_to_json,
    find_base_for_sequence,
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
    # each base below is on the hyperplane, so the path through it meets the
    # wall at t = 0 and the point tested is the base: in the interior, off
    # the wall, and on its boundary
    lone = Catalog(a3_catalog.algebra, (w.module,))
    assert crossing_sequence(frac(5, -1, 1), lone) == [CrossingRecord(0, w.module, True)]
    assert crossing_sequence(frac(0, 1, -1), lone) == []
    with pytest.raises(GenericityError, match="on the wall boundary"):
        crossing_sequence(frac(5, 0, 0), lone)


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


def test_compartment_signatures(a3_catalog):
    assert compartment_signature(frac(-5, -7, -11), a3_catalog) == ()
    assert compartment_signature(frac(5, 7, 11), a3_catalog) == tuple(FIVE_DIMS)
    assert compartment_signature(frac(2, -3, -7), a3_catalog) == ((1, 0, 0),)


def test_compartment_rejects_points_on_walls(a3_catalog):
    # inside the wall of 1: its crossing is at t = 0
    with pytest.raises(GenericityError, match="base lies on the wall of 1") as info:
        compartment_signature(frac(0, 1, 2), a3_catalog)
    assert info.value.colliding == (a3_catalog.by_label("1"),)
    # on the boundary of the wall of 2<3, the one wall of this catalog
    lone = Catalog(a3_catalog.algebra, (a3_catalog.by_label("2<3"),))
    with pytest.raises(GenericityError, match="on the wall boundary") as info:
        compartment_signature(frac(5, 0, 0), lone)
    assert info.value.colliding == lone.modules
    # inside the walls of 1 and 2 at once
    with pytest.raises(GenericityError, match="collide at t=0") as info:
        compartment_signature(frac(0, 0, 5), a3_catalog)
    assert [m.label for m in info.value.colliding] == ["2", "1"]


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
    walls = catalog_walls(catalog).walls
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


def _fraction_crossings(base, catalog):
    """The crossing records of the path through base, or the GenericityError
    it raises, in plain Fraction arithmetic, wall by wall from `wall_for`:
    the rule `crossing_sequence` followed before it read the wall table."""
    records = []
    for i in catalog.schurian_indices():
        wall = wall_for(catalog.modules[i])
        t = -sum(Fraction(b) * c for b, c in zip(base, wall.normal)) / sum(wall.normal)
        pt = [Fraction(b) + t for b in base]
        assert sum(x * c for x, c in zip(pt, wall.normal)) == 0
        values = [sum(x * c for x, c in zip(pt, d)) for d in wall.faces]
        if all(v <= 0 for v in values):
            records.append(CrossingRecord(t, wall.module, all(v < 0 for v in values)))
    records.sort(key=lambda r: r.time)
    for a, b in zip(records, records[1:]):
        if a.time == b.time:
            return GenericityError(
                f"crossing times collide at t={a.time} for "
                f"{a.module.label or a.module.dims} and {b.module.label or b.module.dims}",
                colliding=(a.module, b.module),
            )
    for r in records:
        if not r.interior:
            return GenericityError(
                f"crossing of {r.module.label or r.module.dims} at t={r.time} "
                "is on the wall boundary",
                colliding=(r.module,),
            )
    return records


def _assert_matches_fraction_reference(base, catalog):
    expected = _fraction_crossings(base, catalog)
    if isinstance(expected, GenericityError):
        with pytest.raises(GenericityError) as info:
            crossing_sequence(base, catalog)
        assert str(info.value) == str(expected)
        assert len(info.value.colliding) == len(expected.colliding)
        assert all(a is b for a, b in zip(info.value.colliding, expected.colliding))
        return "error"
    records = crossing_sequence(base, catalog)
    assert records == expected
    assert all(a.module is b.module for a, b in zip(records, expected))
    return "records"


@pytest.mark.parametrize("name", ["a3_cyclic", "d4_cyclic", "a5_example", "a9_example"])
def test_wall_table_matches_the_fraction_reference(name):
    catalog = common.catalog(name)
    n = catalog.algebra.quiver.n
    rng = random.Random(20)
    kinds = []
    for k in range(40):
        # small integer bases make crossing times collide; the others are generic
        if k % 2:
            base = random_rational_base(rng, n)
        else:
            base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        kinds.append(_assert_matches_fraction_reference(base, catalog))
    assert set(kinds) == {"records", "error"}


@pytest.mark.parametrize(
    "base",
    # the degenerate bases above, and the boundary point of the wall of 2<3
    [frac(-3, -4, -5), frac(0, 0, 0), frac(5, 0, 0)],
)
def test_wall_table_matches_the_fraction_reference_on_degenerate_a3_bases(a3_catalog, base):
    assert _assert_matches_fraction_reference(base, a3_catalog) == "error"
    # with the wall of 2<3 alone nothing collides there, so a path through
    # its boundary point reaches the boundary error
    lone = Catalog(a3_catalog.algebra, (a3_catalog.by_label("2<3"),))
    kind = _assert_matches_fraction_reference(base, lone)
    if base == frac(-3, -4, -5):
        assert kind == "records"  # this path misses the wall
    else:
        assert kind == "error"
        with pytest.raises(GenericityError, match="on the wall boundary") as info:
            crossing_sequence(base, lone)
        assert info.value.colliding == lone.modules


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
    keys = sorted(tuple(m.dims for m in s) for s in enumerate_maximal_fho(catalog))[:count]
    assert len(keys) == count
    h = hashlib.sha256()
    for key in keys:
        base = find_base_for_sequence(catalog, key)
        h.update(repr(None if base is None else [str(c) for c in base]).encode())
    assert h.hexdigest() == digest


def test_a9_simplex_bases_are_pinned():
    # every 16th of the first 794 a9 maximal green sequences, as the listing
    # finds them within a budget of 3,000 nodes: 50 systems of 30 to 43
    # inequalities in 9 unknowns, 28 of them feasible
    catalog = common.catalog("a9_example")
    seed = exchange.initial_seed(common.problem("a9_example").qp.quiver)
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.enumerate_green_sequences(seed, budget=3000)
    keys = [s.c_vectors for s in info.value.partial[::16]]
    assert len(keys) == 50
    h = hashlib.sha256()
    for key in keys:
        base = find_base_for_sequence(catalog, key)
        h.update(repr(None if base is None else [str(c) for c in base]).encode())
    assert h.hexdigest() == "9875414e5d284c53edd6d9a634c19fc1fd2b62e463decdf655fd08a95874790a"
