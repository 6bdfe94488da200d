"""The catalog Hom table and the insertion predicate built on it.

Each table-based check is compared with a literal transcription of its
definition, evaluated on Hom dimensions taken straight from `hom_dim`.
"""

import pytest

from greenseq import rep, walls
from greenseq.fho import (
    _torsion_free_mask,
    _torsion_mask,
    enumerate_maximal_fho,
    insertion_obstructions,
    insertion_window,
    is_fho_in_torsion_class,
    is_maximal_fho,
    is_weakly_fho,
)
from greenseq.rep import hom_dim, make_rep, simple, string_catalog

import common


def brute_table(cat):
    return {(id(a), id(b)): hom_dim(a, b) for a in cat for b in cat}


def brute_positions(H, mods, cand):
    return [
        t
        for t in range(len(mods) + 1)
        if all(H[id(a), id(cand)] == 0 for a in mods[:t])
        and all(H[id(cand), id(b)] == 0 for b in mods[t:])
    ]


def brute_obstructions(H, mods, cand):
    out = []
    for t in range(len(mods) + 1):
        witness = next(
            ((t, a, cand, H[id(a), id(cand)]) for a in mods[:t] if H[id(a), id(cand)]),
            None,
        ) or next(
            ((t, cand, b, H[id(cand), id(b)]) for b in mods[t:] if H[id(cand), id(b)]),
            None,
        )
        if witness is None:
            return []
        out.append(witness)
    return out


def brute_weakly_fho(H, mods):
    return all(H[id(m), id(m)] == 1 for m in mods) and all(
        H[id(mods[i]), id(mods[j])] == 0
        for i in range(len(mods))
        for j in range(i + 1, len(mods))
    )


def brute_torsion_pair(H, cat, mods):
    f = [y for y in cat if all(H[id(m), id(y)] == 0 for m in mods)]
    g = [x for x in cat if all(H[id(x), id(y)] == 0 for y in f)]
    return g, f


def brute_maximal(H, cat, mods):
    if not brute_weakly_fho(H, mods):
        return False
    if any(all(H[id(m), id(y)] == 0 for m in mods) for y in cat):
        return False
    return not any(
        brute_positions(H, mods, c) for c in cat if H[id(c), id(c)] == 1
    )


def brute_in_torsion_class(H, cat, mods):
    if not brute_weakly_fho(H, mods):
        return False
    g, _ = brute_torsion_pair(H, cat, mods)
    return not any(brute_positions(H, mods, z) for z in g if H[id(z), id(z)] == 1)


def prefixes(cat):
    """Every prefix of every maximal FHO sequence, each once."""
    seen = {}
    for seq in enumerate_maximal_fho(cat):
        for t in range(len(seq) + 1):
            seen.setdefault(tuple(id(m) for m in seq[:t]), list(seq[:t]))
    return list(seen.values())


def members(cat, mask):
    return [id(x) for i, x in enumerate(cat) if mask >> i & 1]


def as_ids(witnesses):
    return [(t, id(src), id(tgt), h) for t, src, tgt, h in witnesses]


CATALOGS = {
    "a3_cyclic": lambda: string_catalog(common.algebra("a3_cyclic")),
    "d4_cyclic": lambda: string_catalog(common.algebra("d4_cyclic")),
    # has non-Schurian modules, which a3 and d4 lack
    "nakayama": lambda: string_catalog(common.nakayama_algebra()),
}


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_table_checks_match_their_definitions(name):
    cat = CATALOGS[name]()
    H = brute_table(cat)
    for mods in prefixes(cat):
        # a prefix with one more module appended may fail to be weakly FHO
        for seq in [mods] + [mods + [c] for c in cat]:
            assert is_maximal_fho(seq, cat) == brute_maximal(H, cat, seq)
            assert is_fho_in_torsion_class(seq, cat) == brute_in_torsion_class(H, cat, seq)
        f_mask = _torsion_free_mask(cat, cat.indices(mods))
        g, f = brute_torsion_pair(H, cat, mods)
        assert members(cat, _torsion_mask(cat, f_mask)) == [id(x) for x in g]
        assert members(cat, f_mask) == [id(y) for y in f]


@pytest.mark.parametrize("name", ["a3_cyclic", "d4_cyclic"])
def test_insertion_matches_its_definition(name):
    cat = CATALOGS[name]()
    H = brute_table(cat)
    for mods in prefixes(cat):
        for cand in cat:
            window = insertion_window(cat, cat.indices(mods), cat.index(cand))
            assert list(window) == brute_positions(H, mods, cand)
            assert as_ids(insertion_obstructions(mods, cand)) == as_ids(
                brute_obstructions(H, mods, cand)
            )


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_weakly_fho_matches_its_definition(name):
    cat = CATALOGS[name]()
    H = brute_table(cat)
    for mods in prefixes(cat):
        for seq in [mods] + [mods + [c] for c in cat]:
            assert is_weakly_fho(seq) == brute_weakly_fho(H, seq)


def test_modules_outside_the_catalog_are_rejected(a3_algebra, a3_catalog):
    # S_1 + S_2: decomposable, so equal to no catalog member
    split = make_rep(a3_algebra, [1, 1, 0], {})
    assert not is_weakly_fho([split])
    for check in (is_maximal_fho, is_fho_in_torsion_class):
        with pytest.raises(ValueError, match="not in catalog"):
            check([split], a3_catalog)


def filled(cat):
    return [(i, j) for i, row in enumerate(cat.homs) for j, h in enumerate(row) if h is not None]


def test_table_is_filled_lazily(monkeypatch):
    calls = []
    original = rep.Catalog.fill_hom

    def counting(cat, i, j):
        calls.append((i, j))
        return original(cat, i, j)

    monkeypatch.setattr(rep.Catalog, "fill_hom", counting)
    cat = string_catalog(common.algebra("a9_example"))
    assert len(cat) == 45
    assert filled(cat) == [] and calls == []

    walls.catalog_walls(cat)
    assert filled(cat) == [(i, i) for i in range(45)]
    assert len(calls) == 45
    walls.catalog_walls(cat)
    assert len(calls) == 45


# every catalog the suite builds, and a5 over two more primes
HOM_PAIR_CATALOGS = [
    ("a3_cyclic", 2), ("d4_cyclic", 2), ("a5_example", 2), ("a9_example", 2),
    ("nakayama", 2), ("a5_example", 3), ("a5_example", 5),
]


@pytest.mark.parametrize("name, p", HOM_PAIR_CATALOGS)
def test_table_equals_hom_dim_on_every_pair(name, p):
    algebra = common.nakayama_algebra(p) if name == "nakayama" else common.algebra(name, p)
    cat = string_catalog(algebra)
    mismatches = [
        (m.label, n.label, cat.hom(i, j), hom_dim(m, n))
        for i, m in enumerate(cat)
        for j, n in enumerate(cat)
        if cat.hom(i, j) != hom_dim(m, n)
    ]
    assert mismatches == []


def test_local_tables_fill_through_hom_dim(monkeypatch, a3_algebra):
    calls = []
    original = rep.hom_dim

    def counting(m, n):
        calls.append((m, n))
        return original(m, n)

    monkeypatch.setattr(rep, "hom_dim", counting)
    # a string catalog counts substrings instead
    cat = string_catalog(a3_algebra)
    for i in range(len(cat)):
        cat.out_mask(i)
    assert None not in sum(cat.homs, []) and calls == []
    s1, s3 = simple(a3_algebra, 1), simple(a3_algebra, 3)
    p1 = rep.projective(a3_algebra, 1)
    assert is_weakly_fho([s3, s1])
    assert (s1, s1) in calls and (s3, s3) in calls
    calls.clear()
    # P_1 maps onto S_1, so S_1 may not come after it
    assert not is_weakly_fho([p1, s1])
    assert (p1, s1) in calls
    # a local table counts substrings between two members with walks only
    calls.clear()
    walked = cat.by_label("1")
    assert is_weakly_fho([walked, cat.by_label("3")])
    assert calls == []
    is_weakly_fho([walked, s3])
    assert (walked, s3) in calls and (walked, walked) not in calls


def test_table_entries_and_masks(a3_catalog):
    cat = a3_catalog
    for i, m in enumerate(cat):
        for j, n in enumerate(cat):
            assert cat.hom(i, j) == hom_dim(m, n)
            assert bool(cat.out_mask(i) >> j & 1) == bool(hom_dim(m, n))
            assert bool(cat.in_mask(j) >> i & 1) == bool(hom_dim(m, n))


def test_index_by_identity_then_equality(a5_algebra, a5_catalog):
    s1 = simple(a5_algebra, 1)
    i = a5_catalog.index(s1)
    assert a5_catalog.modules[i] == s1 and a5_catalog.modules[i] is not s1
    assert a5_catalog.indices(a5_catalog.modules) == list(range(len(a5_catalog)))
    with pytest.raises(ValueError, match="not in catalog"):
        common.catalog("a3_cyclic").index(s1)


def test_lookups_keep_their_errors(a3_catalog):
    quiver = a3_catalog.algebra.quiver
    assert [quiver.pos(v) for v in quiver.vertices] == list(range(quiver.n))
    assert [quiver.arrow(a.id) for a in quiver.arrows] == list(quiver.arrows)
    with pytest.raises(ValueError):
        quiver.pos(99)
    with pytest.raises(KeyError):
        quiver.arrow("zz")
    m = a3_catalog.modules[0]
    assert [m.mat(aid) for aid, _ in m.mats] == [mat for _, mat in m.mats]
    with pytest.raises(KeyError):
        m.mat("zz")
