"""Forward hom-orthogonal sequences and torsion pairs."""

import pytest

from greenseq import exchange
from greenseq.fho import (
    FhoSequence,
    _torsion_free_mask,
    _torsion_mask,
    enumerate_maximal_fho,
    insertion_obstructions,
    insertion_window,
    is_fho_in_torsion_class,
    is_maximal_fho,
    is_weakly_fho,
    verify_theorem1,
)
from greenseq.rep import projective, simple

import common

FIVE = ["3", "2<3", "2", "1<2", "1"]
FOUR = ["2", "1<2", "3", "1"]

TORSION_CHAIN = [
    ((), ("1", "1<2", "1>3", "2", "2<3", "3")),
    (("3",), ("1", "1<2", "2", "2<3")),
    (("2<3", "3"), ("1", "1<2", "2")),
    (("2", "2<3", "3"), ("1", "1<2")),
    (("1<2", "2", "2<3", "3"), ("1",)),
    (("1", "1<2", "1>3", "2", "2<3", "3"), ()),
]


def by_labels(cat, labels):
    return [cat.by_label(s) for s in labels]


def test_dim_vectors_follow_the_modules(a3_catalog):
    mods = tuple(by_labels(a3_catalog, FIVE))
    seq = FhoSequence(modules=mods)
    dims = [(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0)]
    assert seq.dim_vectors == tuple(dims)


def test_five_step_sequence_is_maximal(a3_catalog):
    mods = by_labels(a3_catalog, FIVE)
    assert is_weakly_fho(mods)
    assert is_maximal_fho(mods, a3_catalog)
    assert is_fho_in_torsion_class(mods, a3_catalog)


def test_four_step_sequence_is_maximal(a3_catalog):
    mods = by_labels(a3_catalog, FOUR)
    assert is_maximal_fho(mods, a3_catalog)
    assert is_fho_in_torsion_class(mods, a3_catalog)


def test_prefixes_are_not_maximal(a3_catalog):
    mods = by_labels(a3_catalog, FIVE)
    for cut in range(1, len(mods)):
        assert not is_maximal_fho(mods[:cut], a3_catalog)


def test_the_sixth_module_cannot_be_inserted(a3_catalog):
    mods = by_labels(a3_catalog, FIVE)
    m6 = a3_catalog.by_label("1>3")
    assert not insertion_window(a3_catalog, a3_catalog.indices(mods), a3_catalog.index(m6))
    witnesses = insertion_obstructions(mods, m6)
    assert [w[0] for w in witnesses] == [0, 1, 2, 3, 4, 5]
    pos0 = witnesses[0]
    assert (pos0[1].label, pos0[2].label, pos0[3]) == ("1>3", "1<2", 1)
    for pos, src, tgt, d in witnesses[1:]:
        assert (src.label, tgt.label, d) == ("3", "1>3", 1)


def test_insertion_positions_on_a_gap(a3_catalog):
    cat = a3_catalog
    seq = cat.indices(by_labels(cat, ["3", "2", "1<2", "1"]))
    assert list(insertion_window(cat, seq, cat.index(cat.by_label("2<3")))) == [1]


def labels_of(cat, mask):
    return tuple(sorted(x.label for i, x in enumerate(cat) if mask >> i & 1))


def test_torsion_pair_chain(a3_catalog):
    seq = a3_catalog.indices(by_labels(a3_catalog, FIVE))
    for t, (g_labels, f_labels) in enumerate(TORSION_CHAIN):
        f_mask = _torsion_free_mask(a3_catalog, seq[:t])
        assert labels_of(a3_catalog, _torsion_mask(a3_catalog, f_mask)) == g_labels
        assert labels_of(a3_catalog, f_mask) == f_labels


def test_enumeration_matches_green_sequences(a3_qp, a3_catalog):
    seqs = enumerate_maximal_fho(a3_catalog)
    assert len(seqs) == 9
    lengths = sorted(len(s.modules) for s in seqs)
    assert lengths == [4] * 6 + [5] * 3
    seed = exchange.initial_seed(a3_qp.quiver)
    green = exchange.enumerate_green_sequences(seed)
    assert {tuple(s.dim_vectors) for s in seqs} == {g.c_vectors for g in green}


def test_d4_enumeration_count(d4_qp, d4_catalog):
    seqs = enumerate_maximal_fho(d4_catalog)
    assert len(seqs) == 112
    seed = exchange.initial_seed(d4_qp.quiver)
    assert len(exchange.enumerate_green_sequences(seed)) == len(seqs)


def test_a5_seven_step_sequence(a5_algebra, a5_catalog):
    mods = [
        simple(a5_algebra, 1),
        simple(a5_algebra, 4),
        projective(a5_algebra, 1),
        simple(a5_algebra, 3),
        projective(a5_algebra, 4),
        simple(a5_algebra, 2),
        simple(a5_algebra, 5),
    ]
    assert [m.dims for m in mods] == [
        (1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (1, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1),
    ]
    assert is_maximal_fho(mods, a5_catalog)


def test_verify_report(a3_qp, a3_catalog):
    report = verify_theorem1(a3_qp, a3_catalog)
    assert report["equal"] is True
    assert report["mgs_count"] == 9
    assert report["fho_count"] == 9
    assert report["wall_realized_count"] == 9
    assert report["extremal_lengths"] == [4, 5]
    assert report["maximal_also_maximal_in_torsion_class"] == 9
    assert report["witnesses"] == []
    assert sum(report["realized_via"].values()) == 9
    assert [[0, 0, 1], [0, 1, 1], [0, 1, 0], [1, 1, 0], [1, 0, 0]] in report["sequences"]


@pytest.mark.parametrize("name", ["a3_cyclic", "d4_cyclic", "a5_example"])
def test_maximal_sequences_are_maximal_in_their_torsion_class(name):
    # verify_theorem1 counts these as fho_count without running the predicate
    catalog = common.catalog(name)
    seqs = enumerate_maximal_fho(catalog)
    assert seqs
    assert all(is_fho_in_torsion_class(s.modules, catalog) for s in seqs)
