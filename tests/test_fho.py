"""Forward hom-orthogonal sequences and torsion pairs."""

import ast
import sys
from pathlib import Path

import pytest

from greenseq import exchange, fho
from greenseq.errors import SearchBudgetExceeded
from greenseq.fho import (
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
from greenseq.rep import Catalog, projective, simple

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
    lengths = sorted(len(s) for s in seqs)
    assert lengths == [4] * 6 + [5] * 3
    seed = exchange.initial_seed(a3_qp.quiver)
    green = exchange.enumerate_green_sequences(seed)
    assert {tuple(m.dims for m in s) for s in seqs} == {g.c_vectors for g in green}


def test_d4_enumeration_count(d4_qp, d4_catalog):
    seqs = enumerate_maximal_fho(d4_catalog)
    assert len(seqs) == 112
    seed = exchange.initial_seed(d4_qp.quiver)
    assert len(exchange.enumerate_green_sequences(seed)) == len(seqs)


def test_enumeration_rejects_an_incomplete_catalog(d4_catalog):
    # without its other members, the d4 class {2<3<4, 2>1>4} has no lower
    # cover: a path stops there, short of the zero class
    labels = ["1<2", "2<3<4", "2>1>4", "1"]
    part = Catalog(d4_catalog.algebra, tuple(d4_catalog.by_label(x) for x in labels))
    with pytest.raises(ValueError, match=r"incomplete catalog.*\['2<3<4', '2>1>4'\]"):
        enumerate_maximal_fho(part)


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


def reference_maximal_fho(catalog):
    """The prefix walk: from F(seq), append every brick of F in index order,
    until F holds no brick, and keep a leaf iff `is_maximal_fho` holds."""
    found = []

    def walk(seq, free):
        inside = [c for c in catalog.schurian_indices() if free >> c & 1]
        if not inside:
            modules = tuple(catalog.modules[i] for i in seq)
            if is_maximal_fho(modules, catalog):
                found.append(modules)
        for c in inside:
            walk([*seq, c], free & ~catalog.out_mask(c))

    walk([], (1 << len(catalog)) - 1)
    return found


@pytest.mark.parametrize("name", ["a3_cyclic", "d4_cyclic", "a5_example", "nakayama"])
def test_enumeration_equals_the_prefix_walk(name):
    catalog = common.nakayama_catalog() if name == "nakayama" else common.catalog(name)
    seqs = enumerate_maximal_fho(catalog)
    assert seqs
    assert seqs == reference_maximal_fho(catalog)


@pytest.mark.parametrize(
    "name, nodes", [("a3_cyclic", 31), ("d4_cyclic", 425), ("a5_example", 8030)]
)
def test_enumeration_needs_the_budget_of_the_green_sequence_listing(name, nodes):
    # both count path nodes, and the cover edges are the green mutations
    catalog = common.catalog(name)
    seed = exchange.initial_seed(common.problem(name).qp.quiver)
    for search in (
        lambda budget: enumerate_maximal_fho(catalog, budget=budget),
        lambda budget: exchange.enumerate_green_sequences(seed, budget=budget),
    ):
        search(nodes)
        with pytest.raises(SearchBudgetExceeded):
            search(nodes - 1)


def test_enumeration_budget_error_carries_the_partial_listing(a5_catalog):
    with pytest.raises(SearchBudgetExceeded) as info:
        enumerate_maximal_fho(a5_catalog, budget=100)
    assert str(info.value) == "forward hom-orthogonal search exceeded 100 nodes"
    partial = info.value.partial
    assert partial
    assert partial == enumerate_maximal_fho(a5_catalog)[: len(partial)]


def test_enumeration_is_not_bounded_by_the_recursion_limit(a5_catalog):
    # the Hom table is filled first, so the listing is the only thing that
    # could go deeper than a few frames; a5's sequences have up to 13 bricks
    for i in range(len(a5_catalog)):
        a5_catalog.out_mask(i)
    every = enumerate_maximal_fho(a5_catalog)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 15)
    try:
        assert enumerate_maximal_fho(a5_catalog) == every
    finally:
        sys.setrecursionlimit(limit)


def test_one_walker_lists_the_paths_of_both_sides():
    # every budget error of the two modules, named by its enclosing class and
    # functions: the path-node one is raised by `exchange.maximal_paths`
    # alone, beside the graph build's state budget; and no function nested
    # in the FHO listing calls itself or an enclosing one
    raisers = []
    recursions = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = where + (child.name,)
            elif (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) == "SearchBudgetExceeded"
            ):
                raisers.append(".".join(where))
            elif (
                isinstance(child, ast.Call)
                and where[:1] == ("enumerate_maximal_fho",)
                and getattr(child.func, "id", None) in where[1:]
            ):
                recursions.append(".".join(where))
            walk(child, inner)

    for module in (exchange, fho):
        walk(ast.parse(Path(module.__file__).read_text()), ())
    assert sorted(raisers) == ["_ExchangeGraph.enter", "maximal_paths"]
    assert recursions == []


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
    assert all(is_fho_in_torsion_class(s, catalog) for s in seqs)
