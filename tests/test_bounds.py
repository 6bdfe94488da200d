"""Length bounds from arrow cuts and disjoint Hom cycles."""

import hashlib
import json

import pytest

from greenseq import io as gio
from greenseq import rep
from greenseq.errors import (
    NonStringAlgebraError,
    SearchBudgetExceeded,
    UnsupportedPotentialError,
)
from greenseq.bounds import (
    assem_tilted,
    bounds_report,
    c_modules,
    construct_max_sequence,
    cuts,
    disjoint_hom_cycles,
    is_alternating,
    maximal_cut_sequences,
    module_diagram,
    report_table,
    triangle_seed_cycles,
    vanishes_on_cut,
)
from greenseq.cli import main
from greenseq.exchange import initial_seed, mgs_summary
from greenseq.fho import is_maximal_fho
from greenseq.rep import projective, string_catalog

import common

A5_CUT_TABLE = {
    ("al", "be"): (10, False, 10),
    ("al", "v"): (11, True, 11),
    ("al", "de"): (10, True, 10),
    ("be", "ga"): (10, True, 10),
    ("ga", "v"): (11, True, 11),
    ("de", "ga"): (10, False, 10),
    ("be", "u"): (11, True, 11),
    ("u", "v"): (13, True, 13),
    ("de", "u"): (11, True, 11),
}

REPORT_KEYS = {
    "n", "k", "indec_count", "min_len", "max_len", "extrema_known",
    "lower_bound", "upper_bound", "achieved_max", "cycle_count",
    "conjecture_holds", "cuts", "hom_cycles",
}


def test_cut_enumeration_counts(a3_qp, d4_qp, a5_qp, a9_qp):
    assert len(cuts(a3_qp)) == 3
    assert len(cuts(d4_qp)) == 4
    assert len(cuts(a5_qp)) == 9
    assert len(cuts(a9_qp)) == 81


def problem_of(arrows, cycles):
    """A problem whose QP has these arrows (id, src, tgt) and unit-coefficient cycles."""
    vertices = sorted({v for _, src, tgt in arrows for v in (src, tgt)})
    return gio.problem_from_json({"qp": {
        "vertices": vertices,
        "arrows": [{"id": aid, "src": src, "tgt": tgt} for aid, src, tgt in arrows],
        "potential": [{"coeff": "1", "cycle": list(cycle)} for cycle in cycles],
    }})


def test_zero_potential_has_one_empty_cut():
    # acyclic A3, 1 -> 2 -> 3: the empty cut keeps every module, and its
    # sequence is a maximum-length maximal green sequence
    problem = problem_of([("a", 1, 2), ("b", 2, 3)], [])
    assert cuts(problem.qp) == [frozenset()]
    catalog = string_catalog(problem.algebra())
    seq = construct_max_sequence(frozenset(), catalog)
    assert len(seq) == len(catalog) == 6
    assert is_maximal_fho(seq, catalog)
    assert len(seq) == mgs_summary(initial_seed(problem.qp.quiver)).max_len


def test_repeated_picks_give_one_cut_in_first_pick_order():
    # abc + abde: 3 x 4 = 12 picks, and the pick (b, a) deletes the same
    # arrows as (a, b), so 11 cuts
    arrows = [("a", 1, 2), ("b", 2, 3), ("c", 3, 1), ("d", 3, 4), ("e", 4, 1)]
    found = cuts(problem_of(arrows, ["abc", "abde"]).qp)
    assert [sorted(c) for c in found] == [
        ["a"], ["a", "b"], ["a", "d"], ["a", "e"], ["b"], ["b", "d"],
        ["b", "e"], ["a", "c"], ["b", "c"], ["c", "d"], ["c", "e"],
    ]


def test_a3_cuts(a3_qp, a3_catalog):
    for cut in cuts(a3_qp):
        assert len(c_modules(cut, a3_catalog)) == 5
        assert assem_tilted(a3_qp, cut, a3_catalog)
        seq = construct_max_sequence(cut, a3_catalog)
        assert seq is not None and len(seq) == 5
        assert is_maximal_fho(list(seq), a3_catalog)


def test_vanishing(a3_qp, a3_catalog):
    cut_a = next(c for c in cuts(a3_qp) if c == frozenset({"a"}))
    assert vanishes_on_cut(a3_catalog.by_label("1"), cut_a)
    assert vanishes_on_cut(a3_catalog.by_label("2<3"), cut_a)
    assert not vanishes_on_cut(a3_catalog.by_label("1<2"), cut_a)
    survivors = sorted(a3_catalog.modules[i].label for i in c_modules(cut_a, a3_catalog))
    assert survivors == ["1", "1>3", "2", "2<3", "3"]


def test_module_diagrams(a5_qp, a5_catalog):
    cut_albe = next(c for c in cuts(a5_qp) if c == frozenset({"al", "be"}))
    assert module_diagram(a5_catalog.by_label("2>3>4"), cut_albe) == ">>"
    assert not is_alternating(">>")
    assert not assem_tilted(a5_qp, cut_albe, a5_catalog)
    cut_alde = next(c for c in cuts(a5_qp) if c == frozenset({"al", "de"}))
    assert module_diagram(a5_catalog.by_label("2>3<5"), cut_alde) == "><"
    assert is_alternating("><")
    assert module_diagram(a5_catalog.by_label("1"), cut_alde) == ""


def test_module_diagram_needs_a_walk(a3_qp, a3_algebra):
    cut = cuts(a3_qp)[0]
    with pytest.raises(NonStringAlgebraError):
        module_diagram(projective(a3_algebra, 1), cut)


def test_four_cycle_potential_has_no_tilting_test(d4_qp, d4_catalog):
    for cut in cuts(d4_qp):
        with pytest.raises(UnsupportedPotentialError):
            assem_tilted(d4_qp, cut, d4_catalog)


def test_d4_cuts_all_reach_the_maximum(d4_qp, d4_catalog):
    for cut in cuts(d4_qp):
        assert len(c_modules(cut, d4_catalog)) == 9
        seq = construct_max_sequence(cut, d4_catalog)
        assert seq is not None and len(seq) == 9
        assert is_maximal_fho(list(seq), d4_catalog)


def test_a5_cut_table(a5_qp, a5_catalog):
    rows = {}
    for cut in cuts(a5_qp):
        key = tuple(sorted(cut))
        seq = construct_max_sequence(cut, a5_catalog)
        rows[key] = (
            len(c_modules(cut, a5_catalog)),
            assem_tilted(a5_qp, cut, a5_catalog),
            len(seq) if seq is not None else None,
        )
    assert rows == A5_CUT_TABLE


@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_c_modules_match_the_per_module_test(name):
    catalog = common.catalog(name)
    for cut in cuts(common.problem(name).qp):
        assert c_modules(cut, catalog) == [
            i for i, m in enumerate(catalog.modules) if vanishes_on_cut(m, cut)
        ]


def test_construction_fails_when_the_hom_digraph_is_cyclic(a3_catalog):
    trivial = frozenset()
    assert len(c_modules(trivial, a3_catalog)) == 6
    assert construct_max_sequence(trivial, a3_catalog) is None


def test_triangle_seeds_and_disjoint_cycles(a3_qp, a3_catalog):
    seeds = triangle_seed_cycles(a3_qp, a3_catalog)
    assert len(seeds) == 1
    cycles = disjoint_hom_cycles(a3_catalog, seeds)
    assert len(cycles) == 1
    labels = tuple(a3_catalog.modules[i].label for i in cycles[0])
    assert labels == ("2<3", "1>3", "1<2")


def test_a3_report(a3_qp, a3_catalog):
    js = common.bounds_report("a3_cyclic")
    assert set(js) == REPORT_KEYS
    assert (js["n"], js["k"], js["indec_count"]) == (3, 1, 6)
    assert (js["min_len"], js["max_len"]) == (4, 5)
    assert js["extrema_known"] is True
    assert (js["lower_bound"], js["upper_bound"], js["achieved_max"]) == (5, 5, 5)
    assert js["cycle_count"] == 1
    assert js["conjecture_holds"] is True
    assert [row["length"] for row in js["cuts"]] == [5, 5, 5]
    assert js["hom_cycles"] == [["2<3", "1>3", "1<2"]]


def test_d4_report():
    js = common.bounds_report("d4_cyclic")
    assert (js["min_len"], js["max_len"]) == (6, 9)
    assert (js["lower_bound"], js["upper_bound"], js["achieved_max"]) == (9, 10, 9)
    assert js["cycle_count"] == 2
    assert js["conjecture_holds"] is True
    assert all(row["tilted"] is None for row in js["cuts"])
    assert sorted(js["hom_cycles"]) == [["1>4>3", "1<2<3"], ["2<3<4", "2>1>4"]]


def test_a5_report():
    js = common.bounds_report("a5_example")
    assert (js["n"], js["k"], js["indec_count"]) == (5, 2, 15)
    assert (js["min_len"], js["max_len"]) == (7, 13)
    assert (js["lower_bound"], js["upper_bound"], js["achieved_max"]) == (13, 13, 13)
    assert js["cycle_count"] == 2
    assert js["conjecture_holds"] is True
    assert sorted(js["hom_cycles"]) == [["2>3", "1>2", "1<3"], ["4>5", "3>4", "3<5"]]


def table_lines(report):
    return dict((ln[:24].strip(), ln[24:].strip()) for ln in report_table(report).splitlines())


def test_report_table_mentions_the_headline_numbers():
    lines = table_lines(common.bounds_report("a5_example"))
    assert lines["indecomposables"] == "15"
    assert lines["min length"] == "7"
    assert lines["max length"] == "13"
    assert lines["lower bound"] == "13"
    assert lines["upper bound"] == "13"
    assert lines["max equals lower bound"] == "true"


def test_general_length_inequality():
    # With both extrema enumerated, max + min never exceeds the catalog
    # size plus the vertex count.
    for name in ("a3_cyclic", "d4_cyclic", "a5_example"):
        js = common.bounds_report(name)
        assert js["max_len"] + js["min_len"] - js["n"] <= js["indec_count"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, enumerate_extrema, digest",
    [
        ("a3_cyclic", True, "2c3da9c840ee7c97cf0ebaeddc0d7fde91d3a5301b00f2f89a5d4db9f0253d7a"),
        ("d4_cyclic", True, "ff6ac8db69643ba3b6109242386c241f60db464c916687d5cd739f55e2f7eefb"),
        ("a5_example", True, "547003a85db4142487549e686cdf4494985cca13ca21af67d851a837a3c0ec81"),
        ("a9_example", True, "c5b35a15aaa25e0c26f8045607f0a048d80cb624b3d3f020e8eafb2baf61b3fc"),
        ("a9_example", False, "3ada01d6da33449843a554e338dc9734b06675470f85359450a3148a4a6fc327"),
    ],
)
def test_report_is_pinned(name, enumerate_extrema, digest):
    # every cut row, cycle, bound and table line goes into the digest
    report = common.bounds_report(name, enumerate_extrema)
    text = json.dumps(report, sort_keys=True) + "\n" + report_table(report)
    assert sha256(text) == digest


@pytest.mark.parametrize("enumerate_extrema", [True, False])
@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_report_is_plain_json(name, enumerate_extrema):
    # a tuple or record left in the report would not survive the round trip
    report = common.bounds_report(name, enumerate_extrema)
    assert isinstance(report, dict)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize(
    "name, budget, cut_count, lower_upper, verdict, shown",
    [
        # 4 cut choices fit in 10, d4's 50 exchange-graph states do not, and
        # the cuts stay below the upper bound: the verdict is undecided
        ("d4_cyclic", 10, 4, (9, 10), None, "undecided"),
        # 81 cut choices fit in 100, the exchange graph does not, but the
        # cuts reach the upper bound, which certifies the maximum
        ("a9_example", 100, 81, (37, 37), True, "true"),
    ],
)
def test_exhausted_budget_leaves_the_extrema_unknown(
    name, budget, cut_count, lower_upper, verdict, shown
):
    report = bounds_report(common.problem(name).qp, common.catalog(name), budget=budget)
    assert len(report["cuts"]) == cut_count
    assert report["extrema_known"] is False
    assert (report["min_len"], report["max_len"]) == (None, None)
    assert (report["lower_bound"], report["upper_bound"]) == lower_upper
    assert report["conjecture_holds"] is verdict
    lines = table_lines(report)
    assert lines["min length"] == lines["max length"] == "unknown"
    assert lines["max equals lower bound"] == shown


@pytest.mark.parametrize(
    "name, cut_count, digest",
    [
        ("a3_cyclic", 3, "6ca95f400da34f0164aa8a2de0a8efcaefeffe5ce2202f686a020034a6407a1d"),
        ("d4_cyclic", 4, "0449ff1b6aec141a9925a3d89ad5806b59e16b231f25ba66c75f1c34bb8aa814"),
        ("a5_example", 9, "325994fc714e4a398dc23df53ff673aba4c32574acdc0757c5e0d3b4850976b7"),
        ("a9_example", 81, "ca5e02cde17ee9e1f2c0587434a5e2f557d22790a965d1cc7731e2a205ddec9c"),
    ],
)
def test_cut_sequences_are_pinned(name, cut_count, digest):
    # the order of each cut's sequence follows the tie-break of the ordering
    catalog = common.catalog(name)
    rows = []
    for cut in cuts(common.problem(name).qp):
        seq = construct_max_sequence(cut, catalog)
        labels = None if seq is None else [m.label for m in seq]
        rows.append([sorted(cut), labels])
    assert len(rows) == cut_count
    assert sha256(json.dumps(rows)) == digest


def test_disjoint_cycles_skip_non_schurian_modules(nakayama_catalog):
    # 16 of the 20 Nakayama modules are Schurian; the other four sit on
    # Hom cycles that the family must not use
    cat = nakayama_catalog
    assert cat.schurian_indices() == tuple(range(16))
    cycles = disjoint_hom_cycles(cat)
    assert cycles == [(4, 15), (5, 14), (6, 13), (7, 12), (8, 10), (9, 11)]
    assert [[cat.modules[i].label for i in c] for c in cycles] == [
        ["3>4", "3<2<1<4"], ["2>3", "2<1<4<3"], ["1<4", "1>2>3>4"],
        ["1>2", "1<4<3<2"], ["2>3>4", "2<1<4"], ["1<4<3", "1>2>3"],
    ]


def test_cut_sequences_read_each_hom_pair_once(monkeypatch, a9_qp):
    calls = []
    original = rep.Catalog.fill_hom

    def counting(cat, i, j):
        calls.append((i, j))
        return original(cat, i, j)

    monkeypatch.setattr(rep.Catalog, "fill_hom", counting)
    cat = string_catalog(common.algebra("a9_example"))
    maximal_cut_sequences(a9_qp, cat)
    assert len(calls) == len(set(calls)) == 45 * 45


@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_construct_max_prints_the_longest_maximal_cut(name, capsys):
    rows = maximal_cut_sequences(common.problem(name).qp, common.catalog(name))
    kept = [(cut, seq) for cut, seq in rows if seq is not None]
    longest = max(len(seq) for _, seq in kept)
    # among cuts of equal length, the earliest in `cuts` order
    cut, seq = next((cut, seq) for cut, seq in kept if len(seq) == longest)
    path = str(common.PROBLEMS / f"{name}.json")
    assert main(["mgs", path, "--construct-max", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["from_cut"] == sorted(cut)
    assert payload["labels"] == [m.label for m in seq]


def test_budget_bounds_the_cut_choices(a9_qp, a9_catalog):
    # a9's potential has four triangles: 3**4 = 81 choices
    assert len(maximal_cut_sequences(a9_qp, a9_catalog, budget=81)) == 81
    with pytest.raises(SearchBudgetExceeded, match="81 cut choices"):
        maximal_cut_sequences(a9_qp, a9_catalog, budget=80)
