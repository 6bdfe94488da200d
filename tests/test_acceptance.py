"""Acceptance gate: one test per headline requirement.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
All comparisons are exact; there are no numerical tolerances anywhere.
"""

import random
import time

from greenseq import exchange
from greenseq.bounds import construct_max_sequence, cuts
from greenseq.fho import (
    enumerate_maximal_fho,
    insertion_obstructions,
    is_maximal_fho,
    verify_theorem1,
)
from greenseq.rep import projective, simple
from greenseq.walls import realize_sequence

import common
import test_exchange
import test_properties

FIVE_DIMS = ((0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0))


def test_criterion_1_six_step_matrix_chain():
    qp = common.problem("a3_cyclic").qp

    def run_chain():
        m = exchange.initial_seed(qp.quiver)
        out = [m.rows()]
        for v in test_exchange.CHAIN_VERTICES:
            m = exchange.mutate(m, qp.quiver.pos(v))
            out.append(m.rows())
        return out, m

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        matrices, final = run_chain()
        best = min(best, time.perf_counter() - t0)
    assert tuple(matrices) == test_exchange.CHAIN_MATRICES
    assert not any(exchange.is_green(final, k) for k in range(3))
    assert best < 0.001


def test_criterion_2_three_descriptions_agree():
    qp = common.problem("a3_cyclic").qp
    cat = common.catalog("a3_cyclic")
    report = verify_theorem1(qp, cat)
    assert report["equal"] is True
    assert report["mgs_count"] == report["fho_count"] == 9
    assert report["wall_realized_count"] == 9
    assert report["witnesses"] == []

    # the worked sequence shows up in all three descriptions
    assert [list(d) for d in FIVE_DIMS] in report["sequences"]
    seed = exchange.initial_seed(qp.quiver)
    assert FIVE_DIMS in {
        g.c_vectors for g in exchange.enumerate_green_sequences(seed)
    }
    assert FIVE_DIMS in {tuple(m.dims for m in s) for s in enumerate_maximal_fho(cat)}
    assert realize_sequence(cat, FIVE_DIMS, random.Random(0)) is not None

    # and the module left out of it cannot be inserted anywhere
    mods = [cat.unique_by_dims(d) for d in FIVE_DIMS]
    blocked = insertion_obstructions(mods, cat.by_label("1>3"))
    assert len(blocked) == len(mods) + 1
    assert all(depth == 1 for _, _, _, depth in blocked)


def test_criterion_3_triangle_bounds():
    js = common.bounds_report("a3_cyclic")
    assert (js["min_len"], js["max_len"]) == (4, 5)
    assert js["conjecture_holds"] is True
    assert len(js["cuts"]) == 3
    assert all(row["length"] == 5 for row in js["cuts"])
    assert (js["lower_bound"], js["upper_bound"]) == (5, 5)


def test_criterion_4_two_triangle_line():
    cat = common.catalog("a5_example")
    assert len(cat.modules) == 15
    js = common.bounds_report("a5_example")
    assert (js["min_len"], js["max_len"]) == (7, 13)
    uv = next(row for row in js["cuts"] if row["deleted"] == ["u", "v"])
    assert uv["tilted"] is True
    assert uv["c_count"] == 13
    assert uv["length"] == 13
    alg = common.algebra("a5_example")
    seq = [
        simple(alg, 1),
        simple(alg, 4),
        projective(alg, 1),
        simple(alg, 3),
        projective(alg, 4),
        simple(alg, 2),
        simple(alg, 5),
    ]
    assert is_maximal_fho(seq, cat)


def test_criterion_5_four_cycle():
    cat = common.catalog("d4_cyclic")
    qp = common.problem("d4_cyclic").qp
    assert len(cat.modules) == 12
    seed = exchange.initial_seed(qp.quiver)
    seqs = exchange.enumerate_green_sequences(seed)
    classes = exchange.equivalence_classes(seqs)
    longest = [k for k, v in classes.items() if len(v[0].mutation_indices) == 9]
    summary = exchange.mgs_summary(seed)
    assert (summary.min_len, summary.max_len) == (6, 9)
    assert len(longest) == 4
    all_cuts = cuts(qp)
    assert len(all_cuts) == 4
    for cut in all_cuts:
        seq = construct_max_sequence(cut, cat)
        assert seq is not None and len(seq) == 9
        assert is_maximal_fho(list(seq), cat)


def test_criterion_6_long_quiver_certified_without_enumeration():
    qp = common.problem("a9_example").qp
    cat = common.catalog("a9_example")
    js = common.bounds_report("a9_example", enumerate_extrema=False)
    assert js["extrema_known"] is False
    assert js["indec_count"] == 45
    assert js["cycle_count"] >= 8
    assert js["upper_bound"] == 45 - js["cycle_count"] == 37
    assert ["2<3", "1>3", "1<2"] in js["hom_cycles"]
    assert ["8<9", "7>9", "7<8"] in js["hom_cycles"]
    assert (js["lower_bound"], js["achieved_max"]) == (37, 37)
    assert js["conjecture_holds"] is True

    # the best cut really carries a 37-step maximal green sequence
    best = max(js["cuts"], key=lambda row: row["length"] or 0)
    assert best["deleted"] == ["al", "be", "de", "ga"]
    cut = next(
        c for c in cuts(qp) if c == frozenset({"al", "be", "de", "ga"})
    )
    seq = construct_max_sequence(cut, cat)
    assert seq is not None and len(seq) == 37
    seed = exchange.initial_seed(qp.quiver)
    gs, final = exchange.replay_c_vector_sequence(seed, [m.dims for m in seq])
    assert len(gs.mutation_indices) == 37
    assert not any(exchange.is_green(final, k) for k in range(final.n))


def test_criterion_7_bulk_invariants():
    assert test_properties.mutation_walk_suite() >= 200
    assert test_properties.reflection_suite() >= 200
    assert test_properties.rotation_suite() >= 200
    assert test_properties.first_crossing_suite() >= 200
    assert test_properties.crossing_fho_suite() >= 200
    assert test_properties.midpoint_suite() >= 1000
    assert test_properties.field_independence_suite() >= 200
    for name in ("a3_cyclic", "d4_cyclic", "a5_example"):
        js = common.bounds_report(name)
        assert js["min_len"] + js["max_len"] - js["n"] <= js["indec_count"]
