"""Tests of the benchmark itself: oracle, tracer and the layer predictions.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402
from oracle import Oracle, OracleError  # noqa: E402
from tracer import Tracer  # noqa: E402

ORACLE = Oracle(run.ROOT)


def _op(workload: str, command: str, problem: str) -> workloads.Op:
    return next(
        op for op in workloads.ops(workload, 7)
        if (op.command, op.problem) == (command, problem)
    )


def _run(op: workloads.Op) -> tuple[int, str]:
    _, _, code, stdout, error = run.run_inprocess(op)
    assert not error
    return code, stdout


def _tamper_enumerate(stdout: str) -> str:
    data = json.loads(stdout)
    vec = data["sequences"][3]["c_vectors"][1]
    vec[vec.index(0)] = 1
    return json.dumps(data)


def _tamper_walls(stdout: str) -> str:
    lines = stdout.split("\n")
    i = next(i for i, line in enumerate(lines) if "dims (" in line)
    head, _, dims = lines[i].rpartition("dims (")
    vec = [int(x) for x in dims.rstrip(")").split(",")]
    vec[vec.index(0)] = 1
    lines[i] = head + "dims (" + ", ".join(map(str, vec)) + ")"
    return "\n".join(lines)


@pytest.mark.parametrize(
    "op, tamper",
    [
        (_op("mgs-exchange", "mgs_enumerate", "d4_cyclic"), _tamper_enumerate),
        (_op("walls-verify", "walls_random", "a5_example"), _tamper_walls),
    ],
    ids=["enumerate", "walls"],
)
def test_oracle_rejects_one_changed_c_vector(op, tamper):
    code, stdout = _run(op)
    assert ORACLE.check(op, code, stdout) is False
    with pytest.raises(OracleError):
        ORACLE.check(op, code, tamper(stdout))


def test_oracle_accepts_incomplete_verdict_only_where_expected():
    op = _op("walls-verify", "verify", "d4_cyclic")
    code, stdout = _run(op)
    assert code == 1 and ORACLE.check(op, code, stdout) is True
    strict = workloads.Op(op.command, op.problem, op.argv)
    with pytest.raises(OracleError):
        ORACLE.check(strict, code, stdout)

    # one more unrealized sequence than the known 4: the counts still add up
    # and every witness replays, but the wall method has lost a sequence
    lines = stdout.rstrip("\n").split("\n")
    head = re.fullmatch(r"(.*wall sequences )(\d+)", lines[1])
    found = re.fullmatch(r"(.*directed search )(\d+)", lines[3])
    lines[1] = head.group(1) + str(int(head.group(2)) - 1)
    lines[3] = found.group(1) + str(int(found.group(2)) - 1)
    lines.append(lines[4])
    with pytest.raises(OracleError, match="known limit 4"):
        ORACLE.check(op, code, "\n".join(lines) + "\n")


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "greenseq" or name.startswith("greenseq.")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_bindings_and_keeps_stdout(tmp_path):
    from greenseq import bounds, fho, rep

    ops = [
        _op("walls-verify", "verify", "a3_cyclic"),
        _op("hom-construct", "construct_max", "d4_cyclic"),
    ]
    plain = [_run(op) for op in ops]
    before = _bindings()
    original_hom_dim = rep.hom_dim
    tracer = Tracer()
    with tracer:
        assert fho.hom_dim is rep.hom_dim is not original_hom_dim
        assert bounds.is_maximal_fho is fho.is_maximal_fho
        traced = []
        for op in ops:
            tracer.begin_op(op.label)
            traced.append(_run(op))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain

    # self time is duration minus the time covered by child spans
    tracer.write(tmp_path)
    with open(tmp_path / "spans.csv", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    for op_id in range(len(ops)):
        stats, _ = tracer.totals([op_id])
        main = next(s for s in spans if s["op"] == str(op_id) and s["name"] == "cli.main")
        children = [s for s in spans if s["parent"] == main["span"]]
        duration = float(main["end_s"]) - float(main["start_s"])
        covered = sum(float(s["end_s"]) - float(s["start_s"]) for s in children)
        assert children
        assert stats["cli.main"].self_seconds == pytest.approx(duration - covered, abs=1e-6)


@pytest.mark.parametrize(
    "workload, silent",
    [("mgs-exchange", ("rep.", "walls.")), ("hom-construct", ("walls.",))],
)
def test_zero_traffic_predictions(workload, silent):
    tracer = Tracer()
    with tracer:
        for op in workloads.ops(workload, 7):
            tracer.begin_op(op.label)
            _run(op)
    stats, _ = tracer.totals(range(len(tracer.op_labels)))
    assert stats["cli.main"].calls == len(tracer.op_labels)
    assert not [name for name in stats if name.startswith(silent)]
