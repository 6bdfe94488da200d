"""The benchmark's workloads: which CLI commands each one runs, and why.

Every op is one `greenseq` CLI invocation on a shipped problem file. Ops run
one after another (a closed loop with a single client). The workload seed
becomes `--seed` for `walls` and `verify`; the `mgs` ops take no seed.
"""

from __future__ import annotations

from dataclasses import dataclass

PROBLEMS = ("a3_cyclic", "d4_cyclic", "a5_example", "a9_example")

# Command families. Each is also the name of a per-command timing metric
# (`<command>_s`) reported by the traced run.
COMMANDS = (
    "mgs_extrema",
    "mgs_classes",
    "mgs_enumerate",
    "construct_max",
    "verify",
    "walls_random",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    command: str
    problem: str
    argv: tuple[str, ...]
    # True for the ops that end with a documented partial or negative
    # verdict (exit 1) at the seed commit; see oracle.check.
    may_be_incomplete: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _path(problem: str) -> str:
    return f"problems/{problem}.json"


def _mgs_exchange(seed: int) -> list[Op]:
    del seed  # exchange-matrix enumeration takes no RNG seed
    ops = []
    for problem in ("a3_cyclic", "d4_cyclic", "a5_example"):
        ops.append(Op("mgs_extrema", problem, ("mgs", _path(problem), "extrema")))
        ops.append(Op("mgs_classes", problem, ("mgs", _path(problem), "classes")))
        ops.append(
            Op(
                "mgs_enumerate",
                problem,
                ("mgs", _path(problem), "enumerate", "--format", "json"),
            )
        )
    # Path enumeration cannot finish on a9 within this budget (about 7 s of
    # work at the seed commit); an exchange-graph DP would answer in full.
    ops.append(
        Op(
            "mgs_extrema",
            "a9_example",
            ("mgs", _path("a9_example"), "extrema", "--budget", "100000"),
            may_be_incomplete=True,
        )
    )
    return ops


def _hom_construct(seed: int) -> list[Op]:
    del seed  # cut construction is deterministic
    return [
        Op("construct_max", problem, ("mgs", _path(problem), "--construct-max"))
        for problem in ("d4_cyclic", "a5_example", "a9_example")
    ]


def _walls_verify(seed: int) -> list[Op]:
    s = str(seed)
    return [
        Op("walls_random", "a5_example", ("walls", _path("a5_example"), "--random", "200", "--seed", s)),
        Op("walls_random", "a9_example", ("walls", _path("a9_example"), "--random", "200", "--seed", s)),
        Op("verify", "a3_cyclic", ("verify", _path("a3_cyclic"), "--seed", s)),
        # Straight-line green paths miss 4 of the 112 d4 sequences, so the
        # verdict is FAIL (exit 1) until the wall side learns bent paths.
        Op("verify", "d4_cyclic", ("verify", _path("d4_cyclic"), "--seed", s), may_be_incomplete=True),
    ]


WORKLOADS = {
    "mgs-exchange": _mgs_exchange,
    "hom-construct": _hom_construct,
    "walls-verify": _walls_verify,
}


def ops(workload: str, seed: int) -> list[Op]:
    """The ordered op list of one pass through `workload`."""
    return WORKLOADS[workload](seed)


def problems(workload: str) -> list[str]:
    """The problem files a workload touches, for the set-up probe."""
    seen = {op.problem for op in ops(workload, 0)}
    return [p for p in PROBLEMS if p in seen]
