"""JSON (de)serialization and problem-file loading.

Conventions:
  * rationals are encoded as strings "p/q" (or "p" when integral),
  * a quiver with potential is {"vertices": [...], "arrows": [{"id","src","tgt"}...],
    "potential": [{"coeff": "p/q", "cycle": [arrow ids]}...]},
  * a problem file wraps one qp plus run parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from greenseq.linalg import MAX_FIELD_PRIME, is_prime
from greenseq.qp import Arrow, PotentialTerm, Quiver, QuiverWithPotential
from greenseq.rep import Algebra, algebra_from_qp


def fraction_to_str(x: Fraction) -> str:
    return str(Fraction(x))


def fraction_from_str(s: Any) -> Fraction:
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {s!r}") from None
    raise ValueError(f"not a rational: {s!r}")


def qp_to_json(qp: QuiverWithPotential) -> dict:
    return {
        "vertices": list(qp.quiver.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in qp.quiver.arrows],
        "potential": [
            {"coeff": fraction_to_str(t.coeff), "cycle": list(t.cycle)}
            for t in qp.potential
        ],
    }


def qp_from_json(data: dict) -> QuiverWithPotential:
    if not isinstance(data, dict):
        raise ValueError("qp must be an object")
    for key in ("vertices", "arrows"):
        if key not in data:
            raise ValueError(f"qp is missing {key!r}")
    vertices = tuple(int(v) for v in data["vertices"])
    arrows = tuple(
        Arrow(id=str(a["id"]), src=int(a["src"]), tgt=int(a["tgt"]))
        for a in data["arrows"]
    )
    potential = tuple(
        PotentialTerm(
            coeff=fraction_from_str(t.get("coeff", 1)),
            cycle=tuple(str(x) for x in t["cycle"]),
        )
        for t in data.get("potential", [])
    )
    quiver = Quiver(vertices=vertices, arrows=arrows)
    return QuiverWithPotential(quiver=quiver, potential=potential)


@dataclass
class ProblemFile:
    """A fully validated problem description."""

    qp: QuiverWithPotential
    field_prime: int = 2
    search_budget: int = 1_000_000
    rng_seed: int = 0

    def algebra(self) -> Algebra:
        return algebra_from_qp(self.qp, p=self.field_prime)


_KNOWN_KEYS = {"qp", "field_prime", "search_budget", "rng_seed"}


def problem_from_json(data: dict) -> ProblemFile:
    """Validate the whole problem object before any computation starts."""
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    if "qp" not in data:
        raise ValueError("problem file is missing 'qp'")
    qp = qp_from_json(data["qp"])
    prime = int(data.get("field_prime", 2))
    if prime > MAX_FIELD_PRIME:
        raise ValueError(f"field_prime {prime} exceeds {MAX_FIELD_PRIME}")
    if not is_prime(prime):
        raise ValueError(f"field_prime {prime} is not prime")
    budget = int(data.get("search_budget", 1_000_000))
    if budget <= 0:
        raise ValueError("search_budget must be positive")
    seed = int(data.get("rng_seed", 0))
    return ProblemFile(qp=qp, field_prime=prime, search_budget=budget, rng_seed=seed)


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return problem_from_json(data)
