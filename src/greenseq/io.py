"""JSON (de)serialization and problem-file loading.

Conventions:
  * rationals are encoded as strings "p/q" (or "p" when integral),
  * a quiver with potential is {"vertices": [...], "arrows": [{"id","src","tgt"}...],
    "potential": [{"coeff": "p/q", "cycle": [arrow ids]}...]},
  * a problem file wraps one qp plus run parameters, whose field prime must be
    a prime at most `MAX_FIELD_PRIME` (`check_field_prime`, which
    `rep.Algebra` runs too).

Loading a problem loads `errors`, `records` and `qp` only: neither the
exchange layer nor the module layer and its linear algebra (`linalg`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from greenseq.qp import Arrow, PotentialTerm, Quiver, QuiverWithPotential
from greenseq.records import Record

if TYPE_CHECKING:
    from greenseq.rep import Algebra


# Largest accepted field prime: the largest prime below 2**31.
MAX_FIELD_PRIME = 2**31 - 1


def is_prime(n: int) -> bool:
    """Trial division by 2, 3 and the numbers 6k +- 1 up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0 or n % 3 == 0:
        return n in (2, 3)
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def check_field_prime(p: int) -> None:
    """Raise ValueError unless p is a prime at most MAX_FIELD_PRIME."""
    if p > MAX_FIELD_PRIME:
        raise ValueError(f"field_prime {p} exceeds {MAX_FIELD_PRIME}")
    if not is_prime(p):
        raise ValueError(f"field_prime {p} is not prime")


def fraction_to_str(x: Fraction) -> str:
    """`str(Fraction(x))`; an int or a Fraction is written as it is."""
    if type(x) is Fraction or type(x) is int:
        return str(x)
    return str(Fraction(x))


def fraction_from_str(s: Any) -> Fraction:
    """An int, or a string "p/q" or decimal, as an exact rational.

    Exponent notation is rejected: `Fraction("1e400000000")` would build
    10**400000000.
    """
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if "e" in s or "E" in s:
            raise ValueError(f"not a rational: {s!r}")
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


def _integer(value: Any, what: str) -> int:
    """A JSON integer; a boolean or a float is an error, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _typed(value: Any, kind: type, what: str):
    """`value` itself if it is a JSON list (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        name = "a list" if kind is list else "an object"
        raise ValueError(f"{what} must be {name}, got {value!r}")
    return value


def _string(value: Any, what: str) -> str:
    """A JSON string; a number, null or list is an error, not str()-ed."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _object(value: Any, what: str, known: set[str]) -> dict:
    """`value` itself if it is a JSON object with no key outside `known`."""
    _typed(value, dict, what)
    unknown = set(value) - known
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def qp_from_json(data: dict) -> QuiverWithPotential:
    _object(data, "qp", {"vertices", "arrows", "potential"})
    for key in ("vertices", "arrows"):
        if key not in data:
            raise ValueError(f"qp is missing {key!r}")
    vertices = tuple(
        _integer(v, f"qp.vertices[{i}]")
        for i, v in enumerate(_typed(data["vertices"], list, "qp.vertices"))
    )
    arrows = []
    for i, a in enumerate(_typed(data["arrows"], list, "qp.arrows")):
        _object(a, f"qp.arrows[{i}]", {"id", "src", "tgt"})
        arrows.append(
            Arrow(
                id=_string(a["id"], f"qp.arrows[{i}].id"),
                src=_integer(a["src"], f"qp.arrows[{i}].src"),
                tgt=_integer(a["tgt"], f"qp.arrows[{i}].tgt"),
            )
        )
    potential = []
    for i, t in enumerate(_typed(data.get("potential", []), list, "qp.potential")):
        _object(t, f"qp.potential[{i}]", {"coeff", "cycle"})
        cycle = _typed(t["cycle"], list, f"qp.potential[{i}].cycle")
        potential.append(
            PotentialTerm(
                coeff=fraction_from_str(t.get("coeff", 1)),
                cycle=tuple(
                    _string(x, f"qp.potential[{i}].cycle[{j}]") for j, x in enumerate(cycle)
                ),
            )
        )
    quiver = Quiver(vertices=vertices, arrows=tuple(arrows))
    return QuiverWithPotential(quiver=quiver, potential=tuple(potential))


class ProblemFile(Record):
    """A fully validated problem description; mutable, so unhashable."""

    __slots__ = _fields = ("qp", "field_prime", "search_budget", "rng_seed")

    def __init__(
        self,
        qp: QuiverWithPotential,
        field_prime: int = 2,
        search_budget: int = 1_000_000,
        rng_seed: int = 0,
    ):
        self.qp = qp
        self.field_prime = field_prime
        self.search_budget = search_budget
        self.rng_seed = rng_seed

    __hash__ = None

    def algebra(self) -> Algebra:
        # imported here so that loading a problem does not load the module layer
        from greenseq.rep import algebra_from_qp

        return algebra_from_qp(self.qp, p=self.field_prime)


_KNOWN_KEYS = {"qp", "field_prime", "search_budget", "rng_seed"}


def problem_from_json(data: dict) -> ProblemFile:
    """Validate the whole problem object before any computation starts."""
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    _object(data, "problem", _KNOWN_KEYS)
    if "qp" not in data:
        raise ValueError("problem file is missing 'qp'")
    qp = qp_from_json(data["qp"])
    prime = _integer(data.get("field_prime", 2), "field_prime")
    check_field_prime(prime)
    budget = _integer(data.get("search_budget", 1_000_000), "search_budget")
    if budget <= 0:
        raise ValueError("search_budget must be positive")
    seed = _integer(data.get("rng_seed", 0), "rng_seed")
    return ProblemFile(qp=qp, field_prime=prime, search_budget=budget, rng_seed=seed)


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return problem_from_json(data)
