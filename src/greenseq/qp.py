"""Quivers with potential and their Jacobian relations.

Mutation of a quiver with potential lives in `greenseq.qp_mutation`, which
only the reflection functors (`reflect`) load.

Conventions used throughout the package:

* Paths and potential cycles are stored in traversal order: the tuple
  (a, b, c) means "traverse arrow a, then b, then c", so consecutive arrows
  satisfy tgt(a) = src(b). Algebraists writing composition right to left
  would spell the same path "cba".
* Potential terms are cyclic words; two terms equal up to rotation are the
  same term and get combined.
* Coefficients are exact `fractions.Fraction` values. Input files use
  coefficient 1, but mutation can rescale, so intermediate potentials may
  carry other nonzero rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from greenseq.errors import InvalidQuiverError
from greenseq.records import FrozenRecord

Path = tuple[str, ...]


class Arrow(NamedTuple):
    id: str
    src: int
    tgt: int


class Quiver(FrozenRecord):
    """A finite quiver without loops or 2-cycles.

    The order of `vertices` fixes the coordinate order of every dimension
    vector and exchange-matrix row in the package. `==` and `hash` read
    `vertices` and `arrows` only.
    """

    _fields = ("vertices", "arrows")
    # `_pos` and `_arrow` are lookup tables built from the two fields
    __slots__ = _fields + ("_pos", "_arrow")

    def __init__(self, vertices: tuple[int, ...], arrows: tuple[Arrow, ...]):
        self._init(
            vertices, arrows, {v: i for i, v in enumerate(vertices)}, {a.id: a for a in arrows}
        )
        if len(set(vertices)) != len(vertices):
            raise InvalidQuiverError("duplicate vertex labels")
        ids = [a.id for a in arrows]
        if len(set(ids)) != len(ids):
            raise InvalidQuiverError("duplicate arrow ids")
        vset = set(vertices)
        pairs = set()
        for a in arrows:
            if a.src not in vset or a.tgt not in vset:
                raise InvalidQuiverError(f"arrow {a.id} touches unknown vertex")
            if a.src == a.tgt:
                raise InvalidQuiverError(f"loop at vertex {a.src} (arrow {a.id})")
            pairs.add((a.src, a.tgt))
        for (s, t) in pairs:
            if (t, s) in pairs:
                raise InvalidQuiverError(f"2-cycle between vertices {s} and {t}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def pos(self, v: int) -> int:
        """Coordinate index of a vertex label."""
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"{v!r} is not a vertex") from None

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self._arrow[arrow_id]
        except KeyError:
            raise KeyError(f"no arrow with id {arrow_id!r}") from None

    def arrows_out(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.src == v]

    def arrows_in(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.tgt == v]


class PotentialTerm(NamedTuple):
    coeff: Fraction
    cycle: Path  # arrow ids in traversal order; closed and composable


def _canonical_rotation(cycle: Path) -> Path:
    rots = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rots)


def combine_terms(terms: Iterable[PotentialTerm]) -> tuple[PotentialTerm, ...]:
    """Merge terms equal up to rotation, dropping zero coefficients."""
    acc: dict[Path, Fraction] = {}
    for t in terms:
        key = _canonical_rotation(t.cycle)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(t.coeff)
    out = [
        PotentialTerm(coeff=c, cycle=cyc)
        for cyc, c in sorted(acc.items())
        if c != 0
    ]
    return tuple(out)


def _check_cycle(quiver: Quiver, cyc: Path) -> None:
    if not cyc:
        raise InvalidQuiverError("empty potential cycle")
    arrows = [quiver.arrow(aid) for aid in cyc]
    for a, b in zip(arrows, arrows[1:] + arrows[:1]):
        if a.tgt != b.src:
            raise InvalidQuiverError(f"potential cycle {cyc} is not a composable closed path")


class QuiverWithPotential(FrozenRecord):
    """A quiver and its potential, with terms equal up to rotation combined."""

    __slots__ = _fields = ("quiver", "potential")

    def __init__(self, quiver: Quiver, potential: tuple[PotentialTerm, ...] = ()):
        for t in potential:
            _check_cycle(quiver, t.cycle)
        self._init(quiver, combine_terms(potential))

    @property
    def cycle_count(self) -> int:
        """Number of potential cycles (the k of the length bounds)."""
        return len(self.potential)


class Relation(NamedTuple):
    """A linear combination of parallel paths, stored in traversal order.

    `arrow` records which cyclic derivative produced the relation (empty for
    relations supplied directly).
    """

    terms: tuple[tuple[Fraction, Path], ...]
    arrow: str = ""

    def src_tgt(self, quiver: Quiver) -> tuple[int, int]:
        coeff, path = self.terms[0]
        return quiver.arrow(path[0]).src, quiver.arrow(path[-1]).tgt


def _combine_paths(parts: Iterable[tuple[Fraction, Path]]) -> tuple[tuple[Fraction, Path], ...]:
    acc: dict[Path, Fraction] = {}
    for coeff, path in parts:
        acc[path] = acc.get(path, Fraction(0)) + coeff
    return tuple((c, p) for p, c in sorted(acc.items()) if c != 0)


def jacobian_relations(qp: QuiverWithPotential) -> tuple[Relation, ...]:
    """Cyclic-derivative relations of the potential, one per arrow in it.

    For an occurrence of arrow `a` in a cycle, the derivative contributes the
    remainder of the cycle read in traversal order from tgt(a) around to
    src(a). For the oriented triangle with potential the single 3-cycle this
    yields the three paths of length two, i.e. rad^2 = 0.
    """
    per_arrow: dict[str, list[tuple[Fraction, Path]]] = {}
    for term in qp.potential:
        cyc = term.cycle
        m = len(cyc)
        for idx, aid in enumerate(cyc):
            remainder = cyc[idx + 1:] + cyc[:idx]
            if not remainder:
                raise InvalidQuiverError("cannot derive a length-1 cycle (loop)")
            per_arrow.setdefault(aid, []).append((term.coeff, remainder))
    relations = []
    for aid in sorted(per_arrow):
        combined = _combine_paths(per_arrow[aid])
        relations.append(Relation(terms=combined, arrow=aid))
    return tuple(relations)


def b_matrix(quiver: Quiver) -> tuple[tuple[int, ...], ...]:
    n = quiver.n
    b = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        b[quiver.pos(a.src)][quiver.pos(a.tgt)] += 1
        b[quiver.pos(a.tgt)][quiver.pos(a.src)] -= 1
    return tuple(tuple(row) for row in b)
