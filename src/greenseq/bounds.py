"""Length bounds for maximal green sequences via cuts and Hom cycles.

A cut deletes one arrow from each potential cycle. The catalog modules that
vanish on the deleted arrows form a forward hom-orthogonal sequence once
ordered against their Hom digraph, which exhibits a lower bound for the
maximal length. Vertex-disjoint cycles in the Hom digraph obstruct long
sequences and give an upper bound. The Hom digraph is read only through the
catalog table's row masks (`Catalog.out_mask`), with self-Homs cleared.

`bounds_report` returns the report as its JSON payload, a dict of plain JSON
values: `n`, `k`, `indec_count`, the extrema, the bounds, `cycle_count`,
`conjecture_holds`, the `cuts` rows and the `hom_cycles`. `report_table`
renders that dict as text.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from typing import Optional, Sequence

from .errors import NonStringAlgebraError, SearchBudgetExceeded, UnsupportedPotentialError
from .exchange import initial_seed, mgs_summary
from .fho import FhoSequence, is_maximal_fho
from .linalg import is_zero
from .qp import QuiverWithPotential
from .rep import Catalog, Representation


# a cut: the set of deleted arrow ids, one from each potential cycle
Cut = frozenset[str]


def cuts(qp: QuiverWithPotential) -> list[Cut]:
    """All cuts of the potential, one deleted arrow per cycle.

    Each cut is the set of its deleted arrow ids; the distinct sets of the
    picks, in the order the picks first give them. With an empty potential
    the only pick is empty, so the only cut deletes nothing.
    """
    picks = itertools.product(*(term.cycle for term in qp.potential))
    return list(dict.fromkeys(map(frozenset, picks)))


def vanishes_on_cut(x: Representation, cut: Cut) -> bool:
    """True iff the module's matrices are zero on every deleted arrow."""
    return all(is_zero(x.mat(aid)) for aid in cut)


def c_modules(cut: Cut, catalog: Catalog) -> list[int]:
    """Catalog indices of the modules supported away from the deleted arrows:
    every member less those nonzero on a deleted arrow (`Catalog.arrow_mask`),
    so each module is tested once per arrow, not once per cut."""
    hit = 0
    for aid in cut:
        hit |= catalog.arrow_mask(aid)
    return _members(((1 << len(catalog)) - 1) & ~hit)


def module_diagram(x: Representation, cut: Cut) -> str:
    """Orientation word of the deleted arrows along the module's string walk.

    Reading the walk left to right, each deleted-arrow letter contributes '>'
    (direct) or '<' (inverse); letters on surviving arrows collapse away. A
    module that vanishes on the deleted arrows yields the empty word.
    """
    if not x.walk:
        raise NonStringAlgebraError(f"module {x.label or x.dims} carries no string walk")
    _, word = x.walk
    return "".join((">" if s > 0 else "<") for aid, s in word if aid in cut)


def is_alternating(diagram: str) -> bool:
    return all(a != b for a, b in zip(diagram, diagram[1:]))


def assem_tilted(qp: QuiverWithPotential, cut: Cut, catalog: Catalog) -> bool:
    """Orientation test for a cut (its deleted arrows) of a triangle potential.

    True iff every catalog module's diagram alternates between '>' and '<'.
    Only defined when every cycle of `qp.potential` is a triangle; other shapes
    raise, and `bounds_report` falls back to the acyclicity check instead.
    """
    if any(len(term.cycle) != 3 for term in qp.potential):
        raise UnsupportedPotentialError(
            "orientation test only covers potentials made of triangles"
        )
    return all(is_alternating(module_diagram(m, cut)) for m in catalog.modules)


def _members(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _reverse_topological(catalog: Catalog, indices: Sequence[int]) -> Optional[list[int]]:
    """Order `indices` so every nonzero Hom points backward; None if their Hom
    digraph has a cycle. Emits the smallest remaining index whose row mask,
    self bit cleared, misses the remaining set."""
    remaining = sum(1 << i for i in indices)
    order: list[int] = []
    while remaining:
        for v in _members(remaining):
            if not catalog.out_mask(v) & remaining & ~(1 << v):
                break
        else:
            return None
        order.append(v)
        remaining &= ~(1 << v)
    return order


def construct_max_sequence(cut: Cut, catalog: Catalog) -> Optional[FhoSequence]:
    """The forward hom-orthogonal sequence carried by a cut, or None.

    Takes the modules that vanish on the cut's deleted arrows and orders them
    right-to-left along the Hom digraph read from the table's row masks
    (`_reverse_topological`), as a tuple of catalog modules. Returns None
    when that digraph has a cycle (the cut carries no such sequence).
    """
    order = _reverse_topological(catalog, c_modules(cut, catalog))
    if order is None:
        return None
    return tuple(catalog.modules[i] for i in order)


def _cuts_within(qp: QuiverWithPotential, budget: int) -> list[Cut]:
    """`cuts(qp)`, once the cut choices, the product of the potential's cycle
    lengths, are within the budget; past it, SearchBudgetExceeded is raised
    before any cut is built."""
    choices = prod(len(term.cycle) for term in qp.potential)
    if choices > budget:
        raise SearchBudgetExceeded(f"{choices} cut choices exceed the search budget {budget}")
    return cuts(qp)


def _maximal_sequence(cut: Cut, catalog: Catalog) -> Optional[FhoSequence]:
    """The cut's sequence if it passes the full maximality check
    (`is_maximal_fho`), else None."""
    seq = construct_max_sequence(cut, catalog)
    if seq is not None and is_maximal_fho(seq, catalog):
        return seq
    return None


def maximal_cut_sequences(
    qp: QuiverWithPotential, catalog: Catalog, budget: int = 1_000_000
) -> list[tuple[Cut, Optional[FhoSequence]]]:
    """Each cut with the sequence it carries, kept only if it passes the full
    maximality check (`is_maximal_fho`); None otherwise.

    The budget bounds the cut choices (`_cuts_within`).
    """
    return [(cut, _maximal_sequence(cut, catalog)) for cut in _cuts_within(qp, budget)]


def longest_maximal_cut(
    qp: QuiverWithPotential, catalog: Catalog, budget: int = 1_000_000
) -> Optional[tuple[Cut, FhoSequence]]:
    """The longest entry of `maximal_cut_sequences` that keeps a sequence,
    the earliest in `cuts` order among equal lengths; None if no cut keeps one.

    A cut's sequence, when it has one, orders all of the cut's `c_modules`.
    So the cuts are tried longest first, by a stable sort that keeps `cuts`
    order among equal lengths, and the search stops at the first cut whose
    sequence passes the maximality check. The budget bounds the cut choices
    (`_cuts_within`). The tried cut's `c_modules` are taken again inside
    `construct_max_sequence`, which keeps that step one call; the repeat is
    a bit test per catalog member, once per cut tried.
    """
    ranked = sorted(_cuts_within(qp, budget), key=lambda cut: -len(c_modules(cut, catalog)))
    for cut in ranked:
        seq = _maximal_sequence(cut, catalog)
        if seq is not None:
            return cut, seq
    return None


def triangle_seed_cycles(qp: QuiverWithPotential, catalog: Catalog) -> list[tuple[int, ...]]:
    """Hom 3-cycles formed by the arrow modules of each triangle of the potential.

    Each triangle of the potential turns its three arrow string modules into a
    directed Hom cycle; these are the canonical disjoint cycles to start from.
    Triangles whose arrow modules are missing or fail the Hom test are skipped.
    """
    by_arrow: dict[str, int] = {}
    for i, m in enumerate(catalog.modules):
        if m.walk and len(m.walk[1]) == 1:
            by_arrow[m.walk[1][0][0]] = i
    out: list[tuple[int, ...]] = []
    for term in qp.potential:
        if len(term.cycle) != 3:
            continue
        try:
            tri = tuple(by_arrow[aid] for aid in term.cycle)
        except KeyError:
            continue
        if len(set(tri)) != 3 or not all(catalog.schurian(i) for i in tri):
            continue
        for order in (tri, (tri[0], tri[2], tri[1])):
            if all(
                catalog.out_mask(order[t]) >> order[(t + 1) % 3] & 1 for t in range(3)
            ):
                out.append(_canonical_cycle(order))
                break
    return out


def _canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _short_cycles(catalog: Catalog, mask: int) -> list[tuple[int, ...]]:
    """All directed 2- and 3-cycles of the Hom digraph on the bits of mask,
    canonically rotated and sorted."""
    found = set()
    for i in _members(mask):
        for j in _members(catalog.out_mask(i) & mask & ~(1 << i)):
            if j > i and catalog.out_mask(j) >> i & 1:
                found.add((i, j))
            for k in _members(catalog.out_mask(j) & mask & ~(1 << i | 1 << j)):
                if catalog.out_mask(k) >> i & 1:
                    found.add(_canonical_cycle((i, j, k)))
    return sorted(found, key=lambda c: (len(c), c))


def disjoint_hom_cycles(
    catalog: Catalog, seed_cycles: Sequence[tuple[int, ...]] = ()
) -> list[tuple[int, ...]]:
    """A vertex-disjoint family of directed cycles in the nonzero-Hom digraph.

    Restricted to Schurian modules, self-Homs excluded. Greedy over short
    cycles with deterministic tie-breaks, so the family certifies its size but
    is not promised to be maximum. Optional seed cycles (already validated,
    e.g. from `triangle_seed_cycles`) are taken first.
    """
    schurian = sum(1 << i for i in catalog.schurian_indices())
    taken: list[tuple[int, ...]] = []
    used: set[int] = set()
    for cyc in itertools.chain(seed_cycles, _short_cycles(catalog, schurian)):
        if used & set(cyc):
            continue
        taken.append(tuple(cyc))
        used.update(cyc)
    return taken


def report_table(report: dict) -> str:
    """The report (`bounds_report`) as aligned `name  value` lines: the sizes,
    the extrema ("unknown" when not enumerated), both bounds, the cycle count
    and the conjecture verdict ("undecided" when the maximum is not known)."""
    known = report["extrema_known"]
    verdict = report["conjecture_holds"]
    rows = [
        ("vertices", report["n"]),
        ("potential cycles", report["k"]),
        ("indecomposables", report["indec_count"]),
        ("min length", report["min_len"] if known else "unknown"),
        ("max length", report["max_len"] if known else "unknown"),
        ("lower bound", report["lower_bound"]),
        ("upper bound", report["upper_bound"]),
        ("achieved", report["achieved_max"]),
        ("disjoint hom cycles", report["cycle_count"]),
        ("max equals lower bound", "undecided" if verdict is None else str(verdict).lower()),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def bounds_report(
    qp: QuiverWithPotential,
    catalog: Catalog,
    budget: int = 1_000_000,
    enumerate_extrema: bool = True,
) -> dict:
    """Assemble lower/upper bounds and (budget permitting) the exact extrema.

    Lower bound: the longest cut-carried sequence that passes the full
    maximality check. Upper bound: the smaller of `indec - k` (valid when the
    potential is made of triangles and the catalog is a full type-A count,
    where no sequence is shorter than n + k) and `indec - c` with c the number
    of vertex-disjoint Hom cycles found. The exact extrema come from the
    exchange-graph summary (`mgs_summary`, whose budget counts
    exchange-graph states); they are skipped when `enumerate_extrema` is
    False and marked unknown when the budget runs out. The same budget bounds
    the cut choices (`maximal_cut_sequences`). The conjecture flag compares
    the exact (or certified) maximum with the lower bound.

    The report is its JSON payload, a dict with the keys, in order: `n`, `k`,
    `indec_count`, `min_len` and `max_len` (None unless `extrema_known`),
    `extrema_known`, `lower_bound`, `upper_bound`, `achieved_max` (the lower
    bound again), `cycle_count`, `conjecture_holds` (None when the maximum is
    not known), `cuts` (one row per cut: `deleted`, `c_count`, `tilted`,
    `length` and, with a length, `labels`) and `hom_cycles` (module labels).
    """
    n = qp.quiver.n
    k = qp.cycle_count
    indec = len(catalog.modules)

    cut_rows: list[dict] = []
    lower = 0
    for cut, seq in maximal_cut_sequences(qp, catalog, budget):
        row: dict = {"deleted": sorted(cut)}
        row["c_count"] = len(c_modules(cut, catalog))
        try:
            row["tilted"] = assem_tilted(qp, cut, catalog)
        except UnsupportedPotentialError:
            row["tilted"] = None
        if seq is not None:
            row["length"] = len(seq)
            row["labels"] = [m.label for m in seq]
            lower = max(lower, len(seq))
        else:
            row["length"] = None
        cut_rows.append(row)

    hom_cycles = disjoint_hom_cycles(
        catalog, seed_cycles=triangle_seed_cycles(qp, catalog)
    )
    cycle_count = len(hom_cycles)
    upper = indec - cycle_count
    if all(len(t.cycle) == 3 for t in qp.potential) and indec == comb(n + 1, 2):
        upper = min(upper, indec - k)

    min_len: Optional[int] = None
    max_len: Optional[int] = None
    extrema_known = False
    if enumerate_extrema:
        try:
            summary = mgs_summary(initial_seed(qp.quiver), budget=budget)
            min_len, max_len = summary.min_len, summary.max_len
            extrema_known = True
        except SearchBudgetExceeded:
            pass

    if extrema_known:
        known_max: Optional[int] = max_len
    elif lower == upper:
        # the constructed sequence meets the obstruction bound, so the
        # maximum is pinned without enumeration
        known_max = lower
    else:
        known_max = None
    conjecture = None if known_max is None else (known_max == lower)

    return {
        "n": n,
        "k": k,
        "indec_count": indec,
        "min_len": min_len,
        "max_len": max_len,
        "extrema_known": extrema_known,
        "lower_bound": lower,
        "upper_bound": upper,
        "achieved_max": lower,
        "cycle_count": cycle_count,
        "conjecture_holds": conjecture,
        "cuts": cut_rows,
        "hom_cycles": [[catalog.modules[i].label for i in cyc] for cyc in hom_cycles],
    }
