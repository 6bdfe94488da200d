"""Forward hom-orthogonal sequences and the three-way equivalence check.

A sequence M_1, ..., M_m of Schurian modules is weakly forward
hom-orthogonal when Hom(M_i, M_j) = 0 for i < j. Maximality can be read two
ways and both predicates are provided: `is_maximal_fho` is the unrestricted
insertion test (no Schurian module fits at any position, and nothing at all
is left over in the torsion-free class), while `is_fho_in_torsion_class`
restricts insertion candidates to the torsion class generated by the
sequence. The two agree on maximal sequences: a maximal one leaves nothing
in its torsion-free class, so its torsion class is the whole catalog.

In finite type the maximal sequences are the maximal chains of
torsion-free classes (Demonet-Iyama-Reading-Reiten-Thomas): brick c labels
the cover F > F' = F & ~out_mask(c) exactly when c is the one brick of F
with no map into F', and `enumerate_maximal_fho` walks only these edges,
with the walker of the green-sequence listing, `exchange.maximal_paths`.

Every check over a catalog reads the catalog's Hom table (`Catalog.hom`,
`Catalog.out_mask`, `Catalog.in_mask`), with modules named by their catalog
positions, so each Hom space is computed at most once per catalog. The
insertion tests all rest on one predicate, `insertion_window`: for a
candidate C and a sequence, let last_out be the last position C maps to
(Hom(C, M_t) != 0) and first_in the first position that maps to C
(Hom(M_t, C) != 0). C fits after the first t members exactly for
t = last_out + 1, ..., first_in, so it can be inserted iff
last_out < first_in.
"""

from __future__ import annotations

from typing import Sequence

from greenseq import exchange
from greenseq.errors import GenericityError
from greenseq.qp import QuiverWithPotential, b_matrix
from greenseq.rep import Catalog, Representation, hom_dim  # noqa: F401  (re-exported)

# random generic green paths `verify_theorem1` samples before the directed search
WALL_SAMPLES = 100


# an ordered, weakly forward hom-orthogonal sequence: its catalog modules
FhoSequence = tuple[Representation, ...]


def _torsion_free_mask(catalog: Catalog, seq: Sequence[int]) -> int:
    """F(M) as a bitmask over catalog positions, M = sum of seq."""
    reached = 0
    for s in seq:
        reached |= catalog.out_mask(s)
    return ((1 << len(catalog)) - 1) & ~reached


def _torsion_mask(catalog: Catalog, f_mask: int) -> int:
    """G(M) as a bitmask: the positions with no nonzero map into F(M)."""
    return sum(1 << i for i in range(len(catalog)) if not catalog.out_mask(i) & f_mask)


def is_weakly_fho(modules: Sequence[Representation]) -> bool:
    """All members Schurian and Hom(M_i, M_j) = 0 for every i < j.

    Computes only those Hom spaces, over a table of just the members.
    """
    mods = tuple(modules)
    if not mods:
        return True
    return _weakly_fho(Catalog(mods[0].algebra, mods), range(len(mods)))


def _weakly_fho(catalog: Catalog, seq: Sequence[int]) -> bool:
    """`is_weakly_fho` on catalog positions, read from the table."""
    later = 0
    for s in reversed(seq):
        if not catalog.schurian(s) or catalog.maps_into(s, later):
            return False
        later |= 1 << s
    return True


def insertion_window(catalog: Catalog, seq: Sequence[int], c: int) -> range:
    """The positions t where catalog module c fits after seq[:t].

    That is last_out + 1, ..., first_in, with last_out the last position c
    maps to (-1 if none) and first_in the first position that maps to c
    (len(seq) if none). Empty, so c cannot be inserted, iff
    last_out >= first_in.
    """
    maps_in = catalog.in_mask(c)
    first_in = len(seq)
    for t, s in enumerate(seq):
        if maps_in >> s & 1:
            first_in = t
            break
    maps_out = catalog.out_mask(c)
    last_out = -1
    for t in range(len(seq) - 1, -1, -1):
        if maps_out >> seq[t] & 1:
            last_out = t
            break
    return range(last_out + 1, first_in + 1)


def insertion_obstructions(
    modules: Sequence[Representation], candidate: Representation
) -> list[tuple[int, Representation, Representation, int]]:
    """Per position t, one witness (t, src, tgt, hom_dim) of nonzero Hom that
    blocks inserting the candidate there. Empty iff some position works.

    The witness is the first member of modules[:t] mapping to the candidate,
    else the first member of modules[t:] the candidate maps to."""
    # a Hom table over just the candidate (position 0) and the sequence
    table = Catalog(candidate.algebra, (candidate, *modules))
    seq, c = range(1, len(modules) + 1), 0
    window = insertion_window(table, seq, c)
    if window:
        return []
    mods = list(modules)
    first_in = window.stop - 1
    out = []
    for t in range(len(seq) + 1):
        if first_in < t:
            out.append((t, mods[first_in], candidate, table.hom(seq[first_in], c)))
        else:
            u = next(u for u in range(t, len(seq)) if table.hom(c, seq[u]))
            out.append((t, candidate, mods[u], table.hom(c, seq[u])))
    return out


def is_maximal_fho(modules: Sequence[Representation], catalog: Catalog) -> bool:
    """Unrestricted maximality: weakly FHO, empty torsion-free class, and no
    Schurian catalog module insertable at any position.

    Raises:
        ValueError: if some member is not a catalog member and equals none.
    """
    seq = catalog.indices(modules)
    return (
        _weakly_fho(catalog, seq)
        and not _torsion_free_mask(catalog, seq)
        and not any(insertion_window(catalog, seq, c) for c in catalog.schurian_indices())
    )


def is_fho_in_torsion_class(
    modules: Sequence[Representation], catalog: Catalog
) -> bool:
    """Maximality within G(M): weakly FHO and, at every cut point k, no
    Schurian member of G(M) lies in (prefix)^perp intersect perp(suffix).

    Raises:
        ValueError: if some member is not a catalog member and equals none.
    """
    seq = catalog.indices(modules)
    if not _weakly_fho(catalog, seq):
        return False
    g_mask = _torsion_mask(catalog, _torsion_free_mask(catalog, seq))
    return not any(
        insertion_window(catalog, seq, z)
        for z in catalog.schurian_indices()
        if g_mask >> z & 1
    )


def enumerate_maximal_fho(catalog: Catalog, budget: int = 1_000_000) -> list[FhoSequence]:
    """All maximal forward hom-orthogonal sequences over a complete catalog,
    each the tuple of its catalog modules.

    `exchange.maximal_paths` over the torsion-free classes F(seq), as masks
    over catalog positions, along their cover edges (see the module
    docstring) in brick index order, each class's computed once. Every path
    ends at F = 0: in finite type, a complete catalog gives every nonzero
    torsion-free class a lower cover.

    Raises:
        SearchBudgetExceeded: past `budget` path nodes, with the sequences
            found so far as `partial`.
        ValueError: if a path stops at a nonzero class, which only an
            incomplete catalog allows.
    """
    schurian, out_mask, modules = catalog.schurian_indices(), catalog.out_mask, catalog.modules

    def expand(free: int) -> list[tuple[int, int]]:
        inside = [x for x in schurian if free >> x & 1]
        below = [(c, free & ~out_mask(c)) for c in inside]
        return [(c, f) for c, f in below if all(out_mask(x) & f for x in inside if x != c)]

    def record(seq: list[int], free: int) -> FhoSequence:
        if free:
            left = [m.label or m.dims for x, m in enumerate(modules) if free >> x & 1]
            raise ValueError(
                f"incomplete catalog: the torsion-free class {left} has no lower cover"
            )
        return tuple([modules[i] for i in seq])

    every = (1 << len(catalog)) - 1
    return exchange.maximal_paths(every, expand, record, budget, "forward hom-orthogonal")


def verify_theorem1(
    qp: QuiverWithPotential,
    catalog: Catalog,
    budget: int = 1_000_000,
    rng_seed: int = 0,
) -> dict:
    """Check the three descriptions of maximal green sequences against each other.

    (1) c-vector sequences of all maximal green sequences of the exchange
    matrix, (2) dimension-vector sequences of all maximal forward
    hom-orthogonal sequences over the catalog, (3) wall-crossing sequences of
    generic green paths: `WALL_SAMPLES` random bases first, then a directed
    base search for any sequence of (1) or (2) that sampling missed. The
    report fails if any set disagrees or some sequence cannot be realized by
    a generic path.

    Returns:
        A JSON-friendly report dict; report["equal"] is the overall verdict.
    """
    # the wall layer serves this check alone, so `mgs --construct-max`,
    # which loads this module, does not compile it
    import random

    from greenseq import walls

    seed = exchange.initial_seed(qp.quiver)
    assert seed.b == b_matrix(qp.quiver)
    mgs = exchange.enumerate_green_sequences(seed, budget=budget)
    set_mgs = {tuple(s.c_vectors) for s in mgs}

    fho_seqs = enumerate_maximal_fho(catalog, budget=budget)
    set_fho = {tuple(m.dims for m in s) for s in fho_seqs}

    rng = random.Random(rng_seed)
    witnesses: list[dict] = []
    observed: dict[tuple, str] = {}
    for _ in range(WALL_SAMPLES):
        try:
            _, records = walls.random_generic_base(catalog, rng)
        except GenericityError as e:  # resampling exhausted
            witnesses.append({"kind": "sampling-error", "detail": str(e)})
            continue
        key = tuple(r.module.dims for r in records)
        observed.setdefault(key, "random")
    for key in sorted(set_mgs | set_fho):
        if key in observed:
            continue
        realized = walls.realize_sequence(catalog, key, rng)
        if realized is None:
            witnesses.append(
                {"kind": "unrealized", "sequence": [list(d) for d in key]}
            )
        else:
            observed[key] = "directed"
    set_walls = set(observed)

    for key in sorted(set_walls - (set_mgs | set_fho)):
        witnesses.append(
            {"kind": "extra-wall-sequence", "sequence": [list(d) for d in key]}
        )
    for key in sorted(set_mgs ^ set_fho):
        witnesses.append(
            {
                "kind": "mgs-fho-mismatch",
                "sequence": [list(d) for d in key],
                "in_mgs": key in set_mgs,
                "in_fho": key in set_fho,
            }
        )

    lengths = sorted(len(s) for s in fho_seqs)
    equal = (
        set_mgs == set_fho == set_walls
        and not witnesses
        and len(mgs) == len(fho_seqs)
    )
    return {
        "equal": equal,
        "mgs_count": len(mgs),
        "fho_count": len(fho_seqs),
        "wall_realized_count": len(set_walls),
        "realized_via": {via: list(observed.values()).count(via) for via in ("random", "directed")},
        "extremal_lengths": [lengths[0], lengths[-1]] if lengths else [0, 0],
        # every maximal sequence is also maximal in its torsion class (see
        # the module docstring), so the count is fho_count
        "maximal_also_maximal_in_torsion_class": len(fho_seqs),
        "sequences": [[list(d) for d in key] for key in sorted(set_fho)],
        "witnesses": witnesses,
    }
