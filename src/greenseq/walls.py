"""Semistability walls, green paths, crossing sequences, and compartments.

The wall of a module M is D(M) = {x : x . dim M = 0 and x . d <= 0 for every
submodule dimension vector d}. Green paths are affine lines x + t*(1,...,1),
each given by its base point x; the all-ones direction makes every wall
crossing time unique, so a path is described exactly by its ordered crossing
records.

All geometry is exact and runs on integers inside. A rational point is
multiplied by the lcm of its denominators, which keeps every sign the
walls test, so the sign pass and the crossing points are integer vectors;
feasibility questions go through a fraction-free phase-1 simplex on integer
rows (Bland's rule, so it terminates). Its tableau stores u, the slacks and
the right-hand side: each v column is the negated u column, and each
artificial column is its slack column times the row's sign (plus D in the
reduced costs). Every pivot keeps both relations, so the pivots are those
of the full tableau (`rational_feasible`). `Fraction` appears only at the
API edges: the crossing times and the points that are returned.

The walls of a catalog are built once, into a table kept in `Catalog.walls`
(`catalog_walls`). It holds each distinct normal and face vector once (on
a9, 63 vectors for 45 normals and 117 faces) and, per wall, the coordinate
sums and vector positions that its crossing test reads. `crossing_sequence`
takes one integer dot per distinct vector and tests every wall from those
dots with one sign rule, `_face_side`. It is the one sign pass: the
compartment of a base is read from its records, and a base on a wall is
the base of a path that meets the wall at t = 0.

The walls are computed from the modules alone: this layer imports neither
`exchange` nor `fho`, so `fho.verify_theorem1` compares wall crossings with
descriptions that share none of their code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from greenseq.errors import GenericityError
from greenseq.rep import Catalog, Representation, submodule_dimvecs

Vector = tuple[Fraction, ...]

# perturbations `realize_sequence` tries before giving up on genericity
REALIZE_ATTEMPTS = 20
# random bases have coordinates a/b with |a| <= BASE_SCALE and 1 <= b <= 7
BASE_SCALE = 400


class Wall(NamedTuple):
    module: Representation
    normal: tuple[int, ...]
    # the proper nonzero submodule dimension vectors, sorted (the order fixes
    # the constraint order of the feasibility solves)
    faces: tuple[tuple[int, ...], ...]


class CrossingRecord(NamedTuple):
    time: Fraction
    module: Representation
    interior: bool

    @property
    def dims(self) -> tuple[int, ...]:
        return self.module.dims


def wall_for(module: Representation) -> Wall:
    subs = submodule_dimvecs(module)
    return Wall(
        module=module,
        normal=module.dims,
        faces=tuple(sorted(d for d in subs if any(d) and d != module.dims)),
    )


# coordinate types `_scaled` reads without a Fraction: an int and a Fraction
# have an integer numerator and a positive denominator in lowest terms
_EXACT = frozenset((int, Fraction))


def _scaled(x: Sequence) -> tuple[tuple[int, ...], int]:
    """(L*x, L) with L the lcm of the denominators of x: an integer vector
    that is a positive multiple of x."""
    x = [v if type(v) in _EXACT else Fraction(v) for v in x]
    scale = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (scale // c.denominator) for c in x), scale


def _face_side(values: Sequence[int]) -> Optional[bool]:
    """The sign rule of D(M) at a point of its hyperplane.

    `values` holds x . d for the proper nonzero faces d, at a positive
    multiple of the point. The point is off D(M) (None) when one of them is
    positive; otherwise it is in the interior iff none of them is zero.
    """
    if values and max(values) > 0:
        return None
    return 0 not in values


class WallTable(NamedTuple):
    """The walls of a catalog's Schurian members, over the vectors they share.

    `vectors` holds each distinct normal and face once. Wall i has the row
    `rows[i]` = (s, S // s, k, faces): s is the coordinate sum of its normal,
    S the lcm of all the normal sums, k the position of the normal in
    `vectors`, and faces one (position, coordinate sum) pair per face, in
    the order of `walls[i].faces`.
    """

    walls: tuple[Wall, ...]
    vectors: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]


def catalog_walls(catalog: Catalog) -> WallTable:
    """The wall table of the Schurian catalog members, built once and kept
    in `catalog.walls`."""
    if catalog.walls is None:
        walls = [wall_for(catalog.modules[i]) for i in catalog.schurian_indices()]
        position: dict[tuple[int, ...], int] = {}

        def at(v: tuple[int, ...]) -> int:
            return position.setdefault(v, len(position))

        sums = [sum(w.normal) for w in walls]
        total = lcm(*sums)
        rows = tuple(
            (s, total // s, at(w.normal), tuple((at(d), sum(d)) for d in w.faces))
            for w, s in zip(walls, sums)
        )
        catalog.walls = WallTable(tuple(walls), tuple(position), rows)
    return catalog.walls


def crossing_sequence(base: Sequence, catalog: Catalog) -> list[CrossingRecord]:
    """Ordered wall crossings of the generic green path through base.

    For each Schurian catalog module the unique candidate time is computed;
    the crossing is retained when the point actually lies on the wall. The
    retained crossings must then have pairwise distinct times and interior
    points, otherwise the base was not generic.

    With B = L*base integral, a wall with normal n of sum s is met at
    t = -(B . n)/(s*L), at the point P/(s*L) with P = s*B - (B . n)*1. The
    catalog's wall table (`catalog_walls`) gives each distinct normal and
    face vector v once, so B . v is one integer dot per vector, and a face d
    has P . d = s*(B . d) - (B . n)*(1 . d) with no further dot. P . n = 0
    by construction, so the sign pass reads the faces only. The met walls
    are ordered, and checked for equal times, on the integer
    -(B . n)*(S/s) = t*S*L, with S the lcm of the normal sums; a Fraction
    is built only for the time of a returned record or of an error message.

    Raises:
        GenericityError: with `.colliding` set to the offending module pair
            (equal times) or single module (boundary point).
    """
    scaled, scale = _scaled(base)
    table = catalog_walls(catalog)
    dots = [sum(map(mul, scaled, v)) for v in table.vectors]
    met = []
    for wall, (s, stretch, k, faces) in zip(table.walls, table.rows):
        bn = dots[k]
        interior = _face_side([s * dots[f] - bn * ones for f, ones in faces])
        if interior is not None:
            met.append((-bn * stretch, wall.module, interior, bn, s))
    met.sort(key=itemgetter(0))
    for (key, a, _, bn, s), (next_key, b, _, _, _) in zip(met, met[1:]):
        if key == next_key:
            raise GenericityError(
                f"crossing times collide at t={Fraction(-bn, s * scale)} for "
                f"{a.label or a.dims} and {b.label or b.dims}",
                colliding=(a, b),
            )
    for _, module, interior, bn, s in met:
        if not interior:
            raise GenericityError(
                f"crossing of {module.label or module.dims} at "
                f"t={Fraction(-bn, s * scale)} is on the wall boundary",
                colliding=(module,),
            )
    return [
        CrossingRecord(time=Fraction(-bn, s * scale), module=module, interior=True)
        for _, module, _, bn, s in met
    ]


def crossings_to_json(records: Iterable[CrossingRecord]) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "t": str(r.time),
                "module": r.module.label or "",
                "dims": list(r.module.dims),
                "interior": r.interior,
            }
        )
    return out


# --------------------------------------------------------------------------
# exact rational feasibility (fraction-free phase-1 simplex, Bland's rule)

def _entering(
    reduced: list[int], n: int, signs: list[int], denom: int
) -> Optional[tuple[int, int, int]]:
    """Bland's entering column for `rational_feasible`, or None at the optimum.

    `reduced` is the stored reduced-cost row: u, the slacks, then the
    right-hand side. The scan takes the first negative reduced cost in the
    full column order u, v, slacks, artificials, and returns (that column's
    full index, the stored column it is read through, the factor it is read
    with).
    """
    rhs = len(reduced) - 1
    for j in range(n):
        if reduced[j] < 0:
            return j, j, 1
    for j in range(n):
        if reduced[j] > 0:
            return n + j, j, -1
    # the slacks: stored column j >= n is full column n + j
    for j in range(n, rhs):
        if reduced[j] < 0:
            return n + j, j, 1
    # the artificials, each read through its slack column j
    for j, sign in enumerate(signs, n):
        if sign * reduced[j] + denom < 0:
            return rhs + j, j, sign
    return None


def rational_feasible(n: int, ineqs: Sequence[tuple[Sequence[int], int]]) -> Optional[Vector]:
    """A rational x with a.x <= b for all ineqs, or None.

    The rows a and bounds b are integers. x is split into u - v with
    u, v >= 0, slacks turn the inequalities into equations, and a phase-1
    simplex with one artificial variable per row and Bland's pivoting rule
    decides feasibility. A row with b < 0 is negated first: its sign s_i is
    -1, else +1. The full column order is u, v, the slacks, the
    artificials, then the right-hand side.

    The tableau is held as integer numerators over one positive common
    denominator D, the determinant of the current basis (1 at the start).
    Pivoting is integer-preserving (Bareiss/Edmonds): with piv the pivot
    entry, every other row becomes (piv*row - f*pivot_row)/D, where f is the
    row's entry in the entering column, and D becomes piv; each of these
    divisions is exact, and asserted to be. The reduced costs, times D, are
    one more row of the tableau, updated by the same pivots.

    Only u, the slacks and the right-hand side are stored: n + m + 1 of the
    2n + 2m + 1 columns, for m rows. The other columns are derived by two
    relations that hold in the first tableau:
    - each v column is the negation of its u column;
    - the artificial column of row i is s_i times its slack column; in the
      reduced-cost row, where artificials cost 1 and slacks 0, this reads
      R_art = s_i*R_slack + D.
    The row update is linear, so every pivot keeps both relations; in the
    second, the D term becomes (piv*D - f*0)/D = piv, the new D. So each
    derived entry is the entry of the full tableau. Bland's scan
    (`_entering`) reads the reduced costs in the full column order, the
    ratio test reads the entering column through its stored partner and
    breaks ties on the basic variables' full indices, and the pivot updates
    the stored columns by that same entering column. The pivot path and the
    returned x are therefore those of the full tableau, and of the same
    simplex over Fractions.
    """
    m = len(ineqs)
    for a, b in ineqs:
        if len(a) != n:
            raise ValueError("constraint arity mismatch")
        if not isinstance(b, int) or not all(map(isinstance, a, repeat(int))):
            raise TypeError("constraint rows and bounds must be integers")
    # full index of the first artificial, n + rhs
    width = 2 * n + m
    # stored columns: u, the slacks, then the right-hand side at position rhs
    rhs = n + m
    tableau = []
    for i, (a, b) in enumerate(ineqs):
        row = [*a, *repeat(0, m), b]
        row[n + i] = 1
        tableau.append([-c for c in row] if b < 0 else row)
    signs = [-1 if b < 0 else 1 for _, b in ineqs]
    # reduced costs of the phase-1 objective (the sum of the artificials)
    # with every artificial basic: c_j - (sum of column j)
    reduced = [-c for c in map(sum, zip(*tableau))] or [0] * (rhs + 1)
    tableau.append(reduced)
    # row sums, for the exactness check of each pivot
    sums = [sum(row) for row in tableau]
    basis = [width + i for i in range(m)]
    denom = 1

    while (step := _entering(reduced, n, signs, denom)) is not None:
        entering, col, sign = step
        coefs = [sign * row[col] for row in tableau]
        if entering >= n + rhs:
            coefs[m] += denom
        leaving = -1
        best_num = best_den = 0
        for i in range(m):
            coef = coefs[i]
            if coef > 0:
                num = tableau[i][rhs]
                # num/coef against best_num/best_den, both denominators > 0
                if leaving < 0 or num * best_den < best_num * coef or (
                    num * best_den == best_num * coef and basis[i] < basis[leaving]
                ):
                    best_num, best_den = num, coef
                    leaving = i
        if leaving < 0:
            # phase-1 objective is bounded below by zero, so this cannot occur
            raise RuntimeError("phase-1 simplex reported unboundedness")
        prow = tableau[leaving]
        piv = coefs[leaving]
        psum = sums[leaving]
        for i, f in enumerate(coefs):
            if i == leaving or (not f and piv == denom):
                continue
            new = [(piv * c - f * d) // denom for c, d in zip(tableau[i], prow)]
            # floor division leaves remainders in [0, D): they are all zero
            # iff the row sums agree
            total = sum(new)
            assert denom * total == piv * sums[i] - f * psum, "inexact pivot"
            tableau[i] = new
            sums[i] = total
        reduced = tableau[m]
        denom = piv
        basis[leaving] = entering

    if any(tableau[i][rhs] for i in range(m) if basis[i] >= width):
        return None
    nums = [0] * (width + m)
    for i in range(m):
        nums[basis[i]] = tableau[i][rhs]
    # x = X/D with X integer and D > 0, so each row is checked as a.X <= b*D
    xs = [nums[j] - nums[n + j] for j in range(n)]
    for a, b in ineqs:
        assert sum(map(mul, xs, a)) <= b * denom
    return tuple(Fraction(v, denom) for v in xs)


def find_base_for_sequence(
    catalog: Catalog, dims_seq: Sequence[tuple[int, ...]]
) -> Optional[Vector]:
    """A base point whose green path crosses exactly the given walls in order.

    The crossing order, interior strictness and wall membership constraints
    are all homogeneous linear in the base, so strict inequalities are
    losslessly replaced by <= -1 and the question becomes exact rational
    feasibility. The returned base (if any) is re-verified by the caller via
    crossing_sequence; None means the sequence is not realizable this way.
    The walls are the catalog's (`catalog_walls`); a module with no wall
    there, not being Schurian, gets its own.
    """
    by_position = dict(zip(catalog.schurian_indices(), catalog_walls(catalog).walls))
    walls = []
    for dims in dims_seq:
        module = catalog.unique_by_dims(dims)
        walls.append(by_position.get(catalog.index(module)) or wall_for(module))
    if not walls:
        return None
    n = len(walls[0].normal)
    ineqs: list[tuple[list[int], int]] = []
    s = [sum(w.normal) for w in walls]
    for idx, w in enumerate(walls):
        # interior at the crossing point: for proper nonzero d != dims,
        # s_i*(x.d) - (x.normal)*(1.d) <= -1
        for d in w.faces:
            coeff = [s[idx] * d[c] - w.normal[c] * sum(d) for c in range(n)]
            ineqs.append((coeff, -1))
    for (i, a), (jdx, b) in zip(enumerate(walls), list(enumerate(walls))[1:]):
        # t_i < t_j  <=>  s_i*(x.n_j) - s_j*(x.n_i) <= -1
        coeff = [s[i] * b.normal[c] - s[jdx] * a.normal[c] for c in range(n)]
        ineqs.append((coeff, -1))
    return rational_feasible(n, ineqs)


def realize_sequence(
    catalog: Catalog,
    dims_seq: Sequence[tuple[int, ...]],
    rng: random.Random,
) -> Optional[tuple[Vector, list[CrossingRecord]]]:
    """A generic base whose crossing sequence is exactly dims_seq, or None.

    The feasibility solve pins the required crossings; the result can still
    sit on the boundary of an unrelated wall, so failed genericity is
    repaired by tiny rational perturbations (small enough to keep every
    feasibility constraint strictly satisfied).
    """
    base = find_base_for_sequence(catalog, dims_seq)
    if base is None:
        return None
    candidate = base
    for step in range(REALIZE_ATTEMPTS):
        try:
            records = crossing_sequence(candidate, catalog)
        except GenericityError:
            denom = 10**7 + step
            candidate = tuple(
                b + Fraction(rng.randint(-3, 3), denom) for b in base
            )
            continue
        if tuple(r.module.dims for r in records) != tuple(tuple(d) for d in dims_seq):
            return None
        return candidate, records
    return None


def random_rational_base(rng: random.Random, n: int) -> Vector:
    return tuple(
        Fraction(rng.randint(-BASE_SCALE, BASE_SCALE), rng.randint(1, 7)) for _ in range(n)
    )


def random_generic_base(
    catalog: Catalog, rng: random.Random, retries: int = 50
) -> tuple[Vector, list[CrossingRecord]]:
    """Sample bases until one passes the genericity checks.

    Raises:
        ValueError: if retries < 1.
        GenericityError: if every retry collided (the last one's error).
    """
    if retries < 1:
        raise ValueError(f"retries must be at least 1, got {retries}")
    n = catalog.algebra.quiver.n
    for attempt in range(retries):
        base = random_rational_base(rng, n)
        try:
            return base, crossing_sequence(base, catalog)
        except GenericityError:
            if attempt == retries - 1:
                raise


def compartment_signature(base: Sequence, catalog: Catalog) -> tuple:
    """Identity of the compartment containing base: the ordered walls already
    crossed at t < 0 (compartments are convex, so this is well defined).

    The path meets the wall with normal n at t = -(base . n)/(1 . n), which
    is 0 exactly when base is on its hyperplane; the crossing point is then
    base itself, so the face signs tested are those of base. A base in the interior of
    a wall thus gives a record at t = 0, and one on a wall's boundary, or
    on two walls, already fails `crossing_sequence`'s genericity checks.
    """
    records = crossing_sequence(base, catalog)
    for r in records:
        if r.time == 0:
            raise GenericityError(
                f"base lies on the wall of {r.module.label or r.dims}", colliding=(r.module,)
            )
    return tuple(r.module.dims for r in records if r.time < 0)
