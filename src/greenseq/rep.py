"""Representations of bound quivers over a prime field.

A representation assigns to each vertex a vector space F_p^d and to each
arrow a matrix of shape dims[tgt] x dims[src]. All relations of the algebra
must evaluate to zero; this is checked at construction time.

String modules are enumerated as reduced walks avoiding relations, which is
complete for the supported string algebras (gentle cluster-tilted type A and
cyclic Nakayama quotients); finite type means there are no bands to worry
about. An input with bands has strings of every length, so the enumeration
stops on a budget of letters, in time and memory linear in that budget.

Hom dimensions come from one of two sources. `hom_dim` solves the
commuting-square equations of any two representations. Between string
modules, Crawley-Boevey's basis of maps (*Maps between representations of
zero-relation algebras*, J. Algebra 126, 1989) makes dim Hom(M(C), M(D)) a
count instead: the number of pairs of a factor substring of C and an image
substring of D that are equal as strings, up to inversion (`_substrings`
states when an occurrence is which). A catalog fills a Hom entry by that
count when both modules carry a string walk, as `string_catalog`'s members
do, and calls `hom_dim` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from typing import Iterable, Optional, Sequence

from greenseq import linalg
from greenseq.errors import NonStringAlgebraError, SearchBudgetExceeded
from greenseq.io import check_field_prime
from greenseq.linalg import Matrix
from greenseq.qp import Quiver, QuiverWithPotential, Relation, jacobian_relations
from greenseq.records import FrozenRecord, Record


class Algebra(FrozenRecord):
    """A bound quiver algebra: quiver, relations, ground prime."""

    __slots__ = _fields = ("quiver", "relations", "p")

    def __init__(self, quiver: Quiver, relations: tuple[Relation, ...], p: int = 2):
        self._init(quiver, relations, p)
        check_field_prime(p)


def algebra_from_qp(qp: QuiverWithPotential, p: int = 2) -> Algebra:
    """The Jacobian algebra of a quiver with potential over F_p."""
    return Algebra(quiver=qp.quiver, relations=jacobian_relations(qp), p=p)


def _coeff_mod(c: Fraction, p: int) -> int:
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"coefficient {c} not defined mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


class Representation(FrozenRecord):
    """A representation of `algebra`, checked against its relations.

    `==` and `hash` read `algebra`, `dims` and `mats` only: `label`, `walk`
    and the table `_mat` are left out.
    """

    # `walk` is (start vertex, word of (arrow id, +-1)) when built by
    # `string_module`, else (); a `Catalog` reads Hom between two modules
    # with walks from the walks
    _fields = ("algebra", "dims", "mats", "label", "walk")
    _compared = _fields[:3]
    # `_mat` is `mats` as a dict, for `mat`
    __slots__ = _fields + ("_mat",)

    def __init__(
        self,
        algebra: Algebra,
        dims: tuple[int, ...],
        mats: tuple[tuple[str, Matrix], ...],
        label: str = "",
        walk: tuple = (),
    ):
        quiver = algebra.quiver
        if len(dims) != quiver.n:
            raise ValueError("dims length does not match vertex count")
        mat_map = dict(mats)
        self._init(algebra, dims, mats, label, walk, mat_map)
        if set(mat_map) != {a.id for a in quiver.arrows}:
            raise ValueError("mats must cover exactly the arrows of the quiver")
        for a in quiver.arrows:
            m = mat_map[a.id]
            r = len(m)
            c = len(m[0]) if m else 0
            dr = dims[quiver.pos(a.tgt)]
            dc = dims[quiver.pos(a.src)]
            if r != dr or (r > 0 and c != dc) or (r == 0 and dc and m):
                raise ValueError(
                    f"arrow {a.id}: matrix shape {(r, c)} != {(dr, dc)}"
                )
        bad = check_relations(self)
        if bad is not None:
            raise ValueError(f"relation from arrow {bad.arrow!r} violated")

    def mat(self, arrow_id: str) -> Matrix:
        return self._mat[arrow_id]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def dim_at(self, v: int) -> int:
        return self.dims[self.algebra.quiver.pos(v)]


def make_rep(
    algebra: Algebra,
    dims: Sequence[int],
    mats: dict[str, Sequence[Sequence[int]]],
    label: str = "",
    walk: tuple = (),
) -> Representation:
    """Build a Representation from plain lists, normalizing mod p."""
    p = algebra.p
    norm = tuple(
        (aid, tuple(tuple(int(x) % p for x in row) for row in mats.get(aid, ())))
        for aid in sorted(a.id for a in algebra.quiver.arrows)
    )
    fixed = []
    for aid, m in norm:
        a = algebra.quiver.arrow(aid)
        dr = dims[algebra.quiver.pos(a.tgt)]
        dc = dims[algebra.quiver.pos(a.src)]
        if not m and dr:
            m = tuple(tuple(0 for _ in range(dc)) for _ in range(dr))
        fixed.append((aid, m))
    return Representation(
        algebra=algebra,
        dims=tuple(int(d) for d in dims),
        mats=tuple(fixed),
        label=label,
        walk=walk,
    )


def eval_path(rep: Representation, path: Sequence[str]) -> Matrix:
    """Evaluate a traversal-order path as a matrix (last arrow acts last)."""
    quiver = rep.algebra.quiver
    rows = rep.dims[quiver.pos(quiver.arrow(path[-1]).tgt)]
    cols = rep.dims[quiver.pos(quiver.arrow(path[0]).src)]
    m = rep.mat(path[0])
    for aid in path[1:]:
        if not m or not m[0]:
            # a zero-dimensional intermediate vertex kills the product
            return linalg.zeros(rows, cols)
        m = linalg.mat_mul(rep.mat(aid), m, rep.algebra.p)
    return m


def eval_terms(
    rep: Representation, terms: Iterable[tuple[Fraction, Sequence[str]]], rows: int, cols: int
) -> Matrix:
    """Evaluate a linear combination of parallel paths as a rows x cols matrix."""
    p = rep.algebra.p
    acc = [[0] * cols for _ in range(rows)]
    for coeff, path in terms:
        c = _coeff_mod(coeff, p)
        m = eval_path(rep, path)
        for i in range(rows):
            for j in range(cols):
                acc[i][j] = (acc[i][j] + c * m[i][j]) % p
    return tuple(tuple(row) for row in acc)


def check_relations(rep: Representation) -> Optional[Relation]:
    """First violated relation, or None when all hold.

    A relation whose source or target has dimension 0 in `rep` is the empty
    matrix, which holds, so it is not evaluated.
    """
    quiver = rep.algebra.quiver
    for rel in rep.algebra.relations:
        if not rel.terms:
            continue
        src, tgt = rel.src_tgt(quiver)
        rows = rep.dims[quiver.pos(tgt)]
        cols = rep.dims[quiver.pos(src)]
        if rows and cols and not linalg.is_zero(eval_terms(rep, rel.terms, rows, cols)):
            return rel
    return None


# --------------------------------------------------------------------------
# simples, projectives, injectives (monomial relations)

def _monomial_relation_paths(algebra: Algebra) -> list[tuple[str, ...]]:
    paths = []
    for rel in algebra.relations:
        if not rel.terms:
            continue
        if len(rel.terms) != 1:
            raise NonStringAlgebraError(
                "construction requires monomial relations"
            )
        coeff, path = rel.terms[0]
        paths.append(tuple(path))
    return paths


def _path_is_nonzero(path: Sequence[str], rel_paths: list[tuple[str, ...]]) -> bool:
    t = tuple(path)
    for r in rel_paths:
        L = len(r)
        if L <= len(t):
            for i in range(len(t) - L + 1):
                if t[i : i + L] == r:
                    return False
    return True


def simple(algebra: Algebra, i: int) -> Representation:
    """The simple module S_i (one-dimensional at vertex i)."""
    dims = [0] * algebra.quiver.n
    dims[algebra.quiver.pos(i)] = 1
    return make_rep(algebra, dims, {}, label=f"S_{i}")


def _path_module(algebra: Algebra, i: int, forward: bool) -> Representation:
    """P_i (forward) or I_i (backward), with one basis vector per nonzero path.

    The paths start at i (forward) or end at i (backward), trivial path
    included; relation-avoiding walks grow each path at its far end, which is
    where its basis vector lives. Within a vertex, paths are ordered by
    (length, path). The last arrow a of a path q = q'a sends q' to q on P_i;
    dually, the first arrow a of q = aq' sends q to q' on I_i.
    """
    quiver = algebra.quiver
    rel_paths = _monomial_relation_paths(algebra)
    cap = 64
    far_end: dict[tuple[str, ...], int] = {(): i}
    frontier: list[tuple[str, ...]] = [()]
    while frontier:
        path = frontier.pop()
        if len(path) > cap:
            raise SearchBudgetExceeded(
                f"paths {'from' if forward else 'to'} {i} exceed length {cap}; "
                "algebra may be infinite dimensional"
            )
        v = far_end[path]
        for a in quiver.arrows_out(v) if forward else quiver.arrows_in(v):
            cand = path + (a.id,) if forward else (a.id,) + path
            if _path_is_nonzero(cand, rel_paths):
                far_end[cand] = a.tgt if forward else a.src
                frontier.append(cand)
    paths = sorted(far_end, key=lambda q: (len(q), q))
    by_vertex: dict[int, list[tuple[str, ...]]] = {v: [] for v in quiver.vertices}
    for q in paths:
        by_vertex[far_end[q]].append(q)
    index = {q: r for qs in by_vertex.values() for r, q in enumerate(qs)}
    mats: dict[str, list[list[int]]] = {
        a.id: [[0] * len(by_vertex[a.src]) for _ in range(len(by_vertex[a.tgt]))]
        for a in quiver.arrows
    }
    for q in paths[1:]:  # paths[0] is the trivial path
        if forward:
            mats[q[-1]][index[q]][index[q[:-1]]] = 1
        else:
            mats[q[0]][index[q[1:]]][index[q]] = 1
    dims = [len(by_vertex[v]) for v in quiver.vertices]
    return make_rep(algebra, dims, mats, label=f"P_{i}" if forward else f"I_{i}")


def projective(algebra: Algebra, i: int) -> Representation:
    """The indecomposable projective P_i, spanned by the nonzero paths from i."""
    return _path_module(algebra, i, forward=True)


def injective(algebra: Algebra, i: int) -> Representation:
    """The indecomposable injective I_i, dual to the nonzero paths ending at i."""
    return _path_module(algebra, i, forward=False)


# --------------------------------------------------------------------------
# string modules

Letter = tuple[str, int]  # (arrow id, +1 direct / -1 inverse)


def _letter_ends(quiver: Quiver, letter: Letter) -> tuple[int, int]:
    a = quiver.arrow(letter[0])
    return (a.src, a.tgt) if letter[1] > 0 else (a.tgt, a.src)


def _word_vertices(quiver: Quiver, start: int, word: Sequence[Letter]) -> list[int]:
    verts = [start]
    for letter in word:
        s, t = _letter_ends(quiver, letter)
        if s != verts[-1]:
            raise ValueError("word is not a walk")
        verts.append(t)
    return verts


def string_module(algebra: Algebra, start: int, word: Sequence[Letter], label: str = "") -> Representation:
    """The string module of a reduced walk, with 0/1 matrices.

    The algebra must be a string algebra (`check_string_algebra`): the module
    keeps its walk, and a `Catalog` counts substrings of walks for the Hom
    dimension between two such modules, a rule that holds only there.
    """
    quiver = algebra.quiver
    verts = _word_vertices(quiver, start, word)
    by_vertex: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    for t, v in enumerate(verts):
        by_vertex[v].append(t)
    dims = [len(by_vertex[v]) for v in quiver.vertices]
    pos_index = {}
    for v, lst in by_vertex.items():
        for r, t in enumerate(lst):
            pos_index[t] = r
    mats: dict[str, list[list[int]]] = {
        a.id: [[0] * len(by_vertex[a.src]) for _ in range(len(by_vertex[a.tgt]))]
        for a in quiver.arrows
    }
    for t, (aid, s) in enumerate(word):
        if s > 0:
            mats[aid][pos_index[t + 1]][pos_index[t]] = 1
        else:
            mats[aid][pos_index[t]][pos_index[t + 1]] = 1
    if not label:
        label = _string_name(verts, word)
    return make_rep(algebra, dims, mats, label=label, walk=(start, tuple(word)))


def _substrings(quiver: Quiver, walk: tuple) -> tuple[dict, dict]:
    """Factor and image occurrences of the substrings of a string walk.

    With the walk's letters word[0..L-1] and vertices v_0..v_L, the
    substring at positions i..j (letters i to j-1, vertices v_i to v_j) is a
    factor occurrence when i == 0 or word[i-1] is inverse, and j == L or
    word[j] is direct: the substring spans a quotient of the module. It is
    an image occurrence when i == 0 or word[i-1] is direct, and j == L or
    word[j] is inverse: it spans a submodule. The conditions read the same
    from either end of the walk. A substring and its inverse reading are one
    key, the smaller of (v_i, word[i:j]) and its inverse.

    Returns:
        Two dicts, factor and image, from key to number of occurrences.
    """
    start, word = walk
    length = len(word)
    verts = _word_vertices(quiver, start, word)
    back = tuple((aid, -s) for aid, s in reversed(word))
    # signs[t] is the sign of the letter left of vertex t, 0 off the ends
    signs = [0] + [s for _, s in word] + [0]
    factors: dict = {}
    images: dict = {}
    for i in range(length + 1):
        left = signs[i]
        for j in range(i, length + 1):
            right = signs[j + 1]
            factor = left <= 0 and right >= 0
            image = left >= 0 and right <= 0
            if factor or image:
                key = min((verts[i], word[i:j]), (verts[j], back[length - j : length - i]))
                if factor:
                    factors[key] = factors.get(key, 0) + 1
                if image:
                    images[key] = images.get(key, 0) + 1
    return factors, images


def _string_name(verts: list[int], word: Sequence[Letter]) -> str:
    parts = [str(verts[0])]
    for t, (aid, s) in enumerate(word):
        parts.append(">" if s > 0 else "<")
        parts.append(str(verts[t + 1]))
    return "".join(parts)


def check_string_algebra(algebra: Algebra) -> None:
    """Structural string-algebra checks; raises NonStringAlgebraError."""
    quiver = algebra.quiver
    rel_paths = _monomial_relation_paths(algebra)
    for r in rel_paths:
        if len(r) < 2:
            raise NonStringAlgebraError("relations must have length >= 2")
    for v in quiver.vertices:
        if len(quiver.arrows_in(v)) > 2 or len(quiver.arrows_out(v)) > 2:
            raise NonStringAlgebraError(f"vertex {v} has more than two arrows in or out")
    for b in quiver.arrows:
        cont = [
            a
            for a in quiver.arrows_out(b.tgt)
            if _path_is_nonzero((b.id, a.id), rel_paths)
        ]
        if len(cont) > 1:
            raise NonStringAlgebraError(
                f"arrow {b.id} has two surviving continuations: not a string algebra"
            )
        pre = [
            a
            for a in quiver.arrows_in(b.src)
            if _path_is_nonzero((a.id, b.id), rel_paths)
        ]
        if len(pre) > 1:
            raise NonStringAlgebraError(
                f"arrow {b.id} has two surviving precompositions: not a string algebra"
            )


class Catalog(Record):
    """A list of modules over one algebra, with their Hom table.

    `string_catalog` builds the complete list of indecomposables of a
    supported string algebra; `fho.is_weakly_fho` and
    `fho.insertion_obstructions` build catalogs over arbitrary module lists,
    as local Hom tables. The catalog carries the Hom table of its modules,
    indexed by catalog position and filled lazily: `hom(i, j)` fills a pair
    (`fill_hom`) the first time it is asked for and reads the stored value
    afterwards. The table has two sources. An entry between two members
    that carry string walks, as every member of a `string_catalog` does, is
    filled by counting matching substrings of the two walks
    (Crawley-Boevey's basis of maps between string modules; see the module
    docstring and `_substrings`); each member's counts are taken on the
    first fill that reads them. An entry with a member that has no walk
    (`simple`, `projective`, `make_rep` modules) is filled with `hom_dim`. `out_mask(i)` and `in_mask(j)` are the table's nonzero
    pattern along a row or a column as a bitmask over catalog positions,
    each built on first use; `arrow_mask(a)` is likewise the members that
    are nonzero on arrow a.

    A catalog is mutable, so unhashable; `==` reads `algebra` and `modules`
    only.
    """

    _fields = ("algebra", "modules")
    __slots__ = _fields + (
        "homs",
        "substrings",
        "out_masks",
        "in_masks",
        "arrow_masks",
        "schurian_positions",
        "walls",
        "_by_dims",
        "_index",
    )

    def __init__(self, algebra: Algebra, modules: tuple[Representation, ...]):
        self.algebra = algebra
        self.modules = modules
        n = len(modules)
        # homs[i][j] = dim Hom(modules[i], modules[j]), None until first asked
        self.homs: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        # substrings[i] is `_substrings` of modules[i]'s walk, None until a
        # fill reads it, and throughout for a member without a walk
        self.substrings: list[Optional[tuple[dict, dict]]] = [None] * n
        # bit j of out_masks[i] / bit i of in_masks[j]: Hom(modules[i], modules[j]) != 0
        self.out_masks: list[Optional[int]] = [None] * n
        self.in_masks: list[Optional[int]] = [None] * n
        # bit i of arrow_masks[a]: modules[i] is nonzero on arrow a, set by `arrow_mask`
        self.arrow_masks: dict[str, int] = {}
        # positions i with hom(i, i) == 1, set by `schurian_indices` on first call
        self.schurian_positions: Optional[tuple[int, ...]] = None
        # the wall table of the Schurian members (a `walls.WallTable`: the
        # walls, their distinct normal and face vectors, and per wall the
        # sums and positions its crossing test reads), set by
        # `walls.catalog_walls`
        self.walls: Optional[tuple] = None
        self._by_dims: dict[tuple[int, ...], list[Representation]] = {}
        self._index: dict[int, int] = {}
        for i, m in enumerate(modules):
            self._by_dims.setdefault(m.dims, []).append(m)
            self._index.setdefault(id(m), i)

    __hash__ = None

    def __iter__(self):
        return iter(self.modules)

    def __len__(self):
        return len(self.modules)

    def by_dims(self, dims: Sequence[int]) -> list[Representation]:
        return list(self._by_dims.get(tuple(dims), []))

    def unique_by_dims(self, dims: Sequence[int]) -> Representation:
        hits = self.by_dims(dims)
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} modules with dims {tuple(dims)}")
        return hits[0]

    def by_label(self, label: str) -> Representation:
        for m in self.modules:
            if m.label == label:
                return m
        raise KeyError(label)

    def index(self, module: Representation) -> int:
        """Catalog position of a member, or of the first module equal to it."""
        i = self._index.get(id(module))
        if i is not None:
            return i
        for i, m in enumerate(self.modules):
            if m == module:
                return i
        raise ValueError("module not in catalog")

    def indices(self, modules: Iterable[Representation]) -> list[int]:
        return [self.index(m) for m in modules]

    def hom(self, i: int, j: int) -> int:
        """dim Hom(modules[i], modules[j]), from the table."""
        row = self.homs[i]
        h = row[j]
        if h is None:
            h = row[j] = self.fill_hom(i, j)
        return h

    def fill_hom(self, i: int, j: int) -> int:
        """dim Hom(modules[i], modules[j]) computed afresh, for one table entry:
        the substring count when both members carry a walk, else `hom_dim`."""
        if not (self.modules[i].walk and self.modules[j].walk):
            return hom_dim(self.modules[i], self.modules[j])
        factors = self._substrings_of(i)[0]
        images = self._substrings_of(j)[1]
        return sum(k * images.get(key, 0) for key, k in factors.items())

    def _substrings_of(self, i: int) -> tuple[dict, dict]:
        counts = self.substrings[i]
        if counts is None:
            counts = self.substrings[i] = _substrings(self.algebra.quiver, self.modules[i].walk)
        return counts

    def out_mask(self, i: int) -> int:
        mask = self.out_masks[i]
        if mask is None:
            mask = sum(1 << j for j in range(len(self.modules)) if self.hom(i, j))
            self.out_masks[i] = mask
        return mask

    def maps_into(self, i: int, mask: int) -> bool:
        """Whether Hom(modules[i], modules[j]) != 0 for some bit j of mask.

        Reads the row mask once `out_mask(i)` has built it; before that, asks
        the table for the pairs in mask only and stops at the first nonzero.
        """
        row = self.out_masks[i]
        if row is not None:
            return bool(row & mask)
        return any(self.hom(i, j) for j in range(mask.bit_length()) if mask >> j & 1)

    def in_mask(self, j: int) -> int:
        mask = self.in_masks[j]
        if mask is None:
            mask = sum(1 << i for i in range(len(self.modules)) if self.hom(i, j))
            self.in_masks[j] = mask
        return mask

    def arrow_mask(self, arrow_id: str) -> int:
        """The members whose matrix on the arrow is nonzero, as a bitmask over
        catalog positions, built on first use."""
        mask = self.arrow_masks.get(arrow_id)
        if mask is None:
            mask = sum(
                1 << i
                for i, m in enumerate(self.modules)
                if not linalg.is_zero(m.mat(arrow_id))
            )
            self.arrow_masks[arrow_id] = mask
        return mask

    def schurian(self, i: int) -> bool:
        return self.hom(i, i) == 1

    def schurian_indices(self) -> tuple[int, ...]:
        """Positions of the Schurian members, computed once per catalog."""
        if self.schurian_positions is None:
            self.schurian_positions = tuple(
                i for i in range(len(self.modules)) if self.schurian(i)
            )
        return self.schurian_positions


def string_catalog(algebra: Algebra, budget: int = 100_000) -> Catalog:
    """Every string module of a supported string algebra, exactly once.

    Strings are enumerated as reduced walks: no immediate backtracking and no
    relation inside any run of equal-sign letters, read in traversal order.
    A walk grows one letter at a time at its end, so each walk has a single
    parent, and the new letter can only complete a relation inside the last
    run. Both readings of every string are walked; the smaller of
    (start, word) and its inverse reading is kept.

    Raises:
        NonStringAlgebraError: if the structural checks fail.
        SearchBudgetExceeded: if the walks' letters pass 2 x `budget`, a walk
            of length L costing 1 + L; only an infinite-type input has
            strings without end.
    """
    check_string_algebra(algebra)
    quiver = algebra.quiver
    rel_paths = _monomial_relation_paths(algebra)
    # letters before a new one that a relation ending in it can span
    reach = max(map(len, rel_paths), default=1) - 1
    # one tuple per signed arrow, shared by every walk; steps[v] lists the
    # letters leaving v with the vertex each one reaches
    inverse: dict[Letter, Letter] = {}
    steps: dict[int, list[tuple[Letter, int]]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        direct, back = (a.id, 1), (a.id, -1)
        inverse[direct], inverse[back] = back, direct
        steps[a.src].append((direct, a.tgt))
        steps[a.tgt].append((back, a.src))

    letters = 0
    keys: list[tuple[int, tuple[Letter, ...]]] = []
    frontier = [(v, (), v) for v in quiver.vertices]
    while frontier:
        start, word, end = frontier.pop()
        letters += 1 + len(word)
        if letters > 2 * budget:
            raise SearchBudgetExceeded(
                f"string walks passed {2 * budget} letters (budget {budget}) "
                f"at a walk of length {len(word)}; the algebra is unlikely to "
                "be finite type"
            )
        if (start, word) <= (end, tuple(inverse[x] for x in reversed(word))):
            keys.append((start, word))
        undo = inverse[word[-1]] if word else None
        for letter, tgt in steps[end]:
            if letter == undo:
                continue
            # the new letter and the last run before it, in reverse word
            # order and only as far back as a relation through it can reach
            sign = letter[1]
            run = [letter[0]]
            for aid, s in islice(reversed(word), reach):
                if s != sign:
                    break
                run.append(aid)
            if _path_is_nonzero(run[::-1] if sign > 0 else run, rel_paths):
                frontier.append((start, word + (letter,), tgt))

    modules = [string_module(algebra, start, word) for start, word in keys]
    modules.sort(key=lambda m: (m.total_dim, m.dims, m.label))
    return Catalog(algebra=algebra, modules=tuple(modules))


# --------------------------------------------------------------------------
# Hom spaces and submodules

def _hom_system(
    m: Representation, n: Representation
) -> tuple[list[tuple[int, ...]], dict[int, int], int]:
    """Equations for f in Hom(M, N): rows, per-vertex offsets, unknown count.

    Unknowns are the blocks f_v of shape n.dims[v] x m.dims[v], flattened
    row-major; each arrow a: s -> t contributes f_t M_a - N_a f_s = 0.
    """
    if m.algebra.quiver != n.algebra.quiver or m.algebra.p != n.algebra.p:
        raise ValueError("modules over different algebras")
    p = m.algebra.p
    quiver = m.algebra.quiver
    offsets = {}
    total = 0
    for v in quiver.vertices:
        pv = quiver.pos(v)
        offsets[v] = total
        total += n.dims[pv] * m.dims[pv]
    rows: list[tuple[int, ...]] = []
    for a in quiver.arrows:
        sp, tp = quiver.pos(a.src), quiver.pos(a.tgt)
        ma, na = m.mat(a.id), n.mat(a.id)
        for i in range(n.dims[tp]):
            for j in range(m.dims[sp]):
                row = [0] * total
                # (f_t M_a)[i][j] = sum_c f_t[i][c] * M_a[c][j]
                for c in range(m.dims[tp]):
                    row[offsets[a.tgt] + i * m.dims[tp] + c] += ma[c][j]
                # (N_a f_s)[i][j] = sum_c N_a[i][c] * f_s[c][j]
                for c in range(n.dims[sp]):
                    row[offsets[a.src] + c * m.dims[sp] + j] -= na[i][c]
                rows.append(tuple(x % p for x in row))
    return rows, offsets, total


def hom_dim(m: Representation, n: Representation) -> int:
    """dim_F Hom(M, N): nullity of the commuting-square system."""
    rows, _, total = _hom_system(m, n)
    if total == 0:
        return 0
    if not rows:
        return total
    return total - linalg.rank(tuple(rows), m.algebra.p)


def hom_basis(m: Representation, n: Representation) -> list[dict[int, Matrix]]:
    """A basis of Hom(M, N), each element as per-vertex matrix blocks."""
    rows, offsets, total = _hom_system(m, n)
    p = m.algebra.p
    quiver = m.algebra.quiver
    if total == 0:
        return []
    if rows:
        vecs = linalg.nullspace(tuple(rows), p)
    else:
        vecs = [tuple(1 if c == r else 0 for c in range(total)) for r in range(total)]
    out = []
    for vec in vecs:
        blocks: dict[int, Matrix] = {}
        for v in quiver.vertices:
            pv = quiver.pos(v)
            nr, nc = n.dims[pv], m.dims[pv]
            blocks[v] = tuple(
                tuple(vec[offsets[v] + i * nc + c] for c in range(nc))
                for i in range(nr)
            )
        out.append(blocks)
    return out


def is_schurian(m: Representation) -> bool:
    """True iff End(M) is one-dimensional."""
    return hom_dim(m, m) == 1


# Brute-force budget of `submodule_dimvecs`: the largest total dimension,
# and the largest number of subspace tuples it may enumerate.
MAX_TOTAL_DIM = 12
MAX_SUBSPACE_TUPLES = 2_000_000


def submodule_dimvecs(m: Representation) -> set[tuple[int, ...]]:
    """The set {dim M' : M' an arrow-stable subspace tuple of M}, the zero
    tuple and M itself included, over every tuple of subspaces.

    Raises:
        SearchBudgetExceeded: when M is larger than the brute-force budget
            (never returns a silent partial answer).
    """
    algebra = m.algebra
    p = algebra.p
    quiver = algebra.quiver
    if m.total_dim > MAX_TOTAL_DIM:
        raise SearchBudgetExceeded(
            f"total dimension {m.total_dim} exceeds the brute-force budget {MAX_TOTAL_DIM}"
        )
    prod_size = 1
    for d in m.dims:
        prod_size *= linalg.subspace_count(d, p)
    if prod_size > MAX_SUBSPACE_TUPLES:
        raise SearchBudgetExceeded(
            f"{prod_size} subspace tuples exceed the enumeration budget"
        )
    verts = list(quiver.vertices)
    per_vertex = {v: linalg.subspaces(m.dims[quiver.pos(v)], p) for v in verts}
    out = set()
    for combo in product(*(per_vertex[v] for v in verts)):
        chosen = dict(zip(verts, combo))
        ok = True
        for a in quiver.arrows:
            mat = m.mat(a.id)
            tgt_basis = chosen[a.tgt]
            red, piv = linalg.rref(tgt_basis, p) if tgt_basis else ([], [])
            for u in chosen[a.src]:
                img = tuple(
                    sum(mat[i][j] * u[j] for j in range(len(u))) % p
                    for i in range(len(mat))
                )
                if not any(img):
                    continue
                if not tgt_basis:
                    ok = False
                    break
                rem = linalg.reduce_against(img, red, piv, p)
                if any(rem):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(len(chosen[v]) for v in verts))
    return out
