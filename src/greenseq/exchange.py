"""Extended exchange matrices, mutation, c-vectors, and green-sequence search.

Matrices are plain tuples of int tuples, so every value in this module is
immutable and hashable. Mutation returns fresh matrices; nothing is modified
in place. Python integers are arbitrary precision, so entries cannot silently
wrap.

Both green-sequence searches number the distinct c-vectors they meet with int
ids (`_CVectors`). Sign coherence is asserted once per distinct c-vector, when
its id is made; the ids after a green mutation come from memoized negations
and sums c_j + b c_k; and every seed the search enters is checked to have the
c-columns `mutate` gives it. `enumerate_green_sequences` calls `mutate` once
per labelled seed, `mgs_summary` once per exchange-graph state.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from greenseq.errors import InvalidQuiverError, SearchBudgetExceeded
from greenseq.qp import Quiver, b_matrix
from greenseq.records import FrozenRecord

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


class ExtExchangeMatrix(FrozenRecord):
    """A 2n x n extended exchange matrix, stored as the two n x n halves.

    Attributes:
        n: number of vertices.
        b: principal part, skew-symmetric; b[i][j] = #(i -> j) - #(j -> i).
        c: bottom part; column k is the k-th c-vector.
    """

    __slots__ = _fields = ("n", "b", "c")

    def __init__(self, n: int, b: IntMatrix, c: IntMatrix):
        for half in (b, c):
            if len(half) != n or any(map(n.__ne__, map(len, half))):
                raise ValueError("matrix halves must be n x n")
        self._init(n, b, c)

    def rows(self) -> IntMatrix:
        """The full 2n x n stack (B over C)."""
        return self.b + self.c


class GreenSequence(FrozenRecord):
    """A green mutation sequence together with the c-vectors it consumed.

    c_vectors[i] is the k_i-th c-column immediately before the i-th mutation;
    along a green sequence each one is entrywise nonnegative.
    """

    __slots__ = _fields = ("mutation_indices", "c_vectors")

    def __init__(self, mutation_indices: IntVector, c_vectors: tuple[IntVector, ...]):
        self._init(mutation_indices, c_vectors)

    def __len__(self) -> int:
        return len(self.mutation_indices)

    def to_json(self) -> dict:
        return {
            "indices": list(self.mutation_indices),
            "c_vectors": [list(v) for v in self.c_vectors],
            "length": len(self),
        }


def initial_seed_from_matrix(b: Iterable[Iterable[int]]) -> ExtExchangeMatrix:
    """Build the initial seed (B over the identity) from a raw B-matrix."""
    bt = tuple(tuple(int(x) for x in row) for row in b)
    n = len(bt)
    for i in range(n):
        for j in range(n):
            if bt[i][j] != -bt[j][i]:
                raise InvalidQuiverError("B-matrix must be skew-symmetric")
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return ExtExchangeMatrix(n=n, b=bt, c=ident)


def initial_seed(q: Quiver) -> ExtExchangeMatrix:
    """Initial extended exchange matrix of a quiver: B = `qp.b_matrix(q)`,
    so b[i][j] = #(i -> j) - #(j -> i), over C = I. The `Quiver` constructor
    has already rejected loops and 2-cycles."""
    return initial_seed_from_matrix(b_matrix(q))


def mutate(m: ExtExchangeMatrix, k: int) -> ExtExchangeMatrix:
    """Fomin-Zelevinsky mutation at column k, applied to all 2n rows.

    Entries in row i, column j with i != k != j gain b_ik * |b_kj| whenever
    b_ik and b_kj have the same sign; row k and column k flip sign.

    A row with b_ik = 0 is reused as it is. Any other row adds b_ik times
    [b_k.]_+ (when b_ik > 0) or [-b_k.]_+ (when b_ik < 0), both computed
    once; their k-th entry is -2, so that b_ik becomes -b_ik.

    Args:
        m: matrix to mutate (unchanged; a new value is returned).
        k: 0-based column index.

    Returns:
        The mutated ExtExchangeMatrix.
    """
    n = m.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range for n={n}")
    row_k = m.b[k]
    plus = [x if x > 0 else 0 for x in row_k]
    minus = [-x if x < 0 else 0 for x in row_k]
    plus[k] = minus[k] = -2
    new = []
    for i, row in enumerate(m.b + m.c):
        bik = row[k]
        if i == k:
            new.append(tuple([-x for x in row]))
        elif bik > 0:
            new.append(tuple([x + bik * y for x, y in zip(row, plus)]))
        elif bik < 0:
            new.append(tuple([x + bik * y for x, y in zip(row, minus)]))
        else:
            new.append(row)
    return ExtExchangeMatrix(n=n, b=tuple(new[:n]), c=tuple(new[n:]))


def c_vector(m: ExtExchangeMatrix, k: int) -> IntVector:
    """The k-th c-vector (k-th column of the bottom half)."""
    if not 0 <= k < m.n:
        raise IndexError(f"column {k} out of range for n={m.n}")
    return tuple(row[k] for row in m.c)


def is_green(m: ExtExchangeMatrix, k: int) -> bool:
    """True iff the k-th c-vector is nonzero and entrywise nonnegative."""
    col = c_vector(m, k)
    return any(col) and all(x >= 0 for x in col)


class _CVectors:
    """The distinct c-vectors met by one search, each with an int id.

    `vecs[i]` is the c-vector with id i and `green[i]` its colour, computed
    when the id is made, so sign coherence is asserted once per distinct
    c-vector. A seed's c-columns are a tuple of ids in column order.
    """

    def __init__(self):
        self.ids: dict[IntVector, int] = {}
        self.vecs: list[IntVector] = []
        self.green: list[bool] = []
        self.negated: dict[int, int] = {}  # id of c -> id of -c
        self.added: dict[tuple[int, int, int], int] = {}  # (c_j, b, c_k) -> c_j + b c_k

    def id(self, col: IntVector) -> int:
        i = self.ids.get(col)
        if i is None:
            positive, negative = max(col) > 0, min(col) < 0
            if positive == negative:
                raise AssertionError(f"c-vector {col} violates sign coherence")
            i = self.ids[col] = len(self.vecs)
            self.vecs.append(col)
            self.green.append(positive)
        return i

    def of(self, m: ExtExchangeMatrix) -> tuple[int, ...]:
        """The ids of m's c-columns, in column order."""
        return tuple(map(self.id, zip(*m.c)))

    def green_step(self, m: ExtExchangeMatrix, ids: tuple[int, ...], k: int) -> tuple[int, ...]:
        """The ids of mutate(m, k), where m has ids `ids` and column k is
        green: every c_ik >= 0, so column j != k becomes c_j + [b_kj]_+ c_k
        and column k flips sign."""
        ck = ids[k]
        new = list(ids)
        neg = self.negated.get(ck)
        if neg is None:
            neg = self.negated[ck] = self.id(tuple([-x for x in self.vecs[ck]]))
        new[k] = neg
        for j, bkj in enumerate(m.b[k]):
            if bkj > 0:
                cj = ids[j]
                i = self.added.get((cj, bkj, ck))
                if i is None:
                    vec = tuple([x + bkj * y for x, y in zip(self.vecs[cj], self.vecs[ck])])
                    i = self.added[cj, bkj, ck] = self.id(vec)
                new[j] = i
        return tuple(new)

    def mutated(self, m: ExtExchangeMatrix, k: int, ids: tuple[int, ...]) -> ExtExchangeMatrix:
        """mutate(m, k), checked to have the c-vector ids `ids`."""
        child = mutate(m, k)
        if self.of(child) != ids:
            raise AssertionError(f"mutate(m, {k}) disagrees with the green mutation rule")
        return child


def enumerate_green_sequences(
    seed: ExtExchangeMatrix, budget: int = 1_000_000
) -> list[GreenSequence]:
    """Depth-first enumeration of the maximal green sequences from a seed.

    A green sequence is maximal when its final matrix has no green column.
    Branches are explored in increasing mutation index, so the output is in
    lexicographic order of the index sequences. The search keeps its own
    stack, so its depth is bounded by `budget`, not by Python's recursion
    limit.

    Each labelled seed is memoized on its c-vector ids in column order
    (B_t = C_t^T B_0 C_t, so from an initial seed they fix the matrix), so
    `mutate` runs once per labelled seed, not once per path node.

    Args:
        seed: the starting extended exchange matrix (normally an initial seed).
        budget: node budget for the search; every green sequence, maximal or
            not, is one node, and so is the empty one at the seed.

    Returns:
        List of GreenSequence in lexicographic order.

    Raises:
        SearchBudgetExceeded: if more than `budget` nodes are visited; the
            exception's `partial` attribute carries the sequences found so far.
        AssertionError: on a sign-incoherent c-vector, or if `mutate`
            disagrees with the predicted c-vector ids.
    """
    table = _CVectors()
    # labelled seed -> (matrix, [(green k, c_k, the child's key)])
    states: dict[tuple[int, ...], tuple] = {}
    found: list[GreenSequence] = []
    indices: list[int] = []
    cvecs: list[IntVector] = []
    visited = 0

    def state(m: ExtExchangeMatrix, ids: tuple[int, ...]) -> tuple:
        states[ids] = m, [
            (k, table.vecs[i], table.green_step(m, ids, k))
            for k, i in enumerate(ids)
            if table.green[i]
        ]
        return states[ids]

    def enter(record: tuple):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise SearchBudgetExceeded(
                f"green-sequence search exceeded {budget} nodes",
                partial=list(found),
            )
        m, branches = record
        if not branches:
            found.append(GreenSequence(tuple(indices), tuple(cvecs)))
        return m, iter(branches)

    # one frame per node on the current path: len(stack) == len(indices) + 1
    stack = [enter(state(seed, table.of(seed)))]
    while stack:
        m, branches = stack[-1]
        branch = next(branches, None)
        if branch is None:
            stack.pop()
            if stack:
                indices.pop()
                cvecs.pop()
            continue
        k, ck, ids = branch
        indices.append(k)
        cvecs.append(ck)
        stack.append(enter(states.get(ids) or state(table.mutated(m, k, ids), ids)))
    return found


class MgsSummary(NamedTuple):
    """What the oriented exchange graph says about maximal green sequences.

    Attributes:
        count: number of maximal green sequences.
        min_len, max_len: their shortest and longest length.
        states: number of distinct seeds (up to relabelling) reached by green
            mutations, the initial seed included.
    """

    count: int
    min_len: int
    max_len: int
    states: int


def mgs_summary(seed: ExtExchangeMatrix, budget: int = 1_000_000) -> MgsSummary:
    """Count maximal green sequences and their extremal lengths without
    listing them.

    Maximal green sequences are the maximal paths of the oriented exchange
    graph, whose states are seeds up to relabelling and whose edges are green
    mutations. Its count, minimum and maximum are a memo over the states,
    filled by a depth-first search with its own stack that enters each state
    once. A state's key is the set of its c-vector ids, the int OR of
    1 << id: B_t = C_t^T B_0 C_t, so the c-vectors fix the seed up to
    relabelling, and relabelling changes none of the three numbers. The key
    at the end of a green edge comes from the c-vector table, so `mutate`
    runs only to enter a new state.

    Args:
        seed: the starting extended exchange matrix (normally an initial seed).
        budget: maximum number of states entered.

    Raises:
        SearchBudgetExceeded: if more than `budget` states are entered. No
            partial answer is kept (`partial` is None).
        AssertionError: on a sign-incoherent c-vector, if `mutate` disagrees
            with the predicted c-vector ids, or if a green mutation leads back
            to a state whose search is still open.
    """
    table = _CVectors()
    # key -> (count, min, max); None while the state's search is open
    memo: dict[int, Optional[tuple[int, int, int]]] = {}

    def enter(m: ExtExchangeMatrix, ids: tuple[int, ...], key: int):
        if len(memo) >= budget:
            raise SearchBudgetExceeded(
                f"exchange-graph search exceeded {budget} states"
            )
        memo[key] = None
        return key, m, ids, (k for k, i in enumerate(ids) if table.green[i]), []

    root_ids = table.of(seed)
    root_key = sum(1 << i for i in root_ids)
    stack = [enter(seed, root_ids, root_key)]
    while stack:
        key, m, ids, branches, below = stack[-1]
        k = next(branches, None)
        if k is None:
            stack.pop()
            if below:
                summary = (
                    sum(c for c, _, _ in below),
                    1 + min(lo for _, lo, _ in below),
                    1 + max(hi for _, _, hi in below),
                )
            else:
                summary = (1, 0, 0)
            memo[key] = summary
            if stack:
                stack[-1][4].append(summary)  # the parent's `below`
            continue
        child = table.green_step(m, ids, k)
        target = sum(1 << i for i in child)
        if target not in memo:
            stack.append(enter(table.mutated(m, k, child), child, target))
        elif memo[target] is None:
            raise AssertionError("green mutation returned to an open state")
        else:
            below.append(memo[target])
    count, lo, hi = memo[root_key]
    return MgsSummary(count=count, min_len=lo, max_len=hi, states=len(memo))


def replay_c_vector_sequence(
    seed: ExtExchangeMatrix, c_vectors: Iterable[IntVector]
) -> tuple[GreenSequence, ExtExchangeMatrix]:
    """Rebuild a green sequence from the c-vectors it is supposed to consume.

    At each step the (unique, the c-columns are a basis) green vertex whose
    c-column equals the requested vector is mutated. Sign coherence is
    asserted on every c-vector met.

    Raises:
        ValueError: if some step has no green vertex with that c-vector.
    """
    table = _CVectors()
    m = seed
    indices: list[int] = []
    consumed: list[IntVector] = []
    for t, want in enumerate(c_vectors):
        want = tuple(int(x) for x in want)
        ids = table.of(m)
        i = table.ids.get(want)
        if i not in ids or not table.green[i]:
            raise ValueError(f"step {t}: no green vertex carries c-vector {want}")
        k = ids.index(i)
        indices.append(k)
        consumed.append(want)
        m = mutate(m, k)
    return GreenSequence(tuple(indices), tuple(consumed)), m


def cvector_multiset(seq: GreenSequence) -> tuple[IntVector, ...]:
    """Canonical key for the equivalence class of a green sequence.

    Two maximal green sequences are treated as equivalent iff their c-vector
    multisets coincide; the key is the sorted tuple of c-vectors.
    """
    return tuple(sorted(seq.c_vectors))


def equivalence_classes(
    seqs: Iterable[GreenSequence],
) -> dict[tuple[IntVector, ...], list[GreenSequence]]:
    """Group green sequences by c-vector multiset."""
    classes: dict[tuple[IntVector, ...], list[GreenSequence]] = {}
    for s in seqs:
        classes.setdefault(cvector_multiset(s), []).append(s)
    return classes
