"""Extended exchange matrices, mutation, c-vectors, and green-sequence search.

Matrices are plain tuples of int tuples, so every value in this module is
immutable and hashable. Mutation returns fresh matrices; nothing is modified
in place. Python integers are arbitrary precision, so entries cannot silently
wrap.

Both green-sequence searches build one `_ExchangeGraph`, the oriented
exchange graph of an initial seed, by one depth-first search over its states.
`mgs_summary` folds it in post-order; `enumerate_green_sequences` walks its
labelled paths with `maximal_paths`, the path walker of both listings. A green
step is read from c-vector ids alone (B_t = C_t^T B_0 C_t). The build keeps
B_t alone beside the ids, mutates it once per state it enters, and checks
row k of it against the forms b_kj = c_k^T B_0 c_j that the step read.

`mutate` does work only on the rows and entries that Fomin-Zelevinsky
mutation at k changes: a row whose k-th entry is 0 is reused as it is, and
any other row is updated at column k and at the nonzero entries of row k.
`_mutated_b` does this for B; `mutate` adds the C half with the same split.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import suppress
from functools import cache
from itertools import compress
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional

from greenseq.errors import InvalidQuiverError, SearchBudgetExceeded
from greenseq.qp import Quiver, b_matrix
from greenseq.records import FrozenRecord

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
Ids = tuple[int, ...]  # c-vector ids of a seed's columns, or of a state


class ExtExchangeMatrix(FrozenRecord):
    """A 2n x n extended exchange matrix, stored as the two n x n halves.

    Attributes:
        n: number of vertices.
        b: principal part, skew-symmetric; b[i][j] = #(i -> j) - #(j -> i).
        c: bottom part; column k is the k-th c-vector.
    """

    __slots__ = _fields = ("n", "b", "c")

    def __init__(self, n: int, b: IntMatrix, c: IntMatrix):
        # both halves in one pass: n rows each, and no row length but n
        if len(b) != n or len(c) != n or {*map(len, b), *map(len, c)} - {n}:
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


def initial_seed_from_matrix(b: Iterable[Iterable[int]]) -> ExtExchangeMatrix:
    """Build the initial seed (B over the identity) from a raw B-matrix."""
    bt = tuple(tuple(int(x) for x in row) for row in b)
    n = len(bt)
    if any(len(row) != n for row in bt):
        raise InvalidQuiverError("B-matrix must be square")
    if any(x != -y for row, col in zip(bt, zip(*bt)) for x, y in zip(row, col)):
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

    Work is done only on the rows and entries that this rule changes. A row
    with b_ik = 0 is reused as it is. Any other row i != k is copied, its
    k-th entry negated, and b_ik * |b_kj| added at just the columns j != k
    where b_kj has the sign of b_ik: the nonzero entries of row k, split by
    sign once per call by `_mutated_b`. Row k is negated. The B and C
    halves are updated each on its own, so no 2n-row stack is built.

    Args:
        m: matrix to mutate (unchanged; a new value is returned).
        k: 0-based column index.

    Returns:
        The mutated ExtExchangeMatrix.
    """
    n = m.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range for n={n}")
    b, plus, minus = _mutated_b(m.b, k)
    return ExtExchangeMatrix(n, b, tuple(_mutated_half(m.c, k, plus, minus)))


Split = list[tuple[int, int]]  # (j, |b_kj|) for the j != k where b_kj has one sign


def _mutated_b(b: IntMatrix, k: int) -> tuple[IntMatrix, Split, Split]:
    """B mutated at k as `mutate` says, with row k split by sign: the
    (j, b_kj) where b_kj > 0 and the (j, -b_kj) where b_kj < 0."""
    row_k = b[k]
    plus: Split = []
    minus: Split = []
    for j in compress(range(len(row_k)), row_k):
        if j != k:
            x = row_k[j]
            if x > 0:
                plus.append((j, x))
            else:
                minus.append((j, -x))
    out = _mutated_half(b, k, plus, minus)
    out[k] = tuple([-x for x in row_k])
    return tuple(out), plus, minus


def _mutated_half(rows: IntMatrix, k: int, plus: Split, minus: Split) -> list[IntVector]:
    """`rows` with each row i that has b_ik != 0 mutated as `mutate` says."""
    out = list(rows)
    for i in compress(range(len(rows)), map(itemgetter(k), rows)):
        row = rows[i]
        bik = row[k]
        new = list(row)
        new[k] = -bik
        for j, y in plus if bik > 0 else minus:
            new[j] += bik * y
        out[i] = tuple(new)
    return out


def c_vector(m: ExtExchangeMatrix, k: int) -> IntVector:
    """The k-th c-vector (k-th column of the bottom half)."""
    if not 0 <= k < m.n:
        raise IndexError(f"column {k} out of range for n={m.n}")
    return tuple(row[k] for row in m.c)


def is_green(m: ExtExchangeMatrix, k: int) -> bool:
    """True iff the k-th c-vector is nonzero and entrywise nonnegative."""
    col = c_vector(m, k)
    return any(col) and all(x >= 0 for x in col)


def _picker(ids: Ids) -> Callable:
    """A function that reads the entries at `ids` of a dict or list, as a tuple."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda row: tuple(map(row.__getitem__, ids))  # itemgetter(i) gives no tuple


class _ExchangeGraph:
    """The oriented exchange graph of an initial seed, built once and kept.

    A c-vector gets an int id when first met, and its sign coherence is
    asserted then. A labelled seed is its ids in column order, a state their
    sorted tuple (whose size grows with n, not with the ids), an edge a green
    step. `step` reads an edge from the ids alone: c_k -> -c_k and c_j ->
    c_j + [b_kj]_+ c_k with b_kj = c_k^T B_0 c_j, memoized in one row per
    green c_k, which `fill_row` completes where `step` finds an entry
    missing; `forms` keeps the b_kj themselves beside `rows`. `build` enters
    each state once, through `enter`, which checks row k of the parent's
    B_t, mutated from B_0 by Fomin-Zelevinsky's rule, against the forms the
    step read, and mutates B_t at k. It numbers the states in post-order, a
    topological order with the seed last, and `children[s]` holds the
    numbers of the states one green step below s.

    Why the row check suffices: at a green k, FZ mutation of C gives c_j' =
    c_j + [b_kj]_+ c_k (the c-vectors are sign-coherent), and the parent's
    C_t holds the vectors of its ids, by induction from C = I. So FZ's C at
    the child is the predicted one exactly when the positive parts of row k
    of B_t are the step's multipliers; the whole row, negative entries
    included, is compared.
    """

    def __init__(self):
        self.ids: dict[IntVector, int] = {}
        self.vecs: list[IntVector] = []
        self.green: list[bool] = []
        self.rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self.forms: defaultdict[int, dict[int, int]] = defaultdict(dict)  # c_k^T B_0 c_j
        self.number: dict[Ids, Optional[int]] = {}  # state -> post-order number
        self.children: list[tuple[int, ...]] = []
        self.b0_cols: IntMatrix = ()
        self.budget = float("inf")

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

    def of(self, m: ExtExchangeMatrix) -> Ids:
        """The ids of m's c-columns, in column order."""
        return tuple(map(self.id, zip(*m.c)))

    def step(self, ids: Ids, k: int, pick: Callable) -> Ids:
        """The ids after the green step at column k, read from the memoized
        row of c_k by `pick`, which is `_picker(ids)`."""
        try:
            return pick(self.rows[ids[k]])
        except KeyError:  # some c_j met beside c_k for the first time
            return pick(self.fill_row(ids, k))

    def fill_row(self, ids: Ids, k: int) -> dict[int, int]:
        """The memoized row of c_k, given an entry for each of `ids` it lacked,
        and the same entry of its forms, b_kj itself."""
        ck = ids[k]
        row, forms = self.rows[ck], self.forms[ck]
        vk = self.vecs[ck]
        form = [sum(map(mul, vk, col)) for col in self.b0_cols]  # c_k^T B_0
        row[ck] = self.id(tuple([-x for x in vk]))
        forms[ck] = 0
        for cj in set(ids).difference(row):
            bkj = forms[cj] = sum(map(mul, form, self.vecs[cj]))
            plus = max(bkj, 0)  # [b_kj]_+
            row[cj] = self.id(tuple([x + plus * y for x, y in zip(self.vecs[cj], vk)]))
        return row

    def build(self, seed: ExtExchangeMatrix, budget: float = float("inf")) -> None:
        """Enter every state below an initial seed, of at most `budget`, depth
        first with its own stack, and number each state when it closes.

        One flat loop: an open frame holds a list iterator over its green
        columns, so a step to a state met before is taken without leaving the
        frame. The child numbers of all open states share one list, `below`,
        each state's after its parent's, and a frame holds where its own
        start; a child's number joins its parent's as the child closes. A
        frame also holds `_picker(ids)`, with which `step` and `enter` read
        the frame's rows and forms, and its B_t."""
        ids = self.of(seed)
        if seed != initial_seed_from_matrix(seed.b):
            raise ValueError("a green-sequence search starts from an initial seed (C = I)")
        self.b0_cols = tuple(zip(*seed.b))
        self.budget = budget
        green, number, children = self.green, self.number, self.children
        step, enter = self.step, self.enter
        key = tuple(sorted(ids))
        b = enter(seed.b)
        number[key] = None  # open until it is numbered
        greens = iter([k for k, i in enumerate(ids) if green[i]])
        below: list[int] = []
        stack = [(key, ids, _picker(ids), b, greens, 0)]
        while stack:
            key, ids, pick, b, branches, start = stack[-1]
            for k in branches:
                child = step(ids, k, pick)
                target = tuple(sorted(child))
                seen = number.get(target, -1)
                if seen == -1:  # a new state: enter it, and resume here once it closes
                    entered = enter(b, k, ids, pick)
                    number[target] = None
                    greens = iter([j for j, i in enumerate(child) if green[i]])
                    stack.append((target, child, _picker(child), entered, greens, len(below)))
                    break
                if seen is None:
                    raise AssertionError("green mutation returned to an open state")
                below.append(seen)
            else:  # every child is numbered, so this state is next
                stack.pop()
                number[key] = len(children)
                children.append(tuple(below[start:]))
                del below[start:]
                if stack:  # one more child number of the parent
                    below.append(number[key])

    def enter(
        self, b: IntMatrix, k: Optional[int] = None, ids: Ids = (), pick: Optional[Callable] = None
    ) -> IntMatrix:
        """The B-matrix of a new state, the seed's b (k is None) or that of
        step(ids, k, pick) from the state of B-matrix b, if the state budget
        has room for it. Row k of b must be the forms of c_k that the step
        read, `pick` being `_picker(ids)`."""
        if k is not None:
            if pick(self.forms[ids[k]]) != b[k]:
                raise AssertionError(f"row {k} of B_t disagrees with the green mutation rule")
            b = _mutated_b(b, k)[0]
        if len(self.number) >= self.budget:
            raise SearchBudgetExceeded(f"exchange-graph search exceeded {self.budget} states")
        return b


def maximal_paths(root, expand: Callable, record: Callable, budget: float, search: str) -> list:
    """`record(labels, node)` of each maximal path from `root`, depth first.

    `expand(node)` gives a node's edges as (label, child) pairs, in walk
    order, and runs once per distinct node: its edges are kept. A path ends
    at a node with none, where `record` turns its labels and that node into
    the path's item (or raises). Each node visit, the root's
    included, is one path node; past `budget` of them SearchBudgetExceeded
    is raised, with the items recorded so far as `partial`. The walk keeps
    its own stack, so `budget`, not Python's recursion limit, bounds its depth.
    """
    out: list = []
    labels: list = []  # the labels of the path walked, the root's None first
    stack = [iter([(None, root)])]  # per node on the path, its parent's edges left
    expand, visited = cache(expand), 0
    while stack:
        for label, node in stack[-1]:
            visited += 1
            if visited > budget:
                raise SearchBudgetExceeded(f"{search} search exceeded {budget} nodes", partial=out)
            labels.append(label)
            edges = expand(node)
            if edges:
                stack.append(iter(edges))
                break
            out.append(record(labels[1:], node))
            labels.pop()
        else:  # the node's edges are all walked: back to its parent
            stack.pop()
            del labels[-1:]  # nothing left to drop once the root is done
    return out


def enumerate_green_sequences(
    seed: ExtExchangeMatrix, budget: int = 1_000_000
) -> list[GreenSequence]:
    """The maximal green sequences from a seed, in lexicographic index order.

    A green sequence is maximal when its final matrix has no green column.

    The exchange graph is built first, with `budget` as its state budget, so
    B_t is mutated and its row checked once per state but the seed. The
    listing is then `maximal_paths` over labelled seeds, each its c-vector
    ids in column order, whose children `_ExchangeGraph.step` gives through
    the node's picker, labelled by mutation index and consumed c-vector.

    Args:
        seed: an initial seed (B over the identity).
        budget: node budget for the search; every green sequence, maximal or
            not, is one node, and so is the empty one at the seed.

    Raises:
        SearchBudgetExceeded: if more than `budget` nodes are visited; the
            exception's `partial` attribute carries the sequences found so far.
        AssertionError: on a sign-incoherent c-vector, or if row k of some
            state's mutated B_t disagrees with the forms c_k^T B_0 c_j that
            its step at k read.
        ValueError: if the seed's C is not the identity.
    """
    graph = _ExchangeGraph()
    # The build's pre-order is the walk's first-visit order, so every state
    # the walk reaches within its budget was entered and checked by the
    # build. Each state is at least one path node, so a graph past the
    # budget runs the walk below out too, with its partial list.
    with suppress(SearchBudgetExceeded):
        graph.build(seed, budget)
    vecs, green, step = graph.vecs, graph.green, graph.step

    def expand(ids: Ids) -> list:
        pick = _picker(ids)
        return [((k, vecs[i]), step(ids, k, pick)) for k, i in enumerate(ids) if green[i]]

    def record(labels: list, ids: Ids) -> GreenSequence:
        return GreenSequence(*zip(*labels)) if labels else GreenSequence((), ())  # n = 0

    return maximal_paths(graph.of(seed), expand, record, budget, "green-sequence")


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
    graph. Its states are the sorted c-vector ids (the c-vectors fix the seed
    up to relabelling, which changes none of the three numbers), and
    `_ExchangeGraph.build` numbers them in post-order, so count, minimum and
    maximum are one fold over that order: a state's three come from its
    children's, which are numbered before it. B_t is mutated and its row
    checked once per state, when the build enters it, and not for the seed.

    Args:
        seed: an initial seed (B over the identity).
        budget: maximum number of states entered.

    Raises:
        SearchBudgetExceeded: if more than `budget` states are entered. No
            partial answer is kept (`partial` is None).
        AssertionError: on a sign-incoherent c-vector, if row k of some
            state's mutated B_t disagrees with the forms c_k^T B_0 c_j that
            its step at k read, or if a green mutation leads back to a state
            whose search is still open.
        ValueError: if the seed's C is not the identity.
    """
    graph = _ExchangeGraph()
    graph.build(seed, budget)
    counts: list[int] = []  # per state number, and so are `los` and `his`
    los: list[int] = []
    his: list[int] = []
    for below in graph.children:
        if below:
            get = _picker(below)
            counts.append(sum(get(counts)))
            los.append(1 + min(get(los)))
            his.append(1 + max(get(his)))
        else:
            counts.append(1)
            los.append(0)
            his.append(0)
    # the seed's, numbered last
    return MgsSummary(count=counts[-1], min_len=los[-1], max_len=his[-1], states=len(counts))


def replay_c_vector_sequence(
    seed: ExtExchangeMatrix, c_vectors: Iterable[IntVector]
) -> tuple[GreenSequence, ExtExchangeMatrix]:
    """Rebuild a green sequence from the c-vectors it is supposed to consume.

    At each step the (unique, the c-columns are a basis) green vertex whose
    c-column equals the requested vector is mutated. Sign coherence is
    asserted on every c-vector met, by an `_ExchangeGraph`'s id table.

    Raises:
        ValueError: if some step has no green vertex with that c-vector.
    """
    graph = _ExchangeGraph()
    m = seed
    indices: list[int] = []
    consumed: list[IntVector] = []
    for t, want in enumerate(c_vectors):
        want = tuple(int(x) for x in want)
        ids = graph.of(m)
        i = graph.ids.get(want)
        if i not in ids or not graph.green[i]:
            raise ValueError(f"step {t}: no green vertex carries c-vector {want}")
        k = ids.index(i)
        indices.append(k)
        consumed.append(want)
        m = mutate(m, k)
    return GreenSequence(tuple(indices), tuple(consumed)), m


def equivalence_classes(
    seqs: Iterable[GreenSequence],
) -> dict[tuple[IntVector, ...], list[GreenSequence]]:
    """Group green sequences by c-vector multiset, keyed by the sorted tuple
    of their c-vectors: two maximal green sequences are treated as equivalent
    iff their multisets coincide."""
    classes: dict[tuple[IntVector, ...], list[GreenSequence]] = {}
    for s in seqs:
        classes.setdefault(tuple(sorted(s.c_vectors)), []).append(s)
    return classes
