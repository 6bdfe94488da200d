"""Mutation rule, iterative enumeration and the exchange-graph summary."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import exchange
from greenseq.errors import SearchBudgetExceeded

import common

SMALL = ("a3_cyclic", "d4_cyclic", "a5_example")

# maximal green sequences: (count, min length, max length, exchange-graph states)
SUMMARIES = {
    "a3_cyclic": (9, 4, 5, 14),
    "d4_cyclic": (112, 6, 9, 50),
    "a5_example": (2242, 7, 13, 132),
    "a9_example": (1_555_927_224_943_624, 13, 37, 16_796),
}

# the kept exchange graph: (states, green edges)
GRAPHS = {
    "a3_cyclic": (14, 21),
    "d4_cyclic": (50, 100),
    "a5_example": (132, 330),
    "a9_example": (16_796, 75_582),
}

# maximal green sequences by length
SPECTRA = {
    "a3_cyclic": {4: 6, 5: 3},
    "d4_cyclic": {6: 32, 7: 44, 8: 20, 9: 16},
    "a5_example": {7: 126, 8: 424, 9: 544, 10: 508, 11: 264, 12: 208, 13: 168},
}


def seed_of(name):
    return exchange.initial_seed(common.problem(name).qp.quiver)


def reference_mutate(m, k):
    """The entrywise three-branch Fomin-Zelevinsky rule, one entry at a time."""
    old = m.rows()
    new = []
    for i in range(2 * m.n):
        row = []
        for j in range(m.n):
            if i == k or j == k:
                row.append(-old[i][j])
            else:
                bik, bkj = old[i][k], old[k][j]
                if bik > 0 and bkj > 0:
                    row.append(old[i][j] + bik * bkj)
                elif bik < 0 and bkj < 0:
                    row.append(old[i][j] - bik * bkj)
                else:
                    row.append(old[i][j])
        new.append(tuple(row))
    return exchange.ExtExchangeMatrix(m.n, tuple(new[: m.n]), tuple(new[m.n :]))


def reference_sequences(seed, maximal_only=False):
    """Recursive enumeration by the definition, in lexicographic order: every
    nonempty green sequence, or only the maximal ones."""
    out = []

    def walk(m, indices, cvecs):
        greens = [k for k in range(m.n) if exchange.is_green(m, k)]
        if maximal_only:
            if not greens:
                out.append((indices, cvecs))
        elif indices:
            out.append((indices, cvecs))
        for k in greens:
            walk(exchange.mutate(m, k), indices + (k,), cvecs + (exchange.c_vector(m, k),))

    walk(seed, (), ())
    return out


def mutated_seeds(name, count):
    """Initial seeds of the first `count` new B-matrices met on a seeded
    random walk through the problem's mutation class."""
    rng = random.Random(f"{name}-mutation-class")
    m = seed_of(name)
    seen = {m.b}
    seeds = []
    while len(seeds) < count:
        m = exchange.mutate(m, rng.randrange(m.n))
        if m.b not in seen:
            seen.add(m.b)
            seeds.append(exchange.initial_seed_from_matrix(m.b))
    return seeds


def kronecker_seed():
    return exchange.initial_seed_from_matrix([[0, 2], [-2, 0]])


@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_mutate_matches_the_entrywise_rule(name):
    rng = random.Random(f"{name}-walk")
    m = seed_of(name)
    for _ in range(2000):
        k = rng.randrange(m.n)
        step = exchange.mutate(m, k)
        assert step == reference_mutate(m, k)
        assert exchange.mutate(step, k) == m
        m = step


# small entries make zeros and equal signs common; unbounded ones test size
ENTRIES = st.integers(-3, 3) | st.integers()


@st.composite
def extended_matrices(draw):
    """Any integer 2n x n matrix, n from 1 to 6: B skew-symmetric or not, and
    C not necessarily sign-coherent."""
    n = draw(st.integers(1, 6))
    square = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    b, c = draw(square), draw(square)
    if draw(st.booleans()):
        b = [[b[i][j] if i < j else -b[j][i] if i > j else 0 for j in range(n)] for i in range(n)]
    return exchange.ExtExchangeMatrix(n, tuple(map(tuple, b)), tuple(map(tuple, c)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(extended_matrices())
def test_mutate_matches_the_entrywise_rule_on_any_integer_matrix(m):
    for k in range(m.n):
        step = exchange.mutate(m, k)
        assert step == reference_mutate(m, k)
        assert exchange.mutate(step, k) == m
    for k in (m.n, -1):
        with pytest.raises(IndexError):
            exchange.mutate(m, k)


@pytest.mark.parametrize(
    "b, summary",
    [((), (1, 0, 0, 1)), (((0,),), (1, 1, 1, 2)), (((0, 1), (-1, 0)), (2, 2, 3, 5))],
    ids=["n=0", "A1", "A2"],
)
def test_graphs_of_at_most_two_vertices(b, summary):
    # a state of one c-vector reads its step through a row lookup of its own,
    # since `itemgetter` of one key gives no tuple; n = 0 has no step at all
    seed = exchange.initial_seed_from_matrix(b)
    assert tuple(exchange.mgs_summary(seed)) == summary
    got = exchange.enumerate_green_sequences(seed)
    assert [(s.mutation_indices, s.c_vectors) for s in got] == reference_sequences(
        seed, maximal_only=True
    )


@pytest.mark.parametrize("name", SMALL)
def test_enumeration_matches_the_recursive_definition(name):
    for seed in [seed_of(name)] + mutated_seeds(name, 3):
        got = exchange.enumerate_green_sequences(seed)
        assert [(s.mutation_indices, s.c_vectors) for s in got] == reference_sequences(
            seed, maximal_only=True
        )


def record_b_mutations(monkeypatch):
    """The list to which each later call of `exchange._mutated_b` appends
    its (k, B in, B out)."""
    calls = []
    mutated_b = exchange._mutated_b

    def recorded(b, k):
        out = mutated_b(b, k)
        calls.append((k, b, out[0]))
        return out

    monkeypatch.setattr(exchange, "_mutated_b", recorded)
    return calls


@pytest.mark.parametrize("name", SMALL)
def test_mutate_runs_once_per_seed_entered(monkeypatch, name):
    # both searches mutate B_t once per exchange-graph state other than the
    # first, and build no extended matrix past the seed
    seed = seed_of(name)
    calls = record_b_mutations(monkeypatch)
    matrices = []
    init = exchange.ExtExchangeMatrix.__init__

    def counted(self, *args, **kwargs):
        matrices.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(exchange.ExtExchangeMatrix, "__init__", counted)
    for search in (exchange.enumerate_green_sequences, exchange.mgs_summary):
        del calls[:], matrices[:]
        search(seed)
        assert len(calls) == SUMMARIES[name][3] - 1
        assert len(matrices) == 1  # the build's check that C is the identity


def test_mutate_is_called_only_where_a_state_is_entered():
    # every reference to `mutate` and to its B half `_mutated_b` in
    # exchange.py, named by its enclosing class and function; the searches
    # reach FZ mutation only through the graph, which mutates B alone
    found = {"mutate": [], "_mutated_b": []}

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = where + (child.name,)
            elif isinstance(child, ast.Name) and child.id in found:
                found[child.id].append(".".join(where))
            walk(child, inner)

    walk(ast.parse(Path(exchange.__file__).read_text()), ())
    assert sorted(found["_mutated_b"]) == ["_ExchangeGraph.enter", "mutate"]
    assert found["mutate"] == ["replay_c_vector_sequence"]


@pytest.mark.parametrize(
    "name, seeds, edges",
    [("a3_cyclic", 23, 27), ("d4_cyclic", 154, 224), ("a5_example", 615, 1088)],
)
def test_step_predicts_mutate_on_every_labelled_seed(name, seeds, edges):
    # the searches check `mutate` once per state, so a step from any other
    # labelling of that state is checked here, on every green edge
    seed = seed_of(name)
    graph = exchange._ExchangeGraph()
    graph.build(seed)
    root = graph.of(seed)
    matrices = {root: seed}
    todo = [root]
    count = 0
    while todo:
        ids = todo.pop()
        m = matrices[ids]
        for k in range(m.n):
            if exchange.is_green(m, k):
                child = exchange.mutate(m, k)
                step = graph.step(ids, k, exchange._picker(ids))
                assert step == graph.of(child)
                count += 1
                if step not in matrices:
                    matrices[step] = child
                    todo.append(step)
    assert (len(matrices), count) == (seeds, edges)


def test_step_predicts_mutate_on_a_green_walk_through_a9():
    rng = random.Random("a9-green-walk")
    seed = seed_of("a9_example")
    graph = exchange._ExchangeGraph()
    graph.build(seed)
    root = graph.of(seed)
    ids, m = root, seed
    steps = 0
    while steps < 2000:
        greens = [k for k in range(m.n) if exchange.is_green(m, k)]
        if not greens:  # a maximal green sequence ended: walk again
            ids, m = root, seed
            continue
        k = rng.choice(greens)
        m = exchange.mutate(m, k)
        ids = graph.step(ids, k, exchange._picker(ids))
        assert ids == graph.of(m)
        steps += 1


def test_searches_start_from_an_initial_seed():
    seed = exchange.mutate(seed_of("a3_cyclic"), 0)
    for search in (exchange.enumerate_green_sequences, exchange.mgs_summary):
        with pytest.raises(ValueError, match="initial seed"):
            search(seed)


def corrupt_before_a_row_check(monkeypatch, name, sign):
    """Corrupt the B_t of an entered state from which the next state is
    entered, at some k, in one skew pair: b_kj, of `sign`, and b_jk move one
    further from zero. Returns the list that each B mutation appends to, and
    its length when that next state is entered."""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_b_mutations(patch)
        built_graph(name)
    for t in range(4, len(calls) - 1):
        k, b, _ = calls[t + 1]
        j = next((j for j, x in enumerate(b[k]) if x * sign > 0), None)
        if b == calls[t][2] and j is not None:  # entered from the state t made
            break
    else:
        pytest.fail(f"no state of {name} to corrupt")
    done = []
    mutated_b = exchange._mutated_b

    def corrupted(b, at):
        out, plus, minus = mutated_b(b, at)
        done.append(at)
        if len(done) == t + 1:
            rows = [list(row) for row in out]
            rows[k][j] += sign
            rows[j][k] -= sign
            out = tuple(map(tuple, rows))
        return out, plus, minus

    monkeypatch.setattr(exchange, "_mutated_b", corrupted)
    return done, t + 1


@pytest.mark.parametrize(
    "search",
    [exchange.enumerate_green_sequences, exchange.mgs_summary],
    ids=["enumerate", "summary"],
)
def test_mutate_is_checked_against_the_predicted_c_vectors(monkeypatch, search):
    # a positive b_kj is the multiplier of c_k in the step's c_j', so the
    # child entered at k from the corrupted state reads a wrong row
    done, made = corrupt_before_a_row_check(monkeypatch, "d4_cyclic", 1)
    with pytest.raises(AssertionError, match="green mutation rule"):
        search(seed_of("d4_cyclic"))
    assert len(done) == made


@pytest.mark.parametrize(
    "search",
    [exchange.enumerate_green_sequences, exchange.mgs_summary],
    ids=["enumerate", "summary"],
)
def test_row_check_sees_a_negative_entry(monkeypatch, search):
    # a negative b_kj changes no c-vector of the step at k, since FZ
    # mutation of C at a green k adds only [b_kj]_+ c_k; the whole row of
    # B_t is compared, so the child entered at k still fails at once
    done, made = corrupt_before_a_row_check(monkeypatch, "d4_cyclic", -1)
    with pytest.raises(AssertionError, match="green mutation rule"):
        search(seed_of("d4_cyclic"))
    assert len(done) == made


@pytest.mark.parametrize(
    "search",
    [
        exchange.enumerate_green_sequences,
        exchange.mgs_summary,
        lambda seed: exchange.replay_c_vector_sequence(seed, [(1, 0)]),
    ],
    ids=["enumerate", "summary", "replay"],
)
def test_sign_coherence_is_asserted(search):
    seed = exchange.ExtExchangeMatrix(2, ((0, 1), (-1, 0)), ((1, 0), (-1, 1)))
    with pytest.raises(AssertionError, match="sign coherence"):
        search(seed)


def test_enumeration_budget_counts_nodes():
    # every nonempty green sequence is one node, and so is the root; the last
    # node entered is a leaf, i.e. the last maximal green sequence
    seed = seed_of("d4_cyclic")
    nodes = len(reference_sequences(seed)) + 1
    every = exchange.enumerate_green_sequences(seed)
    assert exchange.enumerate_green_sequences(seed, budget=nodes) == every
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.enumerate_green_sequences(seed, budget=nodes - 1)
    assert info.value.partial == every[:-1]


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    # one green branch of the Kronecker quiver never ends
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.enumerate_green_sequences(kronecker_seed(), budget=5000)
    assert isinstance(info.value.partial, list)


@pytest.mark.parametrize("name", SMALL)
def test_summary_matches_enumeration(name):
    for seed in [seed_of(name)] + mutated_seeds(name, 3):
        seqs = exchange.enumerate_green_sequences(seed)
        lengths = [len(s) for s in seqs]
        summary = exchange.mgs_summary(seed)
        assert (summary.count, summary.min_len, summary.max_len) == (
            len(seqs), min(lengths), max(lengths),
        )
        assert summary.states == SUMMARIES[name][3]


def test_summary_a9():
    summary = exchange.mgs_summary(seed_of("a9_example"))
    assert (summary.count, summary.min_len, summary.max_len, summary.states) == SUMMARIES[
        "a9_example"
    ]


@pytest.mark.parametrize("name", SMALL)
def test_states_are_seeds_fixed_by_their_c_vectors(name):
    # B_t = C_t^T B_0 C_t at every state reached by green mutations, and the
    # states counted by c-vector sets are those counted by the summary
    b0 = seed_of(name).b
    n = len(b0)
    seen = set()
    todo = [seed_of(name)]
    while todo:
        m = todo.pop()
        key = frozenset(zip(*m.c))
        if key in seen:
            continue
        seen.add(key)
        c = m.c
        assert m.b == tuple(
            tuple(
                sum(c[p][i] * b0[p][q] * c[q][j] for p in range(n) for q in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        todo.extend(exchange.mutate(m, k) for k in range(n) if exchange.is_green(m, k))
    assert len(seen) == SUMMARIES[name][3]


def test_summary_budget_counts_states():
    seed = seed_of("a5_example")
    assert exchange.mgs_summary(seed, budget=132).states == 132
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.mgs_summary(seed, budget=131)
    assert info.value.partial is None
    summary = exchange.mgs_summary(seed, budget=132)
    assert (summary.min_len, summary.max_len) == (7, 13)
    with pytest.raises(SearchBudgetExceeded):
        exchange.mgs_summary(kronecker_seed(), budget=2000)


def built_graph(name):
    graph = exchange._ExchangeGraph()
    graph.build(seed_of(name))
    return graph


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kept_graph_is_numbered_in_post_order(monkeypatch, name):
    # one build enters every state once; a child is numbered before its
    # parent, so the numbers are a topological order with the seed last
    calls = record_b_mutations(monkeypatch)
    graph = built_graph(name)
    children = graph.children
    states = len(children)
    assert (states, sum(map(len, children))) == GRAPHS[name]
    assert all(child < parent for parent, below in enumerate(children) for child in below)
    assert sorted(graph.number.values()) == list(range(states))
    assert graph.number[tuple(sorted(graph.of(seed_of(name))))] == states - 1
    assert len(calls) == states - 1


@pytest.mark.parametrize(
    "name, budget, count",
    [("a5_example", 100, 26), ("a5_example", 131, 33), ("a9_example", 1000, 248)],
)
def test_listing_is_partial_where_the_graph_passes_the_budget(name, budget, count):
    # the graph has more states than the node budget, so its build stops
    # early; the listing still returns every sequence met within the budget
    assert GRAPHS[name][0] > budget
    seed = seed_of(name)
    with pytest.raises(SearchBudgetExceeded) as info:
        exchange.enumerate_green_sequences(seed, budget=budget)
    partial = info.value.partial
    assert len(partial) == count
    if name == "a5_example":
        assert partial == exchange.enumerate_green_sequences(seed)[:count]
    if budget == 100:
        assert partial[-1].mutation_indices == (0, 1, 0, 3, 4, 3, 2, 3, 0, 2)


@pytest.mark.parametrize("name", SMALL)
def test_length_spectrum_is_one_fold_over_the_kept_graph(name):
    spectra = []  # length -> count of the maximal paths from each state
    for below in built_graph(name).children:
        spectrum = Counter() if below else Counter({0: 1})
        for child in below:
            spectrum.update({length + 1: n for length, n in spectra[child].items()})
        spectra.append(spectrum)
    spectrum = spectra[-1]
    assert spectrum == SPECTRA[name]
    summary = exchange.mgs_summary(seed_of(name))
    assert (sum(spectrum.values()), min(spectrum), max(spectrum)) == summary[:3]
