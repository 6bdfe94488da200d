"""The package's record classes, pinned by behaviour: positional and keyword
construction, defaults, which fields `==` and `hash` read, which records
reject assignment, and the checks their constructors run."""

import ast
from fractions import Fraction

import pytest

from greenseq import exchange, io, qp, qp_mutation, reflect, rep, walls
from greenseq.errors import InvalidQuiverError

import common

MUTATION_FIELDS = (
    "source", "target", "k", "i_set", "j_set", "p_pairs", "p_prime", "alpha",
    "beta", "gamma", "alpha_star", "beta_star", "gamma_star", "f_paths",
    "g_paths", "triangle_coeff",
)

# the records that may be assigned to; every other one is frozen
MUTABLE = {"Catalog", "ProblemFile"}
# the records whose hash raises: mutable ones, and ones holding dicts
UNHASHABLE = {"Catalog", "ProblemFile", "MutationData", "ReflectionContext"}

# each slotted record and the fields its `==` and `hash` read; its other slots
# are left out of both
COMPARED = {
    "Quiver": ("vertices", "arrows"),
    "QuiverWithPotential": ("quiver", "potential"),
    "ProblemFile": ("qp", "field_prime", "search_budget", "rng_seed"),
    "ExtExchangeMatrix": ("n", "b", "c"),
    "GreenSequence": ("mutation_indices", "c_vectors"),
    "Algebra": ("quiver", "relations", "p"),
    "Representation": ("algebra", "dims", "mats"),
    "Catalog": ("algebra", "modules"),
}

# the optional trailing arguments of each record and their defaults
DEFAULTS = {
    "QuiverWithPotential": {"potential": ()},
    "Relation": {"arrow": ""},
    "ProblemFile": {"field_prime": 2, "search_budget": 1_000_000, "rng_seed": 0},
    "Algebra": {"p": 2},
    "Representation": {"label": "", "walk": ()},
}


def _cases():
    """Class name -> (class, field names in positional order, one value each)."""
    catalog = common.catalog("a3_cyclic")
    algebra = catalog.algebra
    quiver = algebra.quiver
    problem = common.problem("a3_cyclic")
    m0 = catalog.modules[0]
    data = qp_mutation.mutate_qp_data(problem.qp, quiver.vertices[0])
    seed = exchange.initial_seed(quiver)
    wall = walls.wall_for(m0)
    context = reflect.reflection_context(problem.qp, quiver.vertices[0])
    rows = [
        (qp.Arrow, ("id", "src", "tgt"), ("x", 1, 2)),
        (qp.Quiver, ("vertices", "arrows"), (quiver.vertices, quiver.arrows)),
        (qp.PotentialTerm, ("coeff", "cycle"), (Fraction(2), ("a", "b", "c"))),
        (qp.QuiverWithPotential, ("quiver", "potential"), (quiver, problem.qp.potential)),
        (qp.Relation, ("terms", "arrow"), (algebra.relations[0].terms, "a")),
        (qp_mutation.MutationData, MUTATION_FIELDS, tuple(getattr(data, f) for f in MUTATION_FIELDS)),
        (
            io.ProblemFile,
            ("qp", "field_prime", "search_budget", "rng_seed"),
            (problem.qp, 3, 50, 7),
        ),
        (exchange.ExtExchangeMatrix, ("n", "b", "c"), (seed.n, seed.b, seed.c)),
        (exchange.GreenSequence, ("mutation_indices", "c_vectors"), ((0, 1), ((1, 0, 0), (0, 1, 0)))),
        (rep.Algebra, ("quiver", "relations", "p"), (quiver, algebra.relations, 3)),
        (
            rep.Representation,
            ("algebra", "dims", "mats", "label", "walk"),
            (m0.algebra, m0.dims, m0.mats, "M", m0.walk),
        ),
        (rep.Catalog, ("algebra", "modules"), (algebra, catalog.modules)),
        (walls.Wall, ("module", "normal", "faces"), (wall.module, wall.normal, wall.faces)),
        (walls.CrossingRecord, ("time", "module", "interior"), (Fraction(1, 2), m0, True)),
        (
            reflect.ReflectionContext,
            ("data", "source_algebra", "target_algebra"),
            (context.data, context.source_algebra, context.target_algebra),
        ),
    ]
    return {cls.__name__: (cls, names, values) for cls, names, values in rows}


NAMES = sorted(_cases())


def test_every_record_is_listed():
    assert len(NAMES) == 15
    assert set(DEFAULTS) | MUTABLE | UNHASHABLE <= set(NAMES)
    cases = _cases()
    assert set(COMPARED) == {n for n in NAMES if not issubclass(cases[n][0], tuple)}


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, names, values = _cases()[name]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for field, value in zip(names, values):
        assert getattr(by_position, field) == value
        assert getattr(by_keyword, field) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword
    if name not in UNHASHABLE:
        assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("name", NAMES)
def test_too_many_or_unknown_arguments_are_rejected(name):
    cls, names, values = _cases()[name]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_defaults(name):
    cls, names, values = _cases()[name]
    optional = DEFAULTS[name]
    required = names[: len(names) - len(optional)]
    assert tuple(optional) == names[len(required):]
    record = cls(*values[: len(required)])
    for field, default in optional.items():
        assert getattr(record, field) == default


@pytest.mark.parametrize("name", [n for n in NAMES if n not in MUTABLE])
def test_frozen_records_reject_assignment(name):
    cls, names, values = _cases()[name]
    record = cls(*values)
    for field, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) == value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_unhashable_records(name):
    cls, names, values = _cases()[name]
    with pytest.raises(TypeError):
        hash(cls(*values))


def test_problem_file_is_mutable():
    cls, names, values = _cases()["ProblemFile"]
    problem = cls(*values)
    problem.rng_seed = 11
    assert problem.rng_seed == 11
    assert problem != cls(*values)


def test_catalog_walls_are_assignable_and_not_compared():
    cls, names, values = _cases()["Catalog"]
    catalog = cls(*values)
    assert catalog.walls is None
    assert catalog.schurian_positions is None
    catalog.walls = walls.catalog_walls(catalog)
    assert catalog.walls is not None
    assert catalog == cls(*values)
    assert catalog != cls(values[0], values[1][:-1])


def test_representation_compares_without_label_walk_or_matrix_table():
    cls, names, values = _cases()["Representation"]
    first = cls(*values)
    second = cls(values[0], values[1], values[2], label="other", walk=())
    object.__setattr__(second, "_mat", {})
    assert first == second
    assert hash(first) == hash(second)
    other = common.catalog("a3_cyclic").modules[1]
    assert first != other


def test_quiver_compares_without_its_lookup_tables():
    cls, names, values = _cases()["Quiver"]
    first = cls(*values)
    second = cls(*values)
    object.__setattr__(second, "_pos", {})
    object.__setattr__(second, "_arrow", {})
    assert first == second
    assert hash(first) == hash(second)
    assert first != cls(values[0], values[1][:-1])


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("Arrow", "tgt", 3),
        ("PotentialTerm", "coeff", Fraction(3)),
        ("Relation", "arrow", "b"),
        ("ProblemFile", "field_prime", 5),
        ("GreenSequence", "mutation_indices", (1, 0)),
        ("Algebra", "p", 2),
        ("CrossingRecord", "interior", False),
        ("Wall", "normal", (9, 9, 9)),
    ],
)
def test_records_differ_on_a_compared_field(name, field, value):
    cls, names, values = _cases()[name]
    changed = dict(zip(names, values), **{field: value})
    assert cls(*values) != cls(**changed)


@pytest.mark.parametrize("name", sorted(COMPARED))
def test_eq_and_hash_read_exactly_the_compared_fields(name):
    # each slot in turn is set to a fresh object past the constructor's checks
    cls, names, values = _cases()[name]
    compared = COMPARED[name]
    assert set(compared) <= set(cls.__slots__)
    record = cls(*values)
    hashable = name not in UNHASHABLE
    if hashable:
        assert hash(record) == hash(tuple(getattr(record, f) for f in compared))
    for field in cls.__slots__:
        changed = cls(*values)
        object.__setattr__(changed, field, object())
        if field in compared:
            assert record != changed, field
            assert not record == changed, field
        else:
            assert record == changed, field
            if hashable:
                assert hash(record) == hash(changed), field


def test_sequence_lengths():
    cls, names, values = _cases()["GreenSequence"]
    assert len(cls(*values)) == 2


def test_constructors_still_validate():
    cases = _cases()
    cls, names, (n, b, c) = cases["ExtExchangeMatrix"]
    with pytest.raises(ValueError):
        cls(n, b, c[:-1])
    cls, names, (vertices, arrows) = cases["Quiver"]
    with pytest.raises(InvalidQuiverError):
        cls(vertices + vertices[:1], arrows)
    cls, names, (quiver, relations, p) = cases["Algebra"]
    with pytest.raises(ValueError):
        cls(quiver, relations, 4)
    cls, names, (algebra, dims, mats, label, walk) = cases["Representation"]
    with pytest.raises(ValueError):
        cls(algebra, dims[:-1], mats)


def test_exchange_matrix_checks_both_halves():
    # the constructor checks B and C in one pass; each way a half can be
    # short is caught, whichever half it is in
    cls, names, (n, b, c) = _cases()["ExtExchangeMatrix"]
    short = b[1][:-1]
    for bad_b, bad_c in [
        (b[:1] + (short,) + b[2:], c),
        (b, c[:1] + (c[1][:-1],) + c[2:]),
        (b[:-1], c),
        (b, c[:-1]),
        (b + b[:1], c),
        (b, c[:1] + (c[1] + (0,),) + c[2:]),
    ]:
        with pytest.raises(ValueError, match="matrix halves must be n x n"):
            cls(n, bad_b, bad_c)
    empty = cls(0, (), ())
    assert (empty.n, empty.b, empty.c) == (0, (), ())
    assert exchange.mgs_summary(empty) == exchange.MgsSummary(1, 0, 0, 1)


def test_quiver_with_potential_combines_its_terms():
    qpot = common.problem("a3_cyclic").qp
    (term,) = qpot.potential
    rotated = term.cycle[1:] + term.cycle[:1]
    combined = qp.QuiverWithPotential(
        qpot.quiver, (qp.PotentialTerm(Fraction(1), term.cycle), qp.PotentialTerm(2, rotated))
    )
    assert combined.potential == (qp.PotentialTerm(Fraction(3), term.cycle),)


def _record_rule_breaches(path):
    """`__eq__`/`__hash__` defined in a class body, or `object.__setattr__` called."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign) and not (
                    isinstance(item.value, ast.Constant) and item.value.value is None
                ):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    names = []
                found += [f"{node.name}.{n}" for n in names if n in ("__eq__", "__hash__")]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            found.append(f"object.__setattr__ at line {node.lineno}")
    return found


def test_only_records_defines_equality_hashing_and_field_setting():
    # the rule for which fields `==` reads lives in one place; `__hash__ = None`
    # marks a mutable record as unhashable
    package = common.PROBLEMS.parent / "src" / "greenseq"
    paths = sorted(package.glob("*.py"))
    assert package / "records.py" in paths
    breaches = {
        path.name: found
        for path in paths
        if path.name != "records.py" and (found := _record_rule_breaches(path))
    }
    assert breaches == {}
