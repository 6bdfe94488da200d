"""String module catalogs, Hom spaces, and submodule enumeration."""

import hashlib

import pytest

from greenseq import linalg, rep
from greenseq.errors import NonStringAlgebraError, SearchBudgetExceeded
from greenseq.qp import Arrow, Quiver
from greenseq.rep import (
    Algebra,
    check_relations,
    check_string_algebra,
    eval_path,
    eval_terms,
    hom_basis,
    hom_dim,
    injective,
    is_schurian,
    make_rep,
    projective,
    simple,
    string_module,
    submodule_dimvecs,
)

import common

A3_LABELS = ["1", "1<2", "1>3", "2", "2<3", "3"]
A3_DIMS = {
    "1": (1, 0, 0),
    "2": (0, 1, 0),
    "3": (0, 0, 1),
    "1<2": (1, 1, 0),
    "1>3": (1, 0, 1),
    "2<3": (0, 1, 1),
}

D4_LABELS = [
    "1", "1<2", "1<2<3", "1>4", "1>4>3", "2",
    "2<3", "2<3<4", "2>1>4", "3", "3<4", "4",
]

A5_LABELS = [
    "1", "1<3", "1<3<5", "1<3>4", "1>2", "2", "2>3", "2>3<5",
    "2>3>4", "3", "3<5", "3>4", "4", "4>5", "5",
]

# Rows are source modules, columns targets; only nonzero entries listed.
A3_HOM = {
    "1": {"1": 1, "1<2": 1},
    "2": {"2": 1, "2<3": 1},
    "3": {"3": 1, "1>3": 1},
    "2<3": {"3": 1, "2<3": 1, "1>3": 1},
    "1>3": {"1": 1, "1>3": 1, "1<2": 1},
    "1<2": {"2": 1, "2<3": 1, "1<2": 1},
}


def test_catalog_sizes():
    assert len(common.catalog("a3_cyclic").modules) == 6
    assert len(common.catalog("a5_example").modules) == 15
    assert len(common.catalog("d4_cyclic").modules) == 12
    assert len(common.catalog("a9_example").modules) == 45
    assert len(common.nakayama_catalog().modules) == 20


def test_catalog_labels(a3_catalog, d4_catalog, a5_catalog):
    assert common.labels(a3_catalog) == A3_LABELS
    assert common.labels(d4_catalog) == D4_LABELS
    assert common.labels(a5_catalog) == A5_LABELS


def test_catalog_dims(a3_catalog):
    assert {m.label: m.dims for m in a3_catalog.modules} == A3_DIMS


def test_catalog_lookup(a3_catalog):
    m = a3_catalog.by_label("2<3")
    assert m.dims == (0, 1, 1)
    assert a3_catalog.unique_by_dims((1, 0, 1)).label == "1>3"
    assert [x.label for x in a3_catalog.by_dims((1, 1, 0))] == ["1<2"]
    assert a3_catalog.modules[a3_catalog.index(m)] is m


def test_projectives_and_injectives(a3_algebra):
    assert projective(a3_algebra, 1).dims == (1, 0, 1)
    assert projective(a3_algebra, 2).dims == (1, 1, 0)
    assert projective(a3_algebra, 3).dims == (0, 1, 1)
    assert injective(a3_algebra, 1).dims == (1, 1, 0)
    assert injective(a3_algebra, 2).dims == (0, 1, 1)
    assert injective(a3_algebra, 3).dims == (1, 0, 1)


@pytest.mark.parametrize(
    "name, projective_digest, injective_digest",
    [
        (
            "a3_cyclic",
            "5a12b6d517a90abbb108fd03adaf30c86ff6ee0c5597c1f2c3b16bc93bf36cc2",
            "a288fffdfd0491003d86c31402923c2754d4f11c806f58517dd454bcacb9c43f",
        ),
        (
            "a5_example",
            "7ad97034642f522f58b50ab83ffb1d4564f28709568705bd339f6d301836c6c2",
            "eb80947004f00b713084549c85b1c7a4f88ad5925e0de2d4b39396082902e5ab",
        ),
        (
            "d4_cyclic",
            "962dc631d691110112cf9fb743eb57ce994c57c3343d4dc78204c864e4d69073",
            "541438bf5b3748abf48a2fba221dc5e71349ace6ebbb9aa9854dd8442890986a",
        ),
        (
            "a9_example",
            "b9df2752a54df5636c469285e5859585f4dbeb71608fdace7c38a96233485dae",
            "eeb404d58886937c6c492cdf87e5872e1d2ba22885d163a837eb27b9b4cf7603",
        ),
        (
            "nakayama",
            "434bc6bf1ebea6833c070e914a421fdd4cfe41e4f848ece708d452d5cc1ac35d",
            "0ccc2e7c482f779ae2ee608e20f68489daba3fd95fcf28e63e014b789773224d",
        ),
    ],
)
def test_projectives_and_injectives_are_pinned(name, projective_digest, injective_digest):
    """Exact matrices and labels of every P_v and I_v: the catalog finds
    `projective(alg, v)` by equality, so basis order matters."""
    alg = common.nakayama_algebra() if name == "nakayama" else common.algebra(name)
    vertices = alg.quiver.vertices
    assert common.digest(projective(alg, v) for v in vertices) == projective_digest
    assert common.digest(injective(alg, v) for v in vertices) == injective_digest


@pytest.mark.parametrize(
    "name, expected",
    [
        ("a3_cyclic", "2e7fb75e65748235f8a66f8bf50e2a794d8f3541563aa9644d7221b72088a115"),
        ("a5_example", "fbad9cb7cc9d2df54e791184575198d670c305c980262bf44ecf246674db42cb"),
        ("d4_cyclic", "854e9d04b9a26da2e168cece637aa978d16fbe347332809a1fcd0928bf83e8ec"),
        ("a9_example", "3a53fbbaeb7a88f2078ae30f3c151e5b8eea7173387943811c39f4313b7902e2"),
        ("nakayama", "82e4e0295bb1369f1b586d701725b475627127f964a8aeb5dafe242fca8eeccb"),
    ],
)
def test_string_catalogs_are_pinned(name, expected):
    """Exact matrices, label and walk of every string module, in catalog
    order: positions index the Hom table, and `bounds.module_diagram` reads
    the walk."""
    cat = common.nakayama_catalog() if name == "nakayama" else common.catalog(name)
    h = hashlib.sha256()
    for m in cat.modules:
        h.update(repr((m.dims, m.mats, m.label, m.walk)).encode())
    assert h.hexdigest() == expected


def test_paths_of_an_infinite_dimensional_algebra_hit_the_cap():
    """An oriented 3-cycle without relations has paths of every length."""
    cycle = Quiver(
        vertices=(1, 2, 3),
        arrows=(Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)),
    )
    alg = Algebra(quiver=cycle, relations=(), p=2)
    with pytest.raises(SearchBudgetExceeded):
        projective(alg, 1)
    with pytest.raises(SearchBudgetExceeded):
        injective(alg, 1)


def test_relations_hold_on_catalog_modules(a3_catalog, a5_catalog):
    for cat in (a3_catalog, a5_catalog):
        for m in cat.modules:
            assert check_relations(m) is None


def _every_relation_verdict(m):
    """`check_relations` evaluating every relation, also the empty ones."""
    quiver = m.algebra.quiver
    for rel in m.algebra.relations:
        if rel.terms:
            src, tgt = rel.src_tgt(quiver)
            rows, cols = m.dims[quiver.pos(tgt)], m.dims[quiver.pos(src)]
            if not linalg.is_zero(eval_terms(m, rel.terms, rows, cols)):
                return rel
    return None


@pytest.mark.parametrize("name", common.PROBLEM_NAMES)
def test_relation_check_skips_only_relations_it_cannot_break(name, monkeypatch):
    # each catalog module, and the sum of the dimensions of any two with every
    # matrix all ones, which breaks relations whose ends are both nonzero; the
    # latter are built with the constructor's check switched off
    modules = common.catalog(name).modules
    algebra = modules[0].algebra
    quiver = algebra.quiver
    with monkeypatch.context() as patched:
        patched.setattr(rep, "check_relations", lambda m: None)
        filled = []
        for i, m in enumerate(modules):
            for other in modules[i:]:
                dims = [x + y for x, y in zip(m.dims, other.dims)]
                ones = {
                    a.id: [[1] * dims[quiver.pos(a.src)]] * dims[quiver.pos(a.tgt)]
                    for a in quiver.arrows
                }
                filled.append(make_rep(algebra, dims, ones))
    broken = 0
    for m in [*modules, *filled]:
        verdict = check_relations(m)
        assert verdict == _every_relation_verdict(m)
        broken += verdict is not None
    assert broken > 0


def test_make_rep_rejects_relation_violations(a3_algebra):
    with pytest.raises(ValueError, match="relation"):
        make_rep(
            a3_algebra,
            (1, 1, 1),
            {"a": ((1,),), "b": ((1,),), "g": ((1,),)},
        )


def test_eval_path_shapes(a3_catalog, a3_algebra):
    m = a3_catalog.by_label("1>3")
    assert eval_path(m, ("g",)) == ((1,),)
    # A path through a vertex of dimension zero is the zero map with the
    # endpoint shapes, not an empty matrix.
    s1 = a3_catalog.by_label("1")
    assert eval_path(s1, ("a",)) == ((),)
    assert eval_path(s1, ("b", "a")) == ((),)
    m23 = a3_catalog.by_label("2<3")
    assert eval_path(m23, ("a", "g")) == ((0,),)


def test_hom_table_golden(a3_catalog):
    table = {}
    for m in a3_catalog.modules:
        row = {n.label: hom_dim(m, n) for n in a3_catalog.modules if hom_dim(m, n)}
        table[m.label] = row
    assert table == A3_HOM


def test_hom_from_projective_reads_off_dimension():
    for name in ("a3_cyclic", "d4_cyclic", "a5_example"):
        alg = common.algebra(name)
        cat = common.catalog(name)
        for i, v in enumerate(alg.quiver.vertices):
            p = projective(alg, v)
            for m in cat.modules:
                assert hom_dim(p, m) == m.dims[i]


def test_hom_basis_matches_hom_dim(a3_catalog):
    for m in a3_catalog.modules:
        for n in a3_catalog.modules:
            assert len(hom_basis(m, n)) == hom_dim(m, n)


def test_simples_are_hom_orthogonal(a3_algebra):
    simples = [simple(a3_algebra, v) for v in (1, 2, 3)]
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            assert hom_dim(s, t) == (1 if i == j else 0)


def test_schurian_catalog(a3_catalog, d4_catalog):
    assert all(is_schurian(m) for m in a3_catalog.modules)
    assert all(is_schurian(m) for m in d4_catalog.modules)


def test_nakayama_projective_is_not_schurian(nakayama_algebra):
    p1 = projective(nakayama_algebra, 1)
    assert p1.dims == (2, 1, 1, 1)
    assert injective(nakayama_algebra, 1).dims == (2, 1, 1, 1)
    assert not is_schurian(p1)
    assert hom_dim(p1, p1) == 2


def test_submodule_dimvecs_goldens(a3_catalog, nakayama_algebra):
    s1 = a3_catalog.by_label("1")
    assert submodule_dimvecs(s1) == {(0, 0, 0), (1, 0, 0)}
    assert submodule_dimvecs(a3_catalog.by_label("1>3")) == {
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 1),
    }
    assert submodule_dimvecs(a3_catalog.by_label("2<3")) == {
        (0, 0, 0),
        (0, 1, 0),
        (0, 1, 1),
    }
    # The uniserial projective has one submodule per radical power.
    chain = sorted(submodule_dimvecs(projective(nakayama_algebra, 1)), key=sum)
    assert chain == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 1),
        (1, 1, 1, 1),
        (2, 1, 1, 1),
    ]
    for small, large in zip(chain, chain[1:]):
        assert sum(large) - sum(small) == 1


def test_string_module_walks(a3_algebra, a3_catalog):
    m = string_module(a3_algebra, 2, (("b", -1),))
    assert m.dims == (0, 1, 1)
    for mod in a3_catalog.modules:
        assert mod.walk
        start, word = mod.walk
        rebuilt = string_module(a3_algebra, start, word)
        assert rebuilt.dims == mod.dims


def test_check_string_algebra_accepts_the_problem_algebras():
    for name in common.PROBLEM_NAMES:
        check_string_algebra(common.algebra(name))
    check_string_algebra(common.nakayama_algebra())


def test_check_string_algebra_rejects_wide_vertices():
    star = Quiver(
        vertices=(1, 2, 3, 4),
        arrows=(Arrow("x", 1, 2), Arrow("y", 1, 3), Arrow("z", 1, 4)),
    )
    alg = Algebra(quiver=star, relations=(), p=2)
    with pytest.raises(NonStringAlgebraError, match="more than two"):
        check_string_algebra(alg)


def test_catalogs_are_field_independent():
    for name in ("a3_cyclic", "d4_cyclic"):
        c2 = common.catalog(name, 2)
        c3 = common.catalog(name, 3)
        assert common.labels(c2) == common.labels(c3)
        assert {m.label: m.dims for m in c2.modules} == {
            m.label: m.dims for m in c3.modules
        }
