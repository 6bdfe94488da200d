"""Reflection functors at sink-free vertices and the dimension formula."""

import pytest

from greenseq.errors import ReflectionError
from greenseq.rep import hom_dim, simple
from greenseq.reflect import (
    find_isomorphism,
    phi_k,
    psi_k,
    psi_k_inverse,
    reflection_context,
)

import common

PHI3_TABLE = {
    (0, 0, 1): (0, 0, -1),
    (0, 1, 0): (0, 1, 1),
    (1, 0, 0): (1, 0, 0),
    (0, 1, 1): (0, 1, 0),
    (1, 0, 1): (1, 0, -1),
    (1, 1, 0): (1, 1, 1),
}


def legal_at(cat, alg, k):
    s = simple(alg, k)
    return [m for m in cat.modules if hom_dim(s, m) == 0]


def test_phi_table(a3_qp, a3_catalog):
    for m in a3_catalog.modules:
        assert phi_k(m.dims, a3_qp.quiver, 3) == PHI3_TABLE[m.dims]


def test_phi_is_an_involution(a3_qp):
    for dims in PHI3_TABLE:
        image = phi_k(dims, a3_qp.quiver, 3)
        assert phi_k(image, a3_qp.quiver, 3) == dims


def test_psi_dims_follow_phi(a3_qp, a3_algebra, a3_catalog):
    ctx = reflection_context(a3_qp, 3)
    for m in legal_at(a3_catalog, a3_algebra, 3):
        y = psi_k(ctx, m)
        assert y.dims == phi_k(m.dims, a3_qp.quiver, 3)


def test_psi_requires_no_homs_from_the_simple(a3_qp, a3_algebra, a3_catalog):
    ctx = reflection_context(a3_qp, 3)
    for label in ("3", "1>3"):
        with pytest.raises(ReflectionError):
            psi_k(ctx, a3_catalog.by_label(label))


def test_round_trips_are_isomorphisms():
    for name in ("a3_cyclic", "d4_cyclic", "a5_example"):
        qp = common.problem(name).qp
        alg = common.algebra(name)
        cat = common.catalog(name)
        for k in qp.quiver.vertices:
            ctx = reflection_context(qp, k)
            for m in legal_at(cat, alg, k):
                y = psi_k(ctx, m)
                back = psi_k_inverse(ctx, y)
                assert find_isomorphism(m, back) is not None


def test_psi_preserves_hom_spaces(a3_qp, a3_algebra, a3_catalog):
    ctx = reflection_context(a3_qp, 3)
    legal = legal_at(a3_catalog, a3_algebra, 3)
    images = {m.label: psi_k(ctx, m) for m in legal}
    for m in legal:
        for n in legal:
            assert hom_dim(m, n) == hom_dim(images[m.label], images[n.label])


def test_find_isomorphism_basics(a3_algebra, a3_catalog):
    s1 = simple(a3_algebra, 1)
    assert find_isomorphism(s1, a3_catalog.by_label("1")) is not None
    assert find_isomorphism(s1, a3_catalog.by_label("2")) is None
    m = a3_catalog.by_label("2<3")
    assert find_isomorphism(m, m) is not None
    assert find_isomorphism(m, a3_catalog.by_label("1<2")) is None


@pytest.mark.parametrize(
    "name, pairs, psi_digest, inverse_digest",
    [
        (
            "a3_cyclic", 12,
            "fc90de4e6a159ec6a5a7faefb07677fe54ae308eaca595d700c5f55515fa17e7",
            "430bef9b17d1ccb0db8866b394a5c10e6f1543293ca325b5766125ef361d29ad",
        ),
        (
            "d4_cyclic", 36,
            "fc72be5b5e2caeb4ccad06cbd8bb6f98ea0487ffcf80f8aa7260ec6bad4b0c0d",
            "c822272a402ed4bdb414c4841a9e17f68959ece1f12a1985090e7fea3f751956",
        ),
        (
            "a5_example", 59,
            "c1ec28ee0a509c18c04a471c0657057928647f0358e2e8ea3ef4e20a3c19bdf7",
            "b01fa6df01a91787515cf6c2568bfc3b3358703f6acd230e544a71fe80b1f4d6",
        ),
    ],
)
def test_reflections_are_pinned(name, pairs, psi_digest, inverse_digest):
    """psi_k and psi_k_inverse reproduce exact matrices, not just isomorphism
    classes, on every legal (vertex, catalog module) pair."""
    qp = common.problem(name).qp
    alg = common.algebra(name)
    cat = common.catalog(name)
    images, backs = [], []
    for k in qp.quiver.vertices:
        ctx = reflection_context(qp, k)
        for m in legal_at(cat, alg, k):
            y = psi_k(ctx, m)
            images.append(y)
            backs.append(psi_k_inverse(ctx, y))
    assert len(images) == pairs
    assert common.digest(images) == psi_digest
    assert common.digest(backs) == inverse_digest
