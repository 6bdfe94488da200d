"""Reflection of representations across a mutation vertex.

phi_k is the dimension-vector involution y_k = -x_k + sum over arrows k -> j
of x_j (all other coordinates fixed). psi_k realizes it on modules: when
Hom(S_k, X) = 0 the stacked maps (b_j): X_k -> direct sum of the X_j are
injective, Y_k is their cokernel, and the remaining new arrows are determined
by linear solves against the correction paths of the mutated potential.
psi_k_inverse runs the kernel construction the other way.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from greenseq import linalg
from greenseq.errors import ReflectionError
from greenseq.linalg import Matrix
from greenseq.qp import Quiver, QuiverWithPotential
from greenseq.qp_mutation import MutationData, mutate_qp_data
from greenseq.rep import (
    Algebra,
    Representation,
    _coeff_mod,
    algebra_from_qp,
    eval_terms,
    hom_basis,
    make_rep,
)


class ReflectionContext(NamedTuple):
    """One mutation's bookkeeping with its source and target algebras."""

    data: MutationData
    source_algebra: Algebra
    target_algebra: Algebra


def reflection_context(qp: QuiverWithPotential, k: int, p: int = 2) -> ReflectionContext:
    """Build the context for reflecting at vertex k.

    Raises:
        ReflectionError: if the quiver has an arrow between two members of I
            or between two members of J (the finite-type structural fact the
            construction relies on).
    """
    data = mutate_qp_data(qp, k)
    i_set = set(data.i_set)
    j_set = set(data.j_set)
    for a in qp.quiver.arrows:
        if a.src in i_set and a.tgt in i_set:
            raise ReflectionError(
                f"arrow {a.id} connects two sources of arrows into {k}"
            )
        if a.src in j_set and a.tgt in j_set:
            raise ReflectionError(
                f"arrow {a.id} connects two targets of arrows out of {k}"
            )
    return ReflectionContext(
        data=data,
        source_algebra=algebra_from_qp(qp, p=p),
        target_algebra=algebra_from_qp(data.target, p=p),
    )


def phi_k(x: Sequence[int], quiver: Quiver, k: int) -> tuple[int, ...]:
    """The involution of Eq.-style reflection on dimension vectors."""
    pos = quiver.pos(k)
    y = list(int(v) for v in x)
    y[pos] = -x[pos] + sum(x[quiver.pos(a.tgt)] for a in quiver.arrows_out(k))
    return tuple(y)


def _hstack(mats: list[Matrix], rows: int) -> Matrix:
    out = []
    for r in range(rows):
        row: list[int] = []
        for m in mats:
            row.extend(m[r] if m else ())
        out.append(tuple(row))
    return tuple(out)


def _vstack(mats: list[Matrix]) -> Matrix:
    out: list[tuple[int, ...]] = []
    for m in mats:
        out.extend(m)
    return tuple(out)


def _scale(m: Matrix, c: int, p: int) -> Matrix:
    return tuple(tuple((c * x) % p for x in row) for row in m)


def psi_k(ctx: ReflectionContext, x: Representation) -> Representation:
    """Transport X across the mutation at k (cokernel construction).

    Args:
        ctx: reflection context whose source algebra is X's algebra.
        x: representation with hom_dim(S_k, X) = 0.

    Returns:
        The reflected representation over the mutated Jacobian algebra. Its
        dimension vector is phi_k of X's and all target relations are
        verified on construction.

    Raises:
        ReflectionError: if the stacked (b_j) map is not injective (the
            precondition fails), or a linear solve for some alpha_i* is
            inconsistent, which signals a relation failure in the input.
    """
    data = ctx.data
    if x.algebra != ctx.source_algebra:
        raise ReflectionError("representation is not over the context's source algebra")
    p = x.algebra.p
    quiver = data.source.quiver
    k = data.k
    d_k = x.dim_at(k)
    j_list = list(data.j_set)
    i_list = list(data.i_set)

    # stacked (b_j) : X_k -> direct sum of X_j, blocks in j_set order
    blocks = [x.mat(data.beta[j]) for j in j_list]
    stacked = _vstack(blocks)
    if not stacked and d_k:
        raise ReflectionError(f"hom_dim(S_{k}, X) != 0: no outgoing arrows to absorb X_{k}")
    if stacked and linalg.rank(stacked, p) != d_k:
        raise ReflectionError(f"hom_dim(S_{k}, X) != 0: stacked map from X_{k} not injective")

    total_j = sum(x.dim_at(j) for j in j_list)
    # stacked has total_j rows, so it is empty only when total_j == 0 and
    # the cokernel is the zero space
    q = linalg.cokernel_projection(stacked, p) if stacked else ()
    y_k = len(q)

    offsets = {}
    off = 0
    for j in j_list:
        offsets[j] = off
        off += x.dim_at(j)

    beta_star_mats = {}
    for j in j_list:
        dj = x.dim_at(j)
        beta_star_mats[j] = tuple(
            tuple(q[r][offsets[j] + c] for c in range(dj)) for r in range(y_k)
        )

    # gamma matrices in unit-triangle normal form
    gamma_mats = {}
    for pair in data.p_pairs:
        lam = _coeff_mod(data.triangle_coeff[pair], p)
        gamma_mats[pair] = _scale(x.mat(data.gamma[pair]), lam, p)

    alpha_star_mats = {}
    for i in i_list:
        d_i = x.dim_at(i)
        rhs_blocks = []
        for j in j_list:
            pair = (i, j)
            if pair in gamma_mats:
                rhs_blocks.append(gamma_mats[pair])
            else:
                g = eval_terms(x, data.g_paths.get(pair, ()), d_i, x.dim_at(j))
                rhs_blocks.append(_scale(g, -1, p))
        rhs = _hstack(rhs_blocks, d_i)  # shape d_i x total_j
        # solve M q = rhs for M: d_i x y_k; q has full row rank
        if y_k == 0:
            alpha_star_mats[i] = tuple(() for _ in range(d_i))
            if d_i and rhs and not linalg.is_zero(rhs):
                raise ReflectionError(
                    f"inconsistent solve for the new arrow into {i}: input violates relations"
                )
            continue
        qt = linalg.transpose(q)
        rt = linalg.transpose(rhs) if rhs else tuple(() for _ in range(total_j))
        if d_i == 0:
            alpha_star_mats[i] = ()
            continue
        mt = linalg.solve_matrix(qt, rt, p)
        if mt is None:
            raise ReflectionError(
                f"inconsistent solve for the new arrow into {i}: input violates relations"
            )
        alpha_star_mats[i] = linalg.transpose(mt)

    target_quiver = data.target.quiver
    mats: dict[str, Matrix] = {}
    surviving = {a.id for a in quiver.arrows} & {a.id for a in target_quiver.arrows}
    for aid in surviving:
        mats[aid] = x.mat(aid)
    for j in j_list:
        mats[data.beta_star[j]] = beta_star_mats[j]
    for i in i_list:
        mats[data.alpha_star[i]] = alpha_star_mats[i]
    for pair in data.p_prime:
        i, j = pair
        if d_k == 0:
            mats[data.gamma_star[pair]] = linalg.zeros(x.dim_at(j), x.dim_at(i))
        else:
            mats[data.gamma_star[pair]] = linalg.mat_mul(
                x.mat(data.beta[j]), x.mat(data.alpha[i]), p
            )

    dims = phi_k(x.dims, quiver, k)
    assert dims[quiver.pos(k)] == y_k
    label = f"r{k}[{x.label}]" if x.label else ""
    return make_rep(ctx.target_algebra, dims, mats, label=label)


def psi_k_inverse(ctx: ReflectionContext, y: Representation) -> Representation:
    """Transport Y back across the mutation at k (kernel construction).

    Args:
        ctx: reflection context whose target algebra is Y's algebra.
        y: representation with hom_dim(Y, S_k') = 0.

    Returns:
        A representation over the source algebra, inverse to psi_k up to
        isomorphism and exactly on dimension vectors.

    Raises:
        ReflectionError: if the stacked (b_j*) map is not surjective, or a
            linear solve for some arrow into k is inconsistent.
    """
    data = ctx.data
    if y.algebra != ctx.target_algebra:
        raise ReflectionError("representation is not over the context's target algebra")
    p = y.algebra.p
    k = data.k
    target_quiver = data.target.quiver
    source_quiver = data.source.quiver
    j_list = list(data.j_set)
    i_list = list(data.i_set)
    d_k = y.dim_at(k)

    # stacked (b_j*) : direct sum of Y_j -> Y_k, blocks side by side
    blocks = [y.mat(data.beta_star[j]) for j in j_list]
    total_j = sum(y.dim_at(j) for j in j_list)
    stacked = _hstack(blocks, d_k) if d_k else ()
    if d_k and (not stacked or linalg.rank(stacked, p) != d_k):
        raise ReflectionError(f"hom_dim(Y, S_{k}') != 0: stacked map onto Y_{k} not surjective")

    if d_k:
        kernel = linalg.nullspace(stacked, p)
    else:
        kernel = [tuple(1 if c == r else 0 for c in range(total_j)) for r in range(total_j)]
    x_k = len(kernel)
    # kernel vectors as columns of iota: total_j x x_k
    iota = tuple(tuple(kernel[c][r] for c in range(x_k)) for r in range(total_j))

    offsets = {}
    off = 0
    for j in j_list:
        offsets[j] = off
        off += y.dim_at(j)

    beta_mats = {}
    for j in j_list:
        dj = y.dim_at(j)
        beta_mats[j] = tuple(
            tuple(iota[offsets[j] + r][c] for c in range(x_k)) for r in range(dj)
        )

    alpha_mats = {}
    for i in i_list:
        d_i = y.dim_at(i)
        rhs_blocks = []
        for j in j_list:
            pair = (i, j)
            if pair in data.gamma_star:
                rhs_blocks.append(y.mat(data.gamma_star[pair]))
            else:
                f = eval_terms(y, data.f_paths.get(pair, ()), y.dim_at(j), d_i)
                rhs_blocks.append(_scale(f, -1, p))
        rhs = _vstack(rhs_blocks)  # shape total_j x d_i
        if x_k == 0:
            alpha_mats[i] = ()
            if rhs and not linalg.is_zero(rhs):
                raise ReflectionError(
                    f"inconsistent solve for the arrow from {i}: input violates relations"
                )
            continue
        if d_i == 0:
            alpha_mats[i] = tuple(() for _ in range(x_k))
            continue
        sol = linalg.solve_matrix(iota, rhs, p)
        if sol is None:
            raise ReflectionError(
                f"inconsistent solve for the arrow from {i}: input violates relations"
            )
        alpha_mats[i] = sol

    mats: dict[str, Matrix] = {}
    surviving = {a.id for a in source_quiver.arrows} & {a.id for a in target_quiver.arrows}
    for aid in surviving:
        mats[aid] = y.mat(aid)
    for j in j_list:
        mats[data.beta[j]] = beta_mats[j]
    for i in i_list:
        mats[data.alpha[i]] = alpha_mats[i]
    for pair in data.p_pairs:
        i, j = pair
        if y.dim_at(k) == 0:
            prod = linalg.zeros(y.dim_at(i), y.dim_at(j))
        else:
            prod = linalg.mat_mul(
                y.mat(data.alpha_star[i]), y.mat(data.beta_star[j]), p
            )
        lam = _coeff_mod(1 / data.triangle_coeff[pair], p)
        mats[data.gamma[pair]] = _scale(prod, lam, p)

    dims = phi_k(y.dims, source_quiver, k)
    assert dims[source_quiver.pos(k)] == x_k
    label = f"r{k}'[{y.label}]" if y.label else ""
    return make_rep(ctx.source_algebra, dims, mats, label=label)


def find_isomorphism(m: Representation, n: Representation) -> Optional[dict[int, Matrix]]:
    """An isomorphism M -> N as per-vertex blocks, or None.

    Enumerates the Hom space exhaustively, so intended for the small modules
    of the test catalogs (the search is capped).
    """
    if m.dims != n.dims:
        return None
    p = m.algebra.p
    basis = hom_basis(m, n)
    h = len(basis)
    if h == 0:
        if not any(m.dims):
            return {v: () for v in m.algebra.quiver.vertices}
        return None
    if p**h > 200_000:
        raise RuntimeError(f"hom space too large to enumerate ({p}^{h})")
    quiver = m.algebra.quiver
    coeffs = [0] * h
    while True:
        # advance the odometer, skipping all-zero
        pos = 0
        while pos < h:
            coeffs[pos] += 1
            if coeffs[pos] < p:
                break
            coeffs[pos] = 0
            pos += 1
        if pos == h:
            return None
        cand: dict[int, Matrix] = {}
        ok = True
        for v in quiver.vertices:
            d = m.dim_at(v)
            block = [[0] * d for _ in range(d)]
            for c, bb in zip(coeffs, basis):
                if c == 0:
                    continue
                bm = bb[v]
                for r in range(d):
                    for s in range(d):
                        block[r][s] = (block[r][s] + c * bm[r][s]) % p
            bt = tuple(tuple(row) for row in block)
            if d and linalg.rank(bt, p) != d:
                ok = False
                break
            cand[v] = bt
        if ok:
            return cand
