"""Mutation of a quiver with potential (Derksen-Weyman-Zelevinsky), with
the bookkeeping the reflection functors read.

`mutate_qp` gives the mutated quiver with potential, and `mutate_qp_data`
also the pair partition and correction paths behind it (`MutationData`).
Paths, cycles and coefficients follow the conventions of `greenseq.qp`.
Within the package only `reflect` imports this module, and no command
loads `reflect`, so no command loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from greenseq import exchange
from greenseq.errors import InvalidQuiverError, UnsupportedPotentialError
from greenseq.qp import Arrow, Path, PotentialTerm, Quiver, QuiverWithPotential, b_matrix


def _fresh_id(base: str, taken: set[str]) -> str:
    cand = base
    while cand in taken:
        cand += "'"
    taken.add(cand)
    return cand


def _rotate_to_start(cycle: Path, idx: int) -> Path:
    return cycle[idx:] + cycle[:idx]


class MutationData(NamedTuple):
    """Everything the mutation at k produced, for consumers beyond the QP.

    The reflection functors need the pair partition and the correction paths,
    not just the mutated quiver, so `mutate_qp_data` returns this record and
    `mutate_qp` forwards the `target` field. The maps are plain dicts, keyed
    by a vertex i in I or j in J, or by a pair (i, j).

    f_paths are stored after the rescaling that makes every triangle
    coefficient 1; g_paths store the decomposition W ∋ -G_{ij} β_j α_i, i.e.
    a through-k term with coefficient c contributes -c times its return path.
    Pairs without correction paths are absent from f_paths and g_paths.
    """

    source: QuiverWithPotential
    target: QuiverWithPotential
    k: int
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    p_pairs: tuple[tuple[int, int], ...]
    p_prime: tuple[tuple[int, int], ...]
    alpha: dict[int, str]  # i -> id of a_i : i -> k
    beta: dict[int, str]   # j -> id of b_j : k -> j
    gamma: dict[tuple[int, int], str]  # (i,j) in P -> id of g: j -> i
    alpha_star: dict[int, str]
    beta_star: dict[int, str]
    gamma_star: dict[tuple[int, int], str]  # (i,j) in P' -> id of g*: i -> j
    f_paths: dict[tuple[int, int], tuple[tuple[Fraction, Path], ...]]
    g_paths: dict[tuple[int, int], tuple[tuple[Fraction, Path], ...]]
    triangle_coeff: dict[tuple[int, int], Fraction]


def mutate_qp(qp: QuiverWithPotential, k: int) -> QuiverWithPotential:
    """Mutate a quiver with potential at vertex `k` (a vertex label).

    The potential is decomposed against the arrows at k: for incoming arrows
    a_i (i -> k), outgoing arrows b_j (k -> j), and pairs (i, j), the pairs
    with an arrow g: j -> i form the set P and must appear in a triangle term
    g b a; the remaining pairs form P'. Terms passing through k with a longer
    return path contribute correction paths G, terms containing some g but
    avoiding k contribute correction paths F, and terms touching neither k
    nor any g are carried over verbatim. After rescaling each g so its
    triangle coefficient is 1, the mutated potential is

        sum_P  a* b* F  -  sum_P' a* b* g*  -  sum_P' G g*  +  (carried terms)

    with reversed arrows a_i*: k -> i, b_j*: j -> k and one composite arrow
    g*: i -> j per pair in P'. The cancelling 2-cycle terms never appear in
    this reduced form.

    Args:
        qp: quiver with potential to mutate (value semantics).
        k: vertex label.

    Returns:
        The mutated QuiverWithPotential.

    Raises:
        UnsupportedPotentialError: if the potential does not decompose as
            above (the error message names the offending term); no silently
            wrong output is ever produced.
        KeyError / InvalidQuiverError: for an unknown vertex.
    """
    return mutate_qp_data(qp, k).target


def mutate_qp_data(qp: QuiverWithPotential, k: int) -> MutationData:
    """Like mutate_qp, but returns the full mutation bookkeeping."""
    quiver = qp.quiver
    if k not in quiver.vertices:
        raise InvalidQuiverError(f"unknown vertex {k}")

    alphas = quiver.arrows_in(k)   # a_i : i -> k
    betas = quiver.arrows_out(k)   # b_j : k -> j
    if len({a.src for a in alphas}) != len(alphas):
        raise UnsupportedPotentialError(f"parallel arrows into vertex {k}")
    if len({b.tgt for b in betas}) != len(betas):
        raise UnsupportedPotentialError(f"parallel arrows out of vertex {k}")
    alpha_by_src = {a.src: a for a in alphas}
    beta_by_tgt = {b.tgt: b for b in betas}
    i_set = sorted(alpha_by_src)
    j_set = sorted(beta_by_tgt)

    # gamma candidates: arrows j -> i with i in I, j in J
    gamma_by_pair: dict[tuple[int, int], Arrow] = {}
    for a in quiver.arrows:
        if a.src in beta_by_tgt and a.tgt in alpha_by_src:
            pair = (a.tgt, a.src)  # (i, j)
            if pair in gamma_by_pair:
                raise UnsupportedPotentialError(
                    f"parallel arrows {gamma_by_pair[pair].id}, {a.id} for pair {pair}"
                )
            gamma_by_pair[pair] = a
    p_pairs = sorted(gamma_by_pair)
    p_prime = [
        (i, j) for i in i_set for j in j_set if (i, j) not in gamma_by_pair
    ]
    gamma_ids = {a.id: pair for pair, a in gamma_by_pair.items()}

    # --- decompose the potential -------------------------------------------
    triangle_coeff: dict[tuple[int, int], Fraction] = {}
    f_paths: dict[tuple[int, int], list[tuple[Fraction, Path]]] = {}
    g_paths: dict[tuple[int, int], list[tuple[Fraction, Path]]] = {}
    carried: list[PotentialTerm] = []

    for term in qp.potential:
        cyc = term.cycle
        arrows = [quiver.arrow(aid) for aid in cyc]
        k_visits = sum(1 for a in arrows if a.tgt == k)
        gammas_here = [idx for idx, aid in enumerate(cyc) if aid in gamma_ids]
        if k_visits >= 2:
            raise UnsupportedPotentialError(
                f"term {cyc} passes through vertex {k} more than once"
            )
        if k_visits == 1:
            idx = next(i for i, a in enumerate(arrows) if a.tgt == k)
            rot = _rotate_to_start(cyc, idx)  # starts with a_i, then b_j
            if len(rot) < 3:
                raise UnsupportedPotentialError(f"term {cyc} too short at {k}")
            a_arrow = quiver.arrow(rot[0])
            b_arrow = quiver.arrow(rot[1])
            if b_arrow.src != k:
                raise UnsupportedPotentialError(
                    f"term {cyc} does not leave vertex {k} immediately"
                )
            i, j = a_arrow.src, b_arrow.tgt
            ret = rot[2:]  # path j -> i avoiding k
            if len(ret) == 1 and ret[0] in gamma_ids:
                pair = (i, j)
                triangle_coeff[pair] = triangle_coeff.get(pair, Fraction(0)) + term.coeff
            elif (i, j) in gamma_by_pair:
                raise UnsupportedPotentialError(
                    f"term {cyc}: non-triangle return path for pair {(i, j)} in P"
                )
            elif any(aid in gamma_ids for aid in ret):
                raise UnsupportedPotentialError(
                    f"term {cyc} couples vertex {k} with a triangle arrow"
                )
            else:
                # W contains -G b a, so G picks up the negated coefficient.
                g_paths.setdefault((i, j), []).append((-term.coeff, ret))
        else:
            if not gammas_here:
                carried.append(term)
            elif len(gammas_here) == 1:
                idx = gammas_here[0]
                pair = gamma_ids[cyc[idx]]
                rot = _rotate_to_start(cyc, idx)
                f_paths.setdefault(pair, []).append((term.coeff, rot[1:]))
            else:
                raise UnsupportedPotentialError(
                    f"term {cyc} contains more than one triangle arrow"
                )

    for pair in p_pairs:
        coeff = triangle_coeff.get(pair, Fraction(0))
        if coeff == 0:
            raise UnsupportedPotentialError(
                f"potential degenerate at {k}: no triangle term for pair {pair}"
            )

    # Rescale each gamma so its triangle coefficient is 1. A term containing
    # gamma once picks up the factor 1/coeff.
    for pair in p_pairs:
        lam = 1 / triangle_coeff[pair]
        if pair in f_paths:
            f_paths[pair] = [(c * lam, p) for c, p in f_paths[pair]]

    # --- build the mutated quiver ------------------------------------------
    removed = {a.id for a in alphas} | {b.id for b in betas}
    removed |= {gamma_by_pair[p].id for p in p_pairs}
    taken = {a.id for a in quiver.arrows if a.id not in removed}
    new_arrows = [a for a in quiver.arrows if a.id not in removed]

    alpha_star: dict[int, str] = {}
    beta_star: dict[int, str] = {}
    gamma_star: dict[tuple[int, int], str] = {}
    for i in i_set:
        aid = _fresh_id(alpha_by_src[i].id + "*", taken)
        alpha_star[i] = aid
        new_arrows.append(Arrow(id=aid, src=k, tgt=i))
    for j in j_set:
        bid = _fresh_id(beta_by_tgt[j].id + "*", taken)
        beta_star[j] = bid
        new_arrows.append(Arrow(id=bid, src=j, tgt=k))
    for (i, j) in p_prime:
        gid = _fresh_id(f"[{beta_by_tgt[j].id}{alpha_by_src[i].id}]", taken)
        gamma_star[(i, j)] = gid
        new_arrows.append(Arrow(id=gid, src=i, tgt=j))

    new_quiver = Quiver(vertices=quiver.vertices, arrows=tuple(new_arrows))

    # --- assemble the mutated potential -------------------------------------
    new_terms: list[PotentialTerm] = list(carried)
    for pair in p_pairs:
        i, j = pair
        for coeff, path in f_paths.get(pair, []):
            cyc = path + (beta_star[j], alpha_star[i])
            new_terms.append(PotentialTerm(coeff=coeff, cycle=cyc))
    for pair in p_prime:
        i, j = pair
        gid = gamma_star[pair]
        new_terms.append(
            PotentialTerm(coeff=Fraction(-1), cycle=(gid, beta_star[j], alpha_star[i]))
        )
        for coeff, path in g_paths.get(pair, []):
            new_terms.append(PotentialTerm(coeff=-coeff, cycle=(gid,) + path))
    leftover_g = set(g_paths) - set(p_prime)
    if leftover_g:
        raise UnsupportedPotentialError(
            f"return-path terms for pairs {sorted(leftover_g)} not in P'"
        )

    result = QuiverWithPotential(quiver=new_quiver, potential=tuple(new_terms))

    # Consistency forced by the mutation rules: the B-matrix must agree with
    # exchange-matrix mutation at the same vertex.
    pos = quiver.pos(k)
    expected = exchange.mutate(exchange.initial_seed(quiver), pos).b
    if b_matrix(new_quiver) != expected:
        raise AssertionError(
            f"mutated quiver B-matrix disagrees with matrix mutation at {k}"
        )
    return MutationData(
        source=qp,
        target=result,
        k=k,
        i_set=tuple(i_set),
        j_set=tuple(j_set),
        p_pairs=tuple(p_pairs),
        p_prime=tuple(p_prime),
        alpha={i: alpha_by_src[i].id for i in i_set},
        beta={j: beta_by_tgt[j].id for j in j_set},
        gamma={pair: gamma_by_pair[pair].id for pair in p_pairs},
        alpha_star=alpha_star,
        beta_star=beta_star,
        gamma_star=gamma_star,
        f_paths={pair: tuple(terms) for pair, terms in f_paths.items()},
        g_paths={pair: tuple(terms) for pair, terms in g_paths.items()},
        triangle_coeff=triangle_coeff,
    )
