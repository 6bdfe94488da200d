"""Mutation of quivers with potential, next to plain matrix mutation.

Mutating the cyclic triangle at vertex 3 reverses the two arrows at 3 and
cancels the composite against the potential, leaving a path quiver with zero
potential.  Mutating the oriented 4-cycle at vertex 1 keeps a composite
arrow and a correction term in the new potential.  In both cases the
B-matrix of the mutated quiver equals Fomin-Zelevinsky matrix mutation of
the original B-matrix, and the Jacobian relations follow along.
"""

from pathlib import Path

from greenseq.exchange import initial_seed_from_matrix, mutate
from greenseq.io import load_problem
from greenseq.qp import b_matrix, jacobian_relations
from greenseq.qp_mutation import mutate_qp

ROOT = Path(__file__).resolve().parent.parent


def describe(tag, qp):
    print(f"{tag}:")
    print("    arrows:", [(a.id, f"{a.src}->{a.tgt}") for a in qp.quiver.arrows])
    print(
        "    potential:",
        [(str(t.coeff), " ".join(t.cycle)) for t in qp.potential] or "0",
    )
    rels = jacobian_relations(qp)
    print("    relations:")
    for rel in rels:
        terms = " + ".join(
            ("" if c == 1 else f"{c} ") + " ".join(p) for c, p in rel.terms
        )
        print(f"        d/d{rel.arrow}: {terms or '0'}")
    print()


def check_b_matrix(qp, k):
    mu = mutate_qp(qp, k)
    pos = qp.quiver.pos(k)
    want = mutate(initial_seed_from_matrix(b_matrix(qp.quiver)), pos).b
    got = b_matrix(mu.quiver)
    print(f"    B-matrix after mutation at {k}: {got}")
    print(f"    matrix mutation of the old B:  {want}")
    assert got == want
    print("    agree\n")
    return mu


def main():
    tri = load_problem(str(ROOT / "problems" / "a3_cyclic.json")).qp
    describe("cyclic triangle", tri)
    mu3 = check_b_matrix(tri, 3)
    describe("after mutation at 3", mu3)

    four = load_problem(str(ROOT / "problems" / "d4_cyclic.json")).qp
    describe("oriented 4-cycle", four)
    mu1 = check_b_matrix(four, 1)
    describe("after mutation at 1", mu1)

    back = mutate_qp(mu3, 3)
    describe("triangle mutated at 3 twice", back)
    print("note: a 3-cycle of starred arrows with the opposite potential sign,")
    print("isomorphic to the original triangle, as mutation twice should give")


if __name__ == "__main__":
    main()
