"""Three descriptions of the same objects, checked against each other.

On the cyclic triangle the maximal green sequences of the exchange matrix,
the maximal forward hom-orthogonal module sequences, and the wall-crossing
orders of generic straight-line paths all produce the same set of nine
vector sequences.  This script runs each enumeration separately, prints the
counts, and then lets verify_theorem1 do the full three-way comparison.
"""

import json
import random
from pathlib import Path

from greenseq.exchange import enumerate_green_sequences, initial_seed
from greenseq.fho import enumerate_maximal_fho, verify_theorem1
from greenseq.io import load_problem
from greenseq.rep import algebra_from_qp, string_catalog
from greenseq.walls import random_generic_base

ROOT = Path(__file__).resolve().parent.parent


def main():
    prob = load_problem(str(ROOT / "problems" / "a3_cyclic.json"))
    catalog = string_catalog(algebra_from_qp(prob.qp, prob.field_prime))

    mgs = enumerate_green_sequences(initial_seed(prob.qp.quiver))
    print(f"maximal green sequences of the exchange matrix: {len(mgs)}")
    for s in mgs:
        print("   ", " ".join(str(v) for v in s.c_vectors))

    fho = enumerate_maximal_fho(catalog)
    print(f"\nmaximal forward hom-orthogonal sequences: {len(fho)}")
    for s in fho:
        print("   ", " -> ".join(m.label for m in s))

    print("\nwall crossings of a few random generic lines:")
    rng = random.Random(4)
    seen = set()
    for _ in range(40):
        base, records = random_generic_base(catalog, rng)
        order = tuple(r.module.label for r in records)
        if order not in seen:
            seen.add(order)
            shown = "(" + ", ".join(str(x) for x in base) + ")"
            print(f"    base {shown}: " + " -> ".join(order))
    print(f"    ({len(seen)} distinct orders found in 40 draws)")

    report = verify_theorem1(prob.qp, catalog)
    print("\nthree-way comparison:")
    keys = (
        "equal",
        "mgs_count",
        "fho_count",
        "wall_realized_count",
        "extremal_lengths",
    )
    print(json.dumps({k: report[k] for k in keys}, indent=2))


if __name__ == "__main__":
    main()
