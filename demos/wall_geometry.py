"""Wall geometry of the cyclic triangle: crossings and compartments.

Each catalog module M contributes a wall D(M); a straight line x + t*(1,1,1)
from a generic base crosses some of them, and the crossing order is a green
sequence.  Different bases give different sequences (here: a length-5 and a
length-4 one), and the compartment of the base is read off from the signs.
"""

from fractions import Fraction
from pathlib import Path

from greenseq.exchange import initial_seed
from greenseq.io import load_problem
from greenseq.rep import algebra_from_qp, string_catalog
from greenseq.walls import (
    compartment_cvectors,
    compartment_signature,
    crossing_sequence,
    wall_for,
)

ROOT = Path(__file__).resolve().parent.parent


def show_crossings(base, catalog):
    print(f"base {base}:")
    for r in crossing_sequence(base, catalog):
        print(f"    t = {str(r.time):>5}   {r.module.label:<4} dims {r.dims}")


def main():
    prob = load_problem(str(ROOT / "problems" / "a3_cyclic.json"))
    catalog = string_catalog(algebra_from_qp(prob.qp, prob.field_prime))

    w = wall_for(catalog.by_label("2<3"))
    print(f"wall of 2<3: normal {w.normal}, proper nonzero submodule dims {list(w.faces)}\n")

    show_crossings((0, 1, 2), catalog)
    print()
    show_crossings((-12, -5, -9), catalog)

    print("\ncompartments (which walls lie in the past of the base):")
    seed = initial_seed(prob.qp.quiver)
    for base in ((-5, -7, -11), (2, -3, -7), (5, 7, 11)):
        sig = compartment_signature(base, catalog)
        cvecs = compartment_cvectors(base, catalog, seed)
        crossed = [catalog.unique_by_dims(d).label for d in sig]
        print(f"    base {base}: crossed {crossed or 'nothing'}")
        print(f"        c-vectors {cvecs}")

    # scaling the base scales the crossing times but keeps the order: the
    # sequence only depends on the compartment of the base
    scaled = tuple(Fraction(10) * x for x in (0, 1, 2))
    labels = [r.module.label for r in crossing_sequence(scaled, catalog)]
    print(f"\nbase (0, 10, 20) crosses the same walls in the same order: {labels}")
    print("no line crosses all six walls: the longest sequences have length 5")


if __name__ == "__main__":
    main()
