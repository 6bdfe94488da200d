"""Length bounds for maximal green sequences, with and without enumeration.

For the small examples the exact minimum and maximum come from exhaustive
search and the bounds merely confirm them.  For the 9-vertex triangulated
line the catalog has 45 modules and enumeration is hopeless, but a cut of
the potential still constructs a length-37 sequence and a family of eight
disjoint Hom-cycles certifies that nothing longer exists: the maximum is
pinned to 37 without ever enumerating.  Every Hom dimension is computed
once per catalog, so the whole script takes about a second.
"""

from pathlib import Path

from greenseq.bounds import bounds_report, construct_max_sequence, report_table
from greenseq.exchange import initial_seed, is_green, replay_c_vector_sequence
from greenseq.io import load_problem
from greenseq.rep import algebra_from_qp, string_catalog

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    prob = load_problem(str(ROOT / "problems" / f"{name}.json"))
    return prob, string_catalog(algebra_from_qp(prob.qp, prob.field_prime))


def main():
    for name in ("a3_cyclic", "d4_cyclic", "a5_example"):
        prob, catalog = load(name)
        print(f"== {name}")
        print(report_table(bounds_report(prob.qp, catalog)))
        print()

    print("== a9_example (no enumeration)")
    prob, catalog = load("a9_example")
    report = bounds_report(prob.qp, catalog, enumerate_extrema=False)
    print(report_table(report))

    best = max(report["cuts"], key=lambda row: row["c_count"])
    seq = construct_max_sequence(frozenset(best["deleted"]), catalog)
    print(f"\ndeleting {best['deleted']} carries a sequence of length {len(seq)}:")
    print("    " + " -> ".join(m.label for m in seq))

    # replay the dimension vectors as c-vectors on the exchange matrix side
    replayed, final = replay_c_vector_sequence(
        initial_seed(prob.qp.quiver), [m.dims for m in seq]
    )
    assert not any(is_green(final, k) for k in range(final.n))
    print(f"replayed as {len(replayed)} matrix mutations, ending with no green column")


if __name__ == "__main__":
    main()
