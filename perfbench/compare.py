"""Compare two checkouts on one workload with alternating pairs of runs.

    python3 perfbench/compare.py --base ../parent --head . --workload hom-construct \
        --pairs 10 --first-seed 1000

Pair i runs both checkouts with seed `first-seed + i`; the side that runs
first alternates between pairs. For each metric it prints both sides'
median and quartiles, how many pairs the head won, and a verdict: "gain"
when the head wins at least nine tenths of the pairs and the medians differ
by more than the base's own quartile spread, "regression" when the head's
median is worse than the base's by more than the metric's bound in
BENCHMARK.json, "no change" otherwise. Use seeds not used while the change
was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's metrics, and the unscaled wall times printed beside them."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: incorrect output on seed {seed}:\n{proc.stderr}")
    unscaled = next(
        (json.loads(line[len("unscaled: "):]) for line in lines if line.startswith("unscaled: ")), {}
    )
    return {name: m["value"] for name, m in result["metrics"].items()}, unscaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    spec = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    walls: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            checkout = args.base if side == "base" else args.head
            values, unscaled = run_once(checkout, args.workload, seed, spec["run_seconds"], args.trace)
            runs[side].append(values)
            walls[side].append(unscaled)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)

    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        bmed, hmed = statistics.median(base), statistics.median(head)
        worse = (hmed - bmed) if lower else (bmed - hmed)
        verdict = "no change"
        if wins >= 0.9 * len(base) and -worse > bq[2] - bq[0]:
            verdict = "gain"
        elif "bound" in metric and bmed and worse > metric["bound"] * abs(bmed):
            verdict = "regression"
        print(
            f"{name} [{metric['unit']}]: base median {bmed:.6g} (q1 {bq[0]:.6g}, q3 {bq[2]:.6g}); "
            f"head median {hmed:.6g} (q1 {hq[0]:.6g}, q3 {hq[2]:.6g}); "
            f"head won {wins}/{len(base)}: {verdict}"
        )

    # The speed factor (scaled / unscaled) should not depend on the program;
    # when it differs between the sides, trust the unscaled medians instead.
    for name in walls["base"][0]:  # empty for --trace 1
        line = []
        for side in ("base", "head"):
            wall = statistics.median(w[name] for w in walls[side])
            factor = statistics.median(r[name] / w[name] for r, w in zip(runs[side], walls[side]))
            line.append(f"{side} unscaled median {wall:.6g}, speed factor {factor:.4f}")
        print(f"{name} unscaled: " + "; ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
