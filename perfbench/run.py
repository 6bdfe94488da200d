"""Benchmark for the `greenseq` CLI.

    python3 perfbench/run.py --workload mgs-exchange --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. With `--trace 0` each op of the workload
runs as a fresh `python -m greenseq.cli` subprocess, one after another (a
closed loop with one client), and the end-to-end metrics are printed. With
`--trace 1` the same ops run in this process through `greenseq.cli.main`,
once plain and once under the tracer, and the per-layer metrics are printed.
Every op's output is checked outside the timed region. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module; the script dir is on sys.path)

# Whole-run limit: every op still running at this point is killed and failed.
RUN_LIMIT_S = 170.0
# Fresh-interpreter set-up probes per run; the median is reported.
SETUP_REPEATS = 15
OUT_DIR = ROOT / ".perfbench"
# Speed probe: one loop of SpeedProbe takes about this long on a quiet core
# of a 2-core x86-64 VM under Python 3.11; timings are scaled to that speed.
REF_LOOP_S = 2.0e-4
SAMPLE_EVERY_S = 0.02

SETUP_CODE = """\
import sys
from greenseq import io, rep
for path in sys.argv[1:]:
    problem = io.load_problem(path)
    rep.string_catalog(problem.algebra(), budget=problem.search_budget)
"""

# Per-layer metrics of the traced run, in report order. `<fn>.calls`,
# `<fn>.s`, `<fn>.self_s` and `<fn>.distinct_frac` come straight from the
# tracer's totals; the three outcome ratios are defined in `layer_metrics`.
LAYER_METRICS = (
    "exchange.mutate.calls",
    "exchange.mutate.s",
    "exchange.mutate.distinct_frac",
    "exchange.enumerate_green_sequences.s",
    "exchange.replay_c_vector_sequence.s",
    "rep.string_catalog.s",
    "rep.hom_dim.calls",
    "rep.hom_dim.s",
    "rep.hom_dim.distinct_frac",
    "fho.is_maximal_fho.calls",
    "fho.is_maximal_fho.s",
    "fho.enumerate_maximal_fho.s",
    "fho.is_fho_in_torsion_class.s",
    "fho.verify_theorem1.self_s",
    "bounds.cuts.s",
    "bounds.construct_max_sequence.calls",
    "bounds.construct_max_sequence.s",
    "bounds.construct_max_sequence.maximal_frac",
    "walls.crossing_sequence.calls",
    "walls.crossing_sequence.s",
    "walls.random_generic_base.s",
    "walls.random_generic_base.generic_frac",
    "walls.rational_feasible.calls",
    "walls.rational_feasible.s",
    "walls.realize_sequence.calls",
    "walls.realize_sequence.realized_frac",
    "walls.wall_for.calls",
    "walls.wall_for.s",
    "io.load_problem.s",
    "cli.main.self_s",
)


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    return "s"


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    rank = n - 10
    return f"p{100 * rank / n:.0f}={sorted(values)[rank - 1]:.6g}, n={n}"


# ----------------------------------------------------------------------
# checking


class Checker:
    """Runs the oracle on each op result and tallies the outcome."""

    def __init__(self):
        from oracle import Oracle  # imports greenseq

        self.oracle = Oracle(ROOT)
        self.attempted = 0
        self.failed = 0
        self.incomplete = 0

    def record(self, op: workloads.Op, returncode: int, stdout: str, error: str = "") -> None:
        from oracle import OracleError

        self.attempted += 1
        if not error:
            try:
                self.incomplete += self.oracle.check(op, returncode, stdout)
                return
            except OracleError as e:
                error = str(e)
            except (ValueError, KeyError, IndexError, TypeError) as e:  # malformed output
                error = f"unparsable output: {e!r}"
        self.failed += 1
        print(f"FAILED {op.label}: {error}", file=sys.stderr)


# ----------------------------------------------------------------------
# end-to-end run (subprocesses, tracing off)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


class SpeedProbe:
    """Times a fixed pure-Python loop every `SAMPLE_EVERY_S` in a thread.

    The cores of the benchmark machine are shared, and their speed drifts by
    up to a quarter within seconds, independently per core. Timed children
    therefore run pinned to this process's CPU, and this probe samples that
    CPU's speed while they run.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def _loop() -> int:
        s = 0
        for i in range(3000):
            s += i * i % 7
        return s

    def _sample(self) -> None:
        while True:
            t0 = time.perf_counter()
            self._loop()
            self.samples.append(time.perf_counter() - t0)
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """Multiplies wall time measured meanwhile into reference-speed time.

        Work done is the integral of speed over time, so this is the mean
        sampled speed (loops per second), not the speed of the median loop.
        """
        return REF_LOOP_S * statistics.fmean(1 / t for t in self.samples)


@dataclass
class ChildResult:
    wall_s: float
    ref_s: float  # wall time at the reference speed
    returncode: int
    stdout: str
    peak_rss_kib: int
    timed_out: bool


def run_child(argv: list[str], deadline: float) -> ChildResult:
    """Run one child to completion on this process's CPU."""
    env = _child_env()
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        killed = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=out,  # stderr passes through
        )

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(max(0.0, deadline - t0), kill)
        timer.start()
        try:
            with SpeedProbe() as speed:
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        out.seek(0)
        stdout = out.read().decode("utf-8", errors="replace")
    return ChildResult(
        wall, wall * speed.factor(), proc.returncode, stdout,
        usage.ru_maxrss, killed.is_set(),
    )


def geomean_ms_of(times: list[float]) -> float:
    return 1000 * math.exp(statistics.fmean(math.log(t) for t in times))


def timed_run(workload: str, seed: int, seconds: float):
    ops = workloads.ops(workload, seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    probe = ["-c", SETUP_CODE] + [f"problems/{p}.json" for p in workloads.problems(workload)]
    setup, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        r = run_child(probe, deadline)
        if r.returncode != 0 or r.timed_out:
            raise SystemExit("set-up probe failed")
        setup.append(r.ref_s)
        setup_wall.append(r.wall_s)

    checker = Checker()
    pass_s, geomean_ms, wall_s, geomean_wall_ms, peak_kib = [], [], [], [], 0
    per_op: dict[str, list[float]] = {op.label: [] for op in ops}
    per_op_wall: dict[str, list[float]] = {op.label: [] for op in ops}
    measure_start = time.perf_counter()
    while True:
        results = []
        for op in ops:
            r = run_child(["-m", "greenseq.cli", *op.argv], deadline)
            checker.record(op, r.returncode, r.stdout, "timed out" if r.timed_out else "")
            results.append(r)
            per_op[op.label].append(r.ref_s)
            per_op_wall[op.label].append(r.wall_s)
            peak_kib = max(peak_kib, r.peak_rss_kib)
            if r.timed_out:
                break
        if results[-1].timed_out:
            break
        times = [r.ref_s for r in results]
        walls = [r.wall_s for r in results]
        pass_s.append(sum(times))
        geomean_ms.append(geomean_ms_of(times))
        wall_s.append(sum(walls))
        geomean_wall_ms.append(geomean_ms_of(walls))
        if time.perf_counter() - measure_start >= seconds:
            break

    samples = {"pass_s": pass_s, "op_geomean_ms": geomean_ms, "setup_s": setup}
    print("times below are at the reference speed, with the unscaled wall time; see README.md")
    for label, values in per_op.items():
        if values:
            print(f"op {label}: median {statistics.median(values):.4f} s "
                  f"(unscaled {statistics.median(per_op_wall[label]):.4f} s), {tail_percentile(values)}")
    unscaled = {"pass_s": wall_s, "op_geomean_ms": geomean_wall_ms, "setup_s": setup_wall}
    # medians of the same samples before scaling, read by compare.py
    print("unscaled: " + json.dumps({k: statistics.median(v) for k, v in unscaled.items() if v}))
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    metrics["peak_rss_mb"] = peak_kib / 1024
    for name, values in samples.items():
        if values:
            print(f"{name}: median {metrics[name]:.6g} {unit_of(name)}, {tail_percentile(values)}")
    return checker, metrics


# ----------------------------------------------------------------------
# traced run (in process)


def run_inprocess(op: workloads.Op):
    """Run one op through `greenseq.cli.main`, looked up at call time so the
    tracer's wrapper is used when active. Returns (seconds at the reference
    speed, speed factor, returncode, stdout, error)."""
    import greenseq.cli

    buf = io.StringIO()
    error = ""
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = greenseq.cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a crash fails the op, and the run goes on
                code, error = -1, f"raised {e!r}"
        wall = time.perf_counter() - t0
    factor = speed.factor()
    return wall * factor, factor, code, buf.getvalue(), error


def layer_metrics(stats, edges) -> dict[str, float]:
    from tracer import Stat

    def stat(name: str) -> Stat:
        return stats.get(name) or Stat()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for metric in LAYER_METRICS:
        fn, field = metric.rsplit(".", 1)
        st = stat(fn)
        if field == "calls":
            out[metric] = st.calls
        elif field == "s":
            out[metric] = st.seconds
        elif field == "self_s":
            out[metric] = st.self_seconds
        elif field == "distinct_frac":
            out[metric] = ratio(st.distinct, st.calls)
        elif metric == "bounds.construct_max_sequence.maximal_frac":
            # cuts whose sequence passes the maximality test / cuts tried
            out[metric] = ratio(stat("fho.is_maximal_fho").ok, st.calls)
        elif metric == "walls.random_generic_base.generic_frac":
            # accepted bases / crossing attempts made while sampling
            attempts = edges.get(("walls.random_generic_base", "walls.crossing_sequence"), 0)
            out[metric] = ratio(st.ok, attempts)
        elif metric == "walls.realize_sequence.realized_frac":
            out[metric] = ratio(st.ok, st.calls)
        else:
            raise KeyError(metric)
    return out


def traced_run(workload: str, seed: int, seconds: float):
    from greenseq import io as gio
    from greenseq import rep
    from tracer import Tracer

    ops = workloads.ops(workload, seed)
    checker = Checker()
    tracer = Tracer()
    plain_s, traced_s, layers, counts = [], [], [], []
    scale: dict[int, float] = {}  # op id -> SpeedProbe factor
    per_command: dict[str, list[float]] = {c: [] for c in workloads.COMMANDS}
    incomplete_frac = []
    start = time.perf_counter()
    while True:
        before = checker.incomplete
        plain = []
        for op in ops:
            t, _, code, stdout, error = run_inprocess(op)
            checker.record(op, code, stdout, error)
            plain.append((t, code, stdout))
        incomplete_frac.append((checker.incomplete - before) / len(ops))
        for command in per_command:
            per_command[command].append(sum(t for (t, _, _), op in zip(plain, ops) if op.command == command))

        with tracer:
            first = tracer.begin_op("setup")
            with SpeedProbe() as speed:
                for problem in workloads.problems(workload):
                    loaded = gio.load_problem(str(ROOT / "problems" / f"{problem}.json"))
                    rep.string_catalog(loaded.algebra(), budget=loaded.search_budget)
            scale[first] = speed.factor()
            traced = []
            for op in ops:
                op_id = tracer.begin_op(op.label)
                traced.append(run_inprocess(op))
                scale[op_id] = traced[-1][1]
        for op, (_, _, code, stdout, error), (_, code0, stdout0) in zip(ops, traced, plain):
            checker.attempted += 1
            if error or (code, stdout) != (code0, stdout0):
                checker.failed += 1
                print(f"FAILED {op.label}: traced output differs from untraced", file=sys.stderr)
        plain_s.append(sum(t for t, _, _ in plain))
        traced_s.append(sum(t for t, _, _, _, _ in traced))
        stats, edges = tracer.totals(range(first, first + len(ops) + 1), scale)
        layer = layer_metrics(stats, edges)
        layers.append(layer)
        counts.append({k: v for k, v in layer.items() if k.endswith(".calls")})
        # two rounds at least, so the repeat check on call counts always runs
        if len(layers) >= 2 and time.perf_counter() - start >= seconds:
            break

    if any(c != counts[0] for c in counts):
        checker.failed += 1
        print("FAILED: call counts differ between traced passes", file=sys.stderr)
    tracer.write(OUT_DIR / f"trace-{workload}")

    # counts are equal in every pass (checked above); times take the median
    metrics = {
        name: counts[0][name] if name in counts[0] else statistics.median(layer[name] for layer in layers)
        for name in LAYER_METRICS
    }
    metrics["trace.overhead_frac"] = statistics.median(
        t / p - 1 for t, p in zip(traced_s, plain_s)
    )
    for command, values in per_command.items():
        metrics[f"{command}_s"] = statistics.median(values)
    metrics["ops_incomplete_frac"] = statistics.median(incomplete_frac)
    print(f"traced passes: {len(layers)}, untraced pass {statistics.median(plain_s):.4f} s, "
          f"traced pass {statistics.median(traced_s):.4f} s")
    return checker, metrics


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [
        str(p) for p in [ROOT / "src" / "greenseq" / "cli.py"]
        + [ROOT / "problems" / f"{name}.json" for name in workloads.PROBLEMS]
        if not p.is_file()
    ]
    if missing:
        print("error: not a greenseq checkout; missing " + ", ".join(missing), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # SpeedProbe must share the CPU with the work it scales; children inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = traced_run if args.trace else timed_run
    checker, metrics = run(args.workload, args.seed, args.seconds)
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
