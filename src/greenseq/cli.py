"""Command-line driver: mutate, mgs, verify, walls.

JSON problem files in, JSON or aligned text out. Exit codes: 0 for success
(and for a verified report), 1 for a negative or partial verdict, 2 for
invalid input. Output depends only on (file, seed, budget), so identical runs
produce identical bytes.

Each command loads only the layers it runs, and builds only the format it
prints, which `_emit` writes as it is made rather than assembling it.
`mutate` and `mgs` run on `io` and `exchange` alone: they load `cli`,
`errors`, `records`, `qp`, `io` and `exchange`, and neither the linear
algebra (`linalg`) nor QP mutation (`qp_mutation`). `mgs --construct-max`
also loads `rep` and `bounds` (which loads `fho`); it tries the cuts longest
first and stops at the first whose sequence is maximal. `verify` loads `rep`
and `fho` (whose `verify_theorem1` loads `walls`), and `walls` loads `rep`
and `walls`. Those imports sit inside the commands, so an `mgs` run never
compiles the module and wall layers, and `mgs --construct-max` never
compiles the wall layer. No command loads the module behind
`@dataclass`, nor the `inspect`, `ast` and `dis` it imports: the records
are `typing.NamedTuple`s or slotted classes that list their field names and
take `==`, `hash` and the repr from their base (`greenseq.records`).

A reader that closes stdout early (`| head -1`) cuts the output short: the
command then exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import exchange
from . import io as gio
from .errors import (
    GenericityError,
    InvalidQuiverError,
    NonStringAlgebraError,
    SearchBudgetExceeded,
    UnsupportedPotentialError,
)

_VALIDATION_ERRORS = (
    InvalidQuiverError,
    NonStringAlgebraError,
    UnsupportedPotentialError,
    ValueError,
    KeyError,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _field_prime(text: str) -> int:
    try:
        value = int(text)
        gio.check_field_prime(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return value


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, which reads the command name and leaves the rest,
    and each command's parser, which reads that rest with
    `parse_intermixed_args` so that options may come between its positionals."""
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, description: str) -> argparse.ArgumentParser:
        p = commands[name] = argparse.ArgumentParser(
            prog=f"greenseq {name}", description=description
        )
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument(
            "--field-prime", type=_field_prime, default=None, help="override the field prime"
        )
        p.add_argument(
            "--budget",
            type=_positive_int,
            default=None,
            help="override the search budget: exchange-graph states for `mgs extrema`, "
            "path nodes for `mgs enumerate|classes` (which build that graph under the same "
            "budget first), cut choices for --construct-max, "
            "path nodes for `verify` (its green-sequence and forward hom-orthogonal "
            "searches both count them and finish at the same budget), and, for every "
            "command that builds a module catalog, string letters (the catalog stops "
            "once its walks pass 2 x budget letters, a walk of length L counting 1 + L)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    p = command("mutate", "print the exchange-matrix chain of a mutation sequence")
    p.add_argument("sequence", nargs="*", type=int, help="vertex labels to mutate at, in order")

    p = command("mgs", "enumerate or summarize maximal green sequences")
    p.add_argument(
        "action",
        nargs="?",
        choices=("enumerate", "extrema", "classes"),
        default=None,
        help="enumerate (default) lists every maximal green sequence, one path at "
        "a time (1.6e15 paths on a9_example); classes lists them too and groups "
        "them by c-vector multiset, which is not a function of the end state; "
        "extrema counts them and gives their shortest and longest length from "
        "the exchange graph, visiting each state once, so it finishes on a9_example",
    )
    p.add_argument(
        "--construct-max",
        action="store_true",
        help="build a longest sequence from a cut instead of enumerating: cuts are "
        "tried longest first, and the first whose sequence is maximal is printed",
    )

    command("verify", "check the three descriptions against each other")

    p = command("walls", "wall-crossing report for one or more green paths")
    p.add_argument("--base", default=None, help="comma-separated rational coordinates, e.g. 1/2,-3,4")
    p.add_argument(
        "--random", type=_positive_int, default=None, metavar="N", help="sample N generic bases"
    )
    p.add_argument(
        "--retries", type=_positive_int, default=50, help="genericity retry cap for --random"
    )

    top = argparse.ArgumentParser(
        prog="greenseq",
        description="Maximal green sequences: mutation, enumeration, verification, walls.",
    )
    top.add_argument(
        "command",
        choices=tuple(commands),
        help="; ".join(f"{name}: {p.description}" for name, p in commands.items()),
    )
    top.add_argument("args", nargs=argparse.REMAINDER, help="see greenseq COMMAND -h")
    return top, commands


def _load(args) -> gio.ProblemFile:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    if args.field_prime is not None:
        data["field_prime"] = args.field_prime
    if args.budget is not None:
        data["search_budget"] = args.budget
    if args.seed is not None:
        data["rng_seed"] = args.seed
    return gio.problem_from_json(data)


# how many rendered int tuples one `_emit` call keeps (see `_json_parts`)
_JSON_MEMO_SIZE = 1024


def _emit(args, payload: Callable[[], object], text: Callable[[], Iterable[str]]) -> None:
    """Write the JSON payload or the text lines; only the one written is built.

    Parts reach stdout 4,096 at a time, so no output is held whole and an
    unbuffered stdout (`PYTHONUNBUFFERED`) is not written once per part. The
    JSON writer's memo of rendered int tuples is made here, so it lives for
    this one call and holds at most `_JSON_MEMO_SIZE` entries.
    """
    chunk: list[str] = []

    def write(part: str) -> None:
        chunk.append(part)
        if len(chunk) == 4096:
            sys.stdout.write("".join(chunk))
            chunk.clear()

    if args.format == "json":
        _json_parts(payload(), "\n", write, {})
        write("\n")
    else:
        for line in text():
            write(line + "\n")
    sys.stdout.write("".join(chunk))


def _json_parts(
    value, newline: str, write: Callable[[str], object], memo: dict, memoize: bool = True
) -> None:
    """Write `json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    `newline` starts each line of the value. With `indent` set, `json.dumps`
    runs the standard library's pure-Python encoder; this writer escapes
    strings with the C encoder and writes a list of plain ints in one part.
    A `map` is written as the list of its items, each made only when the
    writer reaches it. Dict keys must be str.

    `memo` maps (id of a tuple of plain ints, newline) to (that tuple, its
    text), so a c-vector that recurs through a listing (the listings share
    one tuple per c-vector) is rendered once per indentation. Only a tuple
    that is an item of a list or tuple takes a slot (`memoize`, false for
    a dict value): a listing's c-vectors are items of each record's
    `c_vectors`, while a value of the record itself, such as its `indices`,
    is its own and never recurs. The key is the tuple's identity, not its
    value: `(1, 0)`, `(True, False)` and `(1.0, 0.0)` are equal and hash
    alike, and a tuple holding a list has no hash. The entry keeps its
    tuple alive, so no other object takes that id while the memo lives.
    Entries are added until the memo holds `_JSON_MEMO_SIZE`, then no more,
    so its size is bounded whatever the output's length; the caller makes
    it and owns its lifetime.
    """
    if type(value) is tuple:
        hit = memo.get((id(value), newline))
        if hit is not None:
            write(hit[1])
            return
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(lead + encode_basestring_ascii(key) + ": ")
            _json_parts(value[key], inner, write, memo, False)
            lead = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple, map)):
        inner = newline + "  "
        if type(value) is not map and value and all(type(x) is int for x in value):
            text = "[" + inner + ("," + inner).join(map(str, value)) + newline + "]"
            if memoize and type(value) is tuple and len(memo) < _JSON_MEMO_SIZE:
                memo[id(value), newline] = value, text
            write(text)
            return
        lead = "[" + inner
        for x in value:
            write(lead)
            _json_parts(x, inner, write, memo)
            lead = "," + inner
        write("[]" if lead[0] == "[" else newline + "]")
    elif type(value) is int:
        # the text json.dumps gives a plain int; a bool or an int subclass
        # takes json.dumps below
        write(int.__repr__(value))
    else:
        write(json.dumps(value))


def _matrix_text(rows: Sequence[Sequence[int]]) -> str:
    width = max((len(str(x)) for row in rows for x in row), default=0)  # no rows if n = 0
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def _vertex_labels(quiver, indices: Sequence[int]) -> list[int]:
    return [quiver.vertices[k] for k in indices]


def cmd_mutate(args, problem: gio.ProblemFile) -> int:
    quiver = problem.qp.quiver
    for pos, v in enumerate(args.sequence, start=1):
        if v not in quiver.vertices:
            print(
                f"error: sequence position {pos}: {v} is not a vertex of the quiver",
                file=sys.stderr,
            )
            return 2
    m = exchange.initial_seed(quiver)
    chain = [(None, m.rows())]
    for v in args.sequence:
        m = exchange.mutate(m, quiver.pos(v))
        chain.append((v, m.rows()))
    _emit(
        args,
        lambda: {
            "steps": [{"mutation": v, "matrix": [list(r) for r in rows]} for v, rows in chain]
        },
        lambda: [
            (f"\nstep {pos}: mutate at {v}" if pos else "initial seed") + "\n" + _matrix_text(rows)
            for pos, (v, rows) in enumerate(chain)
        ],
    )
    return 0


def _sequence_json(quiver, s: exchange.GreenSequence) -> dict:
    """The JSON record of one listed sequence, over the sequence's own tuples."""
    return {
        "indices": s.mutation_indices,
        "c_vectors": s.c_vectors,
        "length": len(s),
        "vertices": _vertex_labels(quiver, s.mutation_indices),
    }


def _classes_json(rows, partial: bool) -> dict:
    return {
        "partial": partial,
        "class_count": len(rows),
        "classes": [
            {
                "length": length,
                "size": size,
                "c_vector_multiset": [list(v) for v in key],
            }
            for length, key, size in rows
        ],
    }


class _CVectorTexts(dict):
    """`str(tuple(v))` of each c-vector v, made when v is first looked up.

    A listing meets few distinct c-vectors many times (15 in 21,834
    occurrences on a5), so each text is made once per listing. The keys are
    the exchange layer's c-vectors, int tuples, so equal keys print alike.
    """

    def __missing__(self, v: tuple[int, ...]) -> str:
        text = self[v] = str(tuple(v))
        return text


def _classes_text(rows, partial: bool) -> Iterator[str]:
    yield f"equivalence classes: {len(rows)}" + (" (partial)" if partial else "")
    texts = _CVectorTexts()
    for length, key, size in rows:
        shown = " ".join(map(texts.__getitem__, key))
        yield f"length {length}  members {size}  c-vectors {shown}"


def _sequences_json(quiver, seqs, partial: bool) -> dict:
    return {
        "partial": partial,
        "count": len(seqs),
        "sequences": map(_sequence_json, repeat(quiver), seqs),
    }


def _sequences_text(quiver, seqs, partial: bool) -> Iterator[str]:
    yield f"maximal green sequences: {len(seqs)}" + (" (partial)" if partial else "")
    texts = _CVectorTexts()
    for s in seqs:
        yield (
            "("
            + ",".join(map(str, _vertex_labels(quiver, s.mutation_indices)))
            + ")  c-vectors "
            + " ".join(map(texts.__getitem__, s.c_vectors))
        )


def cmd_mgs(args, problem: gio.ProblemFile) -> int:
    quiver = problem.qp.quiver
    seed = exchange.initial_seed(quiver)
    if args.construct_max:
        if args.action is not None:
            print(f"error: --construct-max takes no action, got {args.action}", file=sys.stderr)
            return 2
        return _construct_max(args, problem, seed)
    if args.action == "extrema":
        summary = exchange.mgs_summary(seed, budget=problem.search_budget)
        _emit(
            args,
            lambda: {
                "partial": False,
                "min": summary.min_len,
                "max": summary.max_len,
                "count": summary.count,
            },
            lambda: [
                f"maximal green sequences: {summary.count}",
                f"min length {summary.min_len}",
                f"max length {summary.max_len}",
            ],
        )
        return 0
    try:
        seqs = exchange.enumerate_green_sequences(seed, budget=problem.search_budget)
        partial = False
    except SearchBudgetExceeded as e:
        seqs = e.partial
        partial = True
    if args.action == "classes":
        classes = exchange.equivalence_classes(seqs)
        rows = sorted(
            (len(members[0]), key, len(members))
            for key, members in classes.items()
        )
        _emit(args, lambda: _classes_json(rows, partial), lambda: _classes_text(rows, partial))
    else:
        _emit(
            args,
            lambda: _sequences_json(quiver, seqs, partial),
            lambda: _sequences_text(quiver, seqs, partial),
        )
    return 1 if partial else 0


def _construct_max(args, problem: gio.ProblemFile, seed) -> int:
    from . import bounds
    from .rep import string_catalog

    quiver = problem.qp.quiver
    catalog = string_catalog(problem.algebra(), budget=problem.search_budget)
    found = bounds.longest_maximal_cut(problem.qp, catalog, problem.search_budget)
    if found is None:
        print("error: no cut carries a maximal sequence", file=sys.stderr)
        return 1
    best_cut, best = found
    gs, final = exchange.replay_c_vector_sequence(seed, [m.dims for m in best])
    maximal = not any(exchange.is_green(final, k) for k in range(final.n))
    vertices = _vertex_labels(quiver, gs.mutation_indices)
    _emit(
        args,
        lambda: {
            "from_cut": sorted(best_cut),
            "length": len(gs),
            "maximal": maximal,
            "vertices": vertices,
            "c_vectors": [list(v) for v in gs.c_vectors],
            "labels": [m.label for m in best],
        },
        lambda: [
            f"cut deleting {{{', '.join(sorted(best_cut))}}} "
            f"carries a length-{len(gs)} sequence",
            "mutations: " + ",".join(str(v) for v in vertices),
            "maximal: " + str(maximal).lower(),
        ],
    )
    return 0 if maximal else 1


def cmd_verify(args, problem: gio.ProblemFile) -> int:
    from . import fho
    from .rep import string_catalog

    catalog = string_catalog(problem.algebra(), budget=problem.search_budget)
    report = fho.verify_theorem1(
        problem.qp,
        catalog,
        budget=problem.search_budget,
        rng_seed=problem.rng_seed,
    )
    lines = [
        "three-way agreement: " + ("pass" if report["equal"] else "FAIL"),
        f"green sequences {report['mgs_count']}, hom-orthogonal sequences {report['fho_count']}, "
        f"wall sequences {report['wall_realized_count']}",
        f"extremal lengths {tuple(report['extremal_lengths'])}",
        f"realized via random walk {report['realized_via']['random']}, "
        f"directed search {report['realized_via']['directed']}",
    ]
    for w in report["witnesses"]:
        lines.append("witness: " + json.dumps(w, sort_keys=True))
    _emit(args, lambda: report, lambda: lines)
    return 0 if report["equal"] else 1


def _walls_json(base, records) -> dict:
    """JSON payload for the crossings of one base."""
    from . import walls as walls_mod

    return {
        "base": [gio.fraction_to_str(c) for c in base],
        "crossings": walls_mod.crossings_to_json(records),
    }


def _walls_text(base, records, tails: dict) -> str:
    """Text block for the crossings of one base.

    A line ends with its module's label and dimension vector; `tails` keeps
    that text by module identity, so each module's is rendered once per
    listing.
    """
    lines = ["base " + ",".join(map(gio.fraction_to_str, base))]
    for r in records:
        tail = tails.get(id(r.module))
        if tail is None:
            tail = tails[id(r.module)] = (
                f"  {r.module.label or r.module.dims}  dims {tuple(r.dims)}"
            )
        lines.append(f"t={r.time}{tail}")
    return "\n".join(lines)


def cmd_walls(args, problem: gio.ProblemFile) -> int:
    import random

    from . import walls as walls_mod
    from .rep import string_catalog

    if (args.base is None) == (args.random is None):
        print("error: give exactly one of --base or --random N", file=sys.stderr)
        return 2
    catalog = string_catalog(problem.algebra(), budget=problem.search_budget)
    if args.base is not None:
        coords = [gio.fraction_from_str(part) for part in args.base.split(",")]
        if len(coords) != problem.qp.quiver.n:
            print(
                f"error: base has {len(coords)} coordinates, quiver has {problem.qp.quiver.n}",
                file=sys.stderr,
            )
            return 2
        try:
            records = walls_mod.crossing_sequence(tuple(coords), catalog)
        except GenericityError as e:
            print(f"error: degenerate base: {e}", file=sys.stderr)
            return 2
        _emit(args, lambda: _walls_json(coords, records), lambda: [_walls_text(coords, records, {})])
        return 0
    rng = random.Random(problem.rng_seed)
    found = []
    for _ in range(args.random):
        try:
            found.append(walls_mod.random_generic_base(catalog, rng, retries=args.retries))
        except GenericityError as e:
            print(f"error: retry cap exceeded: {e}", file=sys.stderr)
            return 1
    tails: dict[int, str] = {}
    _emit(
        args,
        lambda: {"bases": [_walls_json(base, records) for base, records in found]},
        lambda: ["\n\n".join(_walls_text(base, records, tails) for base, records in found)],
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    top, commands = _parser()
    try:
        found = top.parse_args(argv)
        args = commands[found.command].parse_intermixed_args(found.args)
    except SystemExit as e:  # argparse printed a usage error (2) or --help (0)
        return e.code
    try:
        problem = _load(args)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: JSON nested past the decoder's recursion limit
        print(f"error: cannot read problem file: {e}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as e:
        print(f"error: invalid problem file: {e}", file=sys.stderr)
        return 2
    handler = {
        "mutate": cmd_mutate,
        "mgs": cmd_mgs,
        "verify": cmd_verify,
        "walls": cmd_walls,
    }[found.command]
    try:
        code = handler(args, problem)
        # flushed here, so that a reader that stopped early is caught below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the output was cut short; stdout goes to os.devnull so that the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as e:
        print(f"error: search budget exceeded: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
