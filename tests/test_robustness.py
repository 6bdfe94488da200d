"""Hostile inputs fail fast, and errors that are not genericity failures propagate."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from greenseq import linalg, rep, walls
from greenseq.cli import main
from greenseq.errors import SearchBudgetExceeded
from greenseq.fho import verify_theorem1
from greenseq.io import MAX_FIELD_PRIME, is_prime, problem_from_json
from greenseq.linalg import subspace_count, subspaces
from greenseq.rep import (
    Algebra,
    algebra_from_qp,
    make_rep,
    string_catalog,
    submodule_dimvecs,
)

import common

A3 = str(common.PROBLEMS / "a3_cyclic.json")


def test_is_prime_matches_trial_division():
    expected = [n for n in range(200) if n >= 2 and all(n % q for q in range(2, n))]
    assert [n for n in range(200) if is_prime(n)] == expected
    assert is_prime(MAX_FIELD_PRIME)
    assert not is_prime(2**31 + 1)
    assert not is_prime(46349 * 46351)


def _a3_with_prime(prime):
    data = json.loads(Path(A3).read_text())
    data["field_prime"] = prime
    return data


def test_largest_field_prime_loads_fast(capsys):
    assert main(["mutate", A3, "--field-prime", str(MAX_FIELD_PRIME)]) == 0
    # only the load is timed: trial division up to p would take minutes
    t0 = time.perf_counter()
    problem = problem_from_json(_a3_with_prime(MAX_FIELD_PRIME))
    assert time.perf_counter() - t0 < 1.0
    assert problem.field_prime == MAX_FIELD_PRIME


@pytest.mark.parametrize(
    "prime",
    [
        2147483649,  # 3 * 715827883, composite
        4294967311,  # prime, but above the limit
    ],
)
def test_bad_large_field_primes_exit_2(capsys, prime):
    assert main(["mutate", A3, "--field-prime", str(prime)]) == 2
    assert "argument --field-prime: field_prime" in capsys.readouterr().err
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="field_prime"):
        problem_from_json(_a3_with_prime(prime))
    assert time.perf_counter() - t0 < 1.0


def test_algebra_rejects_primes_above_the_limit(a3_algebra):
    with pytest.raises(ValueError, match="exceeds"):
        Algebra(quiver=a3_algebra.quiver, relations=a3_algebra.relations, p=4294967311)
    with pytest.raises(ValueError, match="not prime"):
        Algebra(quiver=a3_algebra.quiver, relations=a3_algebra.relations, p=2147483645)


def test_verify_propagates_budget_errors_from_wall_construction(monkeypatch, a3_qp):
    sample = walls.random_generic_base
    samples = []

    def counted(*args, **kwargs):
        samples.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(rep, "MAX_TOTAL_DIM", 0)
    monkeypatch.setattr(walls, "random_generic_base", counted)
    catalog = string_catalog(common.algebra("a3_cyclic"))
    with pytest.raises(SearchBudgetExceeded, match="brute-force budget"):
        verify_theorem1(a3_qp, catalog)
    # the first sample raised, and nothing swallowed it
    assert len(samples) == 1


@pytest.mark.parametrize("d, p, count", [(5, 2, 374), (6, 3, 56_632)])
def test_subspace_count_matches_the_enumeration(d, p, count):
    assert subspace_count(d, p) == len(subspaces(d, p)) == count


def test_subspace_budget_is_checked_before_any_subspace_is_built(monkeypatch, a3_algebra):
    # total dimension 10 passes the MAX_TOTAL_DIM = 12 guard; F_2^10 alone has
    # 229,755,605 subspaces
    m = make_rep(a3_algebra, [10, 0, 0], {})

    def refuse(d, p):
        raise AssertionError(f"subspaces({d}, {p}) built before the budget check")

    monkeypatch.setattr(linalg, "subspaces", refuse)
    with pytest.raises(SearchBudgetExceeded, match="229755605 subspace tuples"):
        submodule_dimvecs(m)


KRONECKER = {
    "qp": {
        "vertices": [1, 2],
        "arrows": [{"id": "a", "src": 1, "tgt": 2}, {"id": "b", "src": 1, "tgt": 2}],
        "potential": [],
    },
    "field_prime": 2,
    "search_budget": 1000000,
    "rng_seed": 0,
}


@pytest.mark.parametrize("action", ["extrema", "enumerate", "classes"])
def test_infinite_exchange_graph_runs_out_of_budget(tmp_path, capsys, action):
    # one green branch of the Kronecker quiver never ends, so every search
    # runs out of budget; main must return, not die of the recursion limit
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(KRONECKER))
    assert main(["mgs", str(path), action, "--budget", "2000"]) == 1
    out, err = capsys.readouterr()
    if action == "extrema":
        assert "search budget exceeded" in err
    else:
        assert "(partial)" in out


def _a3_without_potential():
    # the oriented 3-cycle with no relations: strings of every length
    data = json.loads(Path(A3).read_text())
    data["qp"]["potential"] = []
    return data


INFINITE_TYPE = {"kronecker": KRONECKER, "cycle3": _a3_without_potential()}


def _cap_address_space(size=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def _cli_env(**overrides):
    """The environment of a `python -m greenseq.cli` subprocess."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(common.PROBLEMS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_infinite_exchange_graph_stops_on_its_state_budget(tmp_path):
    # the Kronecker quiver's green graph is one long path: 60,000 states fit
    # in 512 MiB only if a state's key does not grow with the c-vector ids;
    # the listing builds that graph under its node budget before it walks
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(KRONECKER))
    for action in ("extrema", "enumerate"):
        done = subprocess.run(
            [sys.executable, "-m", "greenseq.cli", "mgs", str(path), action, "--budget", "60000"],
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: _cap_address_space(1 << 29),
        )
        assert done.returncode == 1, (action, done.stderr)
        if action == "extrema":
            assert "search budget exceeded" in done.stderr
        else:
            assert "(partial)" in done.stdout
        assert "Traceback" not in done.stderr


def test_long_json_listing_is_written_in_bounded_memory(tmp_path):
    # the partial a9 listing is 92 MB of JSON; assembled whole before it is
    # written, it does not fit in 192 MiB
    path = tmp_path / "listing.json"
    with path.open("w") as out:
        done = subprocess.run(
            [sys.executable, "-m", "greenseq.cli", "mgs", str(common.PROBLEMS / "a9_example.json"),
             "enumerate", "--format", "json", "--budget", "100000"],
            env=_cli_env(),
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            preexec_fn=lambda: _cap_address_space(192 << 20),
        )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert "MemoryError" not in done.stderr
    with path.open() as listing:
        assert json.load(listing)["partial"] is True


@pytest.mark.parametrize("name", sorted(INFINITE_TYPE))
@pytest.mark.parametrize(
    "argv",
    [["walls", "--random", "1"], ["verify"], ["mgs", "--construct-max"]],
    ids=["walls", "verify", "construct-max"],
)
def test_infinite_type_catalog_runs_out_of_budget(tmp_path, name, argv):
    # a catalog command on an algebra with bands stops on the string budget
    # at the default search_budget, in bounded time and memory
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INFINITE_TYPE[name]))
    command, *options = argv
    done = subprocess.run(
        [sys.executable, "-m", "greenseq.cli", command, str(path), *options],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert done.returncode == 1, done.stderr
    assert "search budget exceeded" in done.stderr


def test_string_catalog_budget_counts_letters(a3_algebra):
    # a3's walks: three trivial ones and both readings of three arrows, so
    # 3 * 1 + 6 * 2 = 15 letters, within 2 * 8 but not 2 * 7
    assert len(string_catalog(a3_algebra, budget=8)) == 6
    with pytest.raises(SearchBudgetExceeded, match="passed 14 letters"):
        string_catalog(a3_algebra, budget=7)
    alg = algebra_from_qp(problem_from_json(_a3_without_potential()).qp)
    t0 = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match="passed 200000 letters"):
        string_catalog(alg, budget=100_000)
    assert time.perf_counter() - t0 < 1.0


def _set_path(data, path, value):
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("field_prime",), [2]),
        (("field_prime",), 2.9),
        (("rng_seed",), [1]),
        (("search_budget",), 1e3),
        (("search_budget",), True),
        (("qp", "vertices"), 3),
        (("qp", "arrows"), ["a"]),
        (("qp", "potential", 0, "cycle"), 5),
        (("qp", "arrows", 0, "id"), None),
        (("qp", "arrows", 0, "id"), ["a"]),
        (("qp", "arrows", 0, "id"), 7),
        (("qp", "potential", 0, "cycle"), ["a", None, "b"]),
        (("qp", "potential", 0, "cycle"), ["a", 7, "b"]),
        # a misspelled key is not ignored: "potentail" would load a
        # relation-free algebra
        (("qp", "potentail"), []),
        (("qp", "arrows", 0, "colour"), "red"),
        (("qp", "potential", 0, "weight"), 1),
    ],
)
def test_mistyped_problem_values_exit_2(tmp_path, capsys, path, value):
    # a wrong JSON type or an unknown key is invalid input: no traceback, no
    # silent truncation, no str() of a non-string, no ignored key
    data = json.loads(Path(A3).read_text())
    _set_path(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["mgs", str(bad), "extrema"]) == 2
    err = capsys.readouterr().err
    assert "invalid problem file" in err
    assert "Traceback" not in err
    assert path[-1] in err  # the message names the key


@pytest.mark.parametrize("overrides", [[], ["--seed", "3", "--field-prime", "3"]])
def test_top_level_array_exits_2(tmp_path, capsys, overrides):
    # the overrides write into the parsed object, so the type check comes first
    path = tmp_path / "array.json"
    path.write_text(json.dumps([json.loads(Path(A3).read_text())]))
    assert main(["mgs", str(path), "extrema", *overrides]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "problem file must be a JSON object" in err


@pytest.mark.parametrize(
    "argv", [["mgs", "extrema"], ["walls", "--random", "1"], ["verify"]], ids=["mgs", "walls", "verify"]
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # the JSON decoder recurses once per level and stops at the recursion limit
    path = tmp_path / "nested.json"
    path.write_text('{"qp": ' + "[" * 100_000 + "]" * 100_000 + "}")
    command, *options = argv
    assert main([command, str(path), *options]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read problem file: ")


@pytest.mark.parametrize("where", ["base", "coefficient"])
def test_exponent_notation_exits_2_at_once(tmp_path, where):
    # Fraction("1e400000000") would build 10**400000000: rejected up front
    if where == "base":
        argv = ["walls", A3, "--base", "1e400000000,2,3"]
    else:
        data = json.loads(Path(A3).read_text())
        data["qp"]["potential"][0]["coeff"] = "1e400000000"
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(data))
        argv = ["walls", str(path), "--random", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "greenseq.cli", *argv],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert "not a rational: '1e400000000'" in done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the JSON is larger than a pipe holds, so the write is still going on
    # when the reader stops after one line; the a5 listing is the largest
    for argv in (
        ["walls", A3, "--random", "200"],
        ["mgs", str(common.PROBLEMS / "a5_example.json"), "enumerate"],
    ):
        child = subprocess.Popen(
            [sys.executable, "-m", "greenseq.cli", *argv, "--format", "json"],
            env=_cli_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert child.stdout.readline() == "{\n"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=30) == 1, argv
        assert "Traceback" not in err
        assert err == ""
