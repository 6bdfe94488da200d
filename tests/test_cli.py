"""Command line interface: output shapes, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import cli, exchange
from greenseq.cli import _JSON_MEMO_SIZE, _json_parts, main

import common

A3 = str(common.PROBLEMS / "a3_cyclic.json")
A5 = str(common.PROBLEMS / "a5_example.json")
D4 = str(common.PROBLEMS / "d4_cyclic.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mutate_chain_text(capsys):
    code, out, err = run(capsys, ["mutate", A3, "3", "2", "3", "1", "3"])
    assert code == 0
    assert err == ""
    assert "initial seed" in out
    assert "step 1: mutate at 3" in out
    assert "step 5: mutate at 3" in out


def test_mutate_chain_json(capsys):
    code, out, _ = run(capsys, ["mutate", A3, "3", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"][0]["mutation"] is None
    assert payload["steps"][1]["mutation"] == 3
    assert payload["steps"][1]["matrix"] == [
        [0, 0, -1], [0, 0, 1], [1, -1, 0], [1, 0, 0], [0, 1, 0], [0, 1, -1],
    ]


def test_mutate_chain_text_of_a_zero_vertex_problem(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"qp": {"vertices": [], "arrows": [], "potential": []}}))
    code, out, err = run(capsys, ["mutate", str(path)])
    assert code == 0
    assert out.startswith("initial seed")
    assert err == ""


def test_mutate_rejects_non_vertices(capsys):
    code, out, err = run(capsys, ["mutate", A3, "3", "7"])
    assert code == 2
    assert "sequence position 2: 7 is not a vertex" in err


def test_mgs_enumerate(capsys):
    code, out, _ = run(capsys, ["mgs", A3, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    lengths = sorted(s["length"] for s in payload["sequences"])
    assert lengths == [4] * 6 + [5] * 3


def test_mgs_extrema(capsys):
    code, out, _ = run(capsys, ["mgs", A3, "extrema", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["min"], payload["max"]) == (4, 5)


def test_mgs_classes(capsys):
    code, out, _ = run(capsys, ["mgs", A3, "classes", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 6
    assert sum(c["size"] for c in payload["classes"]) == 9


def test_mgs_extrema_a9(capsys):
    # 1.6e15 sequences: only the exchange-graph summary can answer this
    code, out, err = run(capsys, ["mgs", str(common.PROBLEMS / "a9_example.json"), "extrema"])
    assert code == 0
    assert err == ""
    assert out == "maximal green sequences: 1555927224943624\nmin length 13\nmax length 37\n"


def test_retries_belongs_to_walls(capsys):
    for command in ("mutate", "mgs", "verify"):
        assert main([command, A3, "--retries", "5"]) == 2
        assert "unrecognized arguments: --retries 5" in capsys.readouterr().err
    code, out, err = run(capsys, ["walls", A3, "--random", "1", "--retries", "5"])
    assert code == 0
    assert out.startswith("base ")


@pytest.mark.parametrize("argv", [["--help"], ["mgs", A3, "--help"]], ids=["top", "mgs"])
def test_help_returns_0(capsys, argv):
    # usage errors and --help are return values of main, as every other exit is
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["mgs", A3, "--budget", "50", "extrema"],
            "maximal green sequences: 9\nmin length 4\nmax length 5\n",
        ),
        # `mutate A3 3 1 2 --format json`, pinned in test_mgs_stdout_is_pinned
        (
            ["mutate", A3, "3", "--format", "json", "1", "2"],
            "1d60170d62c06a70103e6951eca16720e3cad7c9c35f18f49992149d3dd0e7e6",
        ),
    ],
    ids=["mgs-extrema", "mutate-json"],
)
def test_options_may_come_between_positionals(capsys, argv, expected):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert expected in (out, hashlib.sha256(out.encode()).hexdigest())


def test_mgs_budget_exhaustion(capsys):
    code, out, err = run(capsys, ["mgs", A3, "--budget", "3"])
    assert code == 1


def test_mgs_construct_max(capsys):
    code, out, _ = run(capsys, ["mgs", A3, "--construct-max"])
    assert code == 0
    assert "carries a length-5 sequence" in out
    assert "maximal: true" in out


def test_mgs_construct_max_json(capsys):
    code, out, _ = run(capsys, ["mgs", D4, "--construct-max", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 9
    assert payload["maximal"] is True
    assert len(payload["c_vectors"]) == 9


@pytest.mark.parametrize("action", ["enumerate", "extrema", "classes"])
def test_mgs_construct_max_takes_no_action(capsys, action):
    code, out, err = run(capsys, ["mgs", A3, action, "--construct-max", "--format", "json"])
    assert code == 2
    assert out == ""
    assert "--construct-max" in err


def test_construct_max_budget_bounds_the_cut_choices(tmp_path, capsys):
    # 14 disjoint oriented triangles: 3**14 = 4,782,969 cut choices, more
    # than the default budget, so the search stops before building a cut
    arrows, potential = [], []
    for t in range(14):
        v1, v2, v3 = 3 * t + 1, 3 * t + 2, 3 * t + 3
        ids = [f"a{t}", f"b{t}", f"g{t}"]
        arrows += [
            {"id": ids[0], "src": v2, "tgt": v1},
            {"id": ids[1], "src": v3, "tgt": v2},
            {"id": ids[2], "src": v1, "tgt": v3},
        ]
        potential.append({"coeff": "1", "cycle": [ids[0], ids[2], ids[1]]})
    data = {"qp": {"vertices": list(range(1, 43)), "arrows": arrows, "potential": potential}}
    path = tmp_path / "triangles.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["mgs", str(path), "--construct-max"])
    assert code == 1
    assert out == ""
    assert "search budget exceeded" in err
    assert "4782969 cut choices" in err


def test_verify(capsys):
    code, out, _ = run(capsys, ["verify", A3, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["mgs_count"] == 9


def test_verify_text(capsys):
    code, out, _ = run(capsys, ["verify", A3])
    assert code == 0
    assert "three-way agreement: pass" in out


def test_walls_base(capsys):
    code, out, _ = run(capsys, ["walls", A3, "--base", "0,1,2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [c["t"] for c in payload["crossings"]] == ["-2", "-3/2", "-1", "-1/2", "0"]
    assert all(c["interior"] for c in payload["crossings"])


def test_walls_base_text(capsys):
    code, out, _ = run(capsys, ["walls", A3, "--base", "0,1,2"])
    assert code == 0
    assert out.splitlines() == [
        "base 0,1,2",
        "t=-2  3  dims (0, 0, 1)",
        "t=-3/2  2<3  dims (0, 1, 1)",
        "t=-1  2  dims (0, 1, 0)",
        "t=-1/2  1<2  dims (1, 1, 0)",
        "t=0  1  dims (1, 0, 0)",
    ]


def test_walls_degenerate_base(capsys):
    code, out, err = run(capsys, ["walls", A3, "--base", "0,0,0"])
    assert code == 2
    assert "degenerate base" in err


def test_walls_random(capsys):
    code, out, _ = run(capsys, ["walls", A3, "--random", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["bases"]) == 3


def test_walls_requires_exactly_one_mode(capsys):
    code, out, err = run(capsys, ["walls", A3])
    assert code == 2
    code, out, err = run(capsys, ["walls", A3, "--base", "1,2,3", "--random", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--random", "2", "--retries", "0"], "--retries"),
        (["--random", "2", "--retries", "-1"], "--retries"),
        (["--random", "-3"], "--random"),
        (["--random", "2", "--budget", "0"], "--budget"),
        (["--random", "2", "--budget", "-3"], "--budget"),
    ],
)
def test_walls_counts_must_be_positive(capsys, argv, option):
    assert main(["walls", A3] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a positive integer" in captured.err


def test_outputs_are_deterministic(capsys):
    first = run(capsys, ["walls", A3, "--random", "4", "--format", "json"])
    second = run(capsys, ["walls", A3, "--random", "4", "--format", "json"])
    assert first == second
    v1 = run(capsys, ["verify", A3, "--format", "json"])
    v2 = run(capsys, ["verify", A3, "--format", "json"])
    assert v1 == v2


def test_seed_flag_changes_random_output(capsys):
    base = run(capsys, ["walls", A3, "--random", "2", "--format", "json"])
    other = run(capsys, ["walls", A3, "--random", "2", "--seed", "5", "--format", "json"])
    assert base != other


def test_missing_file(capsys):
    code, out, err = run(capsys, ["mgs", "/tmp/greenseq_no_such_file.json"])
    assert code == 2
    assert "cannot read problem file" in err


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["mgs", str(bad)])
    assert code == 2


def test_unknown_key_is_rejected(tmp_path, capsys):
    data = json.loads(Path(A3).read_text())
    data["surprise"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["mgs", str(path)])
    assert code == 2
    assert "surprise" in err


def test_bad_field_prime_is_rejected(capsys):
    # the flag is at fault, not the file: argparse names it and nothing runs
    for prime in ("4", "2147483659"):
        assert main(["verify", A3, "--field-prime", prime]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --field-prime: field_prime " + prime in captured.err


def test_corrupted_module_fails_before_any_work(tmp_path, capsys):
    data = json.loads(Path(A3).read_text())
    data["modules"] = [
        {"dims": [1, 1, 1], "mats": {"a": [[1]], "b": [[1]], "g": [[1]]}}
    ]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["mutate", str(path), "1"])
    assert code == 2
    assert "unknown problem keys: ['modules']" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["walls", A5, "--random", "50", "--seed", "1", "--format", "json"],
            "c559ff09143e0f2fe602909a1fa7e3c212c4cc257588e512ed6ffdb4cdcdde6c",
        ),
        (
            ["walls", str(common.PROBLEMS / "a9_example.json"), "--random", "20",
             "--seed", "1", "--format", "json"],
            "1788f3b6a23e62e4fe0b09e76dfe61a97d81021ef712c63a6cfeb084ce4c0d49",
        ),
        (
            ["walls", A3, "--base", "0,1,2", "--format", "json"],
            "3698a25f8af0b715b8c8095cc79c1473799e0a62ad5576667a56a8bf79f56cfa",
        ),
        (
            # mixed denominators: the sign pass scales by their lcm
            ["walls", A3, "--base", "1/3,-2/7,5", "--format", "json"],
            "413bc9f32542f940629f405b6f9bb88faf6dce265687c9a8a592f42cfcb428ed",
        ),
        (
            # the text output of the benchmark's two `walls` ops
            ["walls", A5, "--random", "200", "--seed", "1"],
            "e42bc44a8c16cc5237f1ddcccb54ee3884dcb770ac2cae821392fe069eb7916e",
        ),
        (
            ["walls", str(common.PROBLEMS / "a9_example.json"), "--random", "200",
             "--seed", "1"],
            "fddcf231fc23041c07c0e05f8d058d31ff08140c73117f6723c225cf05db2732",
        ),
    ],
)
def test_walls_stdout_is_pinned(capsys, argv, digest):
    # any change to the sampled bases, the crossing records, their order or
    # their formatting changes these digests
    code, out, err = run(capsys, argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ["mgs", A3, "enumerate", "--format", "json"],
            0,
            "031f662191117896ab648692be43e7ecf1b84485c43982f122f95b2e48397dc7",
        ),
        (
            ["mgs", D4, "classes", "--format", "json"],
            0,
            "8352c670d2b2c77450d8fc27cc5517b917df383b94263e62610d195b7abb6c18",
        ),
        (
            ["mgs", D4, "--construct-max"],
            0,
            "b602e5d48bba62499e84b447437824cd7423839b32711f6bba20cb73b7703571",
        ),
        (
            ["mgs", A5, "--construct-max", "--format", "json"],
            0,
            "088ae1f5ba77b7082614927956041f24ad10b666adb763aa16f436d19b0cbb18",
        ),
        (
            ["mgs", str(common.PROBLEMS / "a9_example.json"), "--construct-max"],
            0,
            "e3bebe465f4e023c02e63dbbe1439f45bde07a8aaafcc6545a8352ace82e99ad",
        ),
        (
            # the budget runs out: a partial listing and exit 1
            ["mgs", A3, "--budget", "3"],
            1,
            "8ae762933d29528d90dbaab11c6da127d323c5bbf60146ae9aed6cabb28451f1",
        ),
        (
            ["mutate", A3, "3", "1", "2", "--format", "json"],
            0,
            "1d60170d62c06a70103e6951eca16720e3cad7c9c35f18f49992149d3dd0e7e6",
        ),
        (
            ["mgs", A5, "enumerate", "--format", "json"],
            0,
            "cc82e54fa6bf913a833958342b1022dc73064587d3f9be5f63689d33e8bad9f1",
        ),
        (
            ["mgs", A5, "classes"],
            0,
            "db4c2ee77a60360f52882d776f3f4eaf4bc4001dbc32418253a6a735b588f937",
        ),
        (
            ["mgs", D4, "enumerate"],
            0,
            "b0d1160224eaa398f3c2a021f7a82789f9c2ef5016a1cd005e8d7941f80ed698",
        ),
        (
            ["mgs", str(common.PROBLEMS / "a9_example.json"), "extrema", "--budget", "100000"],
            0,
            "1b135c155f124603fb19e22a1f68145f172e52e7c2bf437d0274cbaca3c84a30",
        ),
        (
            ["verify", A3],
            0,
            "d7e294df11a653a61d754eda0b3b3be43bc8aa3dc63e6a7edc21c8c72b55721f",
        ),
        (
            ["verify", A3, "--format", "json"],
            0,
            "6fcb47b388eed5bea087718295dffca2be2e6e1190c2a763240642f026b3ba05",
        ),
        (
            # the straight-line wall search leaves d4 sequences unrealized
            ["verify", D4, "--seed", "1", "--format", "json"],
            1,
            "d786c6421d5ccda4f5ddb289897d86e0ed6176aec747717b8bf9027be01e0809",
        ),
        (
            # a partial JSON listing: 143,294 bytes
            ["mgs", A5, "enumerate", "--format", "json", "--budget", "500"],
            1,
            "940aa0da2bc963ebdfe318dc741ea3506a1a27ed49779fe60c0c7a9f57fd1c26",
        ),
        (
            # an empty partial listing: "sequences": []
            ["mgs", A3, "enumerate", "--format", "json", "--budget", "1"],
            1,
            "f0a46bdea079a9001d571a5bd9d995cb394c6189d2540874c665201b04e6e5cf",
        ),
        (
            ["mgs", A3, "classes", "--budget", "1"],
            1,
            "0390ea019f9c59dbd9a7c9d467a72e4fde4d7c40e01e5cfab99b75b7a6f47ced",
        ),
        (
            # 422,188 bytes of text: many more lines than one write holds
            ["mgs", A5, "enumerate"],
            0,
            "6789bba3e46833bff8e0d136415ef0e8dbac1c5b2ce5940f75461aef6ee0c17f",
        ),
        (
            # text blocks separated by blank lines
            ["mutate", A3, "3", "1", "2"],
            0,
            "cfccd264795c19657c72dbc869f4a32f74101a04831fb4175a799ebed62fe585",
        ),
        (
            ["walls", A5, "--random", "3", "--seed", "1"],
            0,
            "80c9d0a8ab6a3b712be42de5d1c7a75ca11f439b72f13a8bf2eb12a25071023c",
        ),
        (
            # the smallest budget both sequence searches of verify finish in
            ["verify", D4, "--seed", "1", "--format", "json", "--budget", "425"],
            1,
            "d786c6421d5ccda4f5ddb289897d86e0ed6176aec747717b8bf9027be01e0809",
        ),
        (
            # 2,149 exact LP solves (`walls.rational_feasible`): any change
            # to their pivots or to the bases they return changes this digest
            ["verify", A5, "--seed", "1", "--format", "json"],
            1,
            "4ad716f05ad5df561469389bcd58e54bd5619568bb19e3e5b14059cfc50eff0b",
        ),
    ],
)
def test_mgs_stdout_is_pinned(capsys, argv, code, digest):
    # any change to the listed sequences, their order, the chosen cut, the
    # FHO search and wall bases behind verify, or the formatting changes
    # these digests
    got, out, err = run(capsys, argv)
    assert got == code
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest



# strings with the characters JSON must escape, and some that it must not
JSON_STRINGS = st.text(
    st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
    max_size=8,
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63))
    | st.floats()
    | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    # plain ints take the writer's one-join path; bools must not
    | st.lists(st.integers() | st.booleans(), max_size=4)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=24,
)


def _json_text(value) -> str:
    parts = []
    _json_parts(value, "\n", parts.append, {})
    return "".join(parts)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class _Count(int):
    pass


def test_json_writer_scalars_match_json_dumps():
    # plain ints are written through int.__repr__; bools, None, floats and
    # int subclasses still go through json.dumps
    big = 10**39 + 7
    for value in (
        {"zero": 0, "neg": -17, "big": big, "negbig": -big, "t": True, "f": False,
         "none": None, "float": 2.5, "sub": _Count(3)},
        [0, -17, big, True, None, 2.5, False, _Count(-4), "x"],
        0,
        -big,
        True,
        None,
        -0.5,
    ):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_memo_keeps_equal_tuples_of_other_types_apart():
    # (1, 0), (True, False) and (1.0, 0.0) are equal and hash alike, so a
    # memo keyed by value alone would write all three as [1, 0]; the same
    # tuple also recurs at two depths, and as an equal but distinct object
    pair = (1, 0)
    for value in (
        [pair, (True, False), (1.0, 0.0), {"a": pair}],
        [(True, False), (1.0, 0.0), pair, [pair, [pair]], tuple([1, 0]), {"a": [pair]}],
    ):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_memo_stops_growing_at_its_bound():
    memo, parts = {}, []
    value = [(i, -i) for i in range(2 * _JSON_MEMO_SIZE)]
    _json_parts(value, "\n", parts.append, memo)
    assert len(memo) == _JSON_MEMO_SIZE
    assert "".join(parts) == json.dumps(value, indent=2, sort_keys=True)


def test_json_listing_memo_holds_only_the_c_vectors(capsys, monkeypatch):
    # the memo is the fourth argument of the writer's first call; only the
    # c-vectors recur through a listing, so only they take its slots, and
    # the records' own `indices` tuples take none
    memos = []
    parts = cli._json_parts

    def spy(value, newline, write, memo, *item):
        memos.append(memo)
        return parts(value, newline, write, memo, *item)

    monkeypatch.setattr(cli, "_json_parts", spy)
    code, out, err = run(capsys, ["mgs", A5, "enumerate", "--format", "json"])
    assert code == 0
    memo = memos[0]
    listed = {v for s in json.loads(out)["sequences"] for v in map(tuple, s["c_vectors"])}
    assert len(listed) == 15
    assert sorted(value for value, text in memo.values()) == sorted(listed)
    assert {newline for key, newline in memo} == {"\n" + " " * 8}


def test_text_listings_render_each_c_vector_once(capsys, monkeypatch):
    made = []
    texts = cli._CVectorTexts

    class Counted(texts):
        def __missing__(self, v):
            made.append(v)
            return texts.__missing__(self, v)

    monkeypatch.setattr(cli, "_CVectorTexts", Counted)
    seed = exchange.initial_seed(common.problem("a5_example").qp.quiver)
    distinct = {v for s in exchange.enumerate_green_sequences(seed) for v in s.c_vectors}
    for action in ("enumerate", "classes"):
        del made[:]
        code, out, err = run(capsys, ["mgs", A5, action])
        assert code == 0
        assert sorted(made) == sorted(distinct)


def test_json_writer_makes_each_map_item_as_it_writes_it():
    made, seen, parts = [], [], []

    def record(i):
        made.append(i)
        return {"i": i, "pair": [i, -i]}

    def write(part):
        seen.append(len(made))
        parts.append(part)

    value = {"ints": map(int, "12"), "none": map(record, []), "records": map(record, range(3))}
    _json_parts(value, "\n", write, {})
    assert "".join(parts) == json.dumps(
        {"ints": [1, 2], "none": [], "records": [record(i) for i in range(3)]},
        indent=2,
        sort_keys=True,
    )
    # parts were written while 0, 1, 2 and 3 records had been made
    assert sorted(set(seen)) == [0, 1, 2, 3]


@pytest.mark.parametrize("value", [{1: "a"}, {None: 0}, {"a": [{"b": 1, 2: 3}]}])
def test_json_writer_rejects_non_str_keys(value):
    with pytest.raises(TypeError):
        _json_text(value)
