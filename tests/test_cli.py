import json
import tracemalloc
from fractions import Fraction

import pytest

from hyperchi.cli import main
from hyperchi.jsonio import SchemaError, dumps_canonical, parse_object, serialize

EXAMPLE_JSON = '{"vertices":["1","2","3","4"],"edges":[["1","2","3"],["2","3","4"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_verb(capsys):
    code, out, _ = run(capsys, "chi", EXAMPLE_JSON, "--at", "-1", "--at", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "-5/6", "5/2", "-8/3", "1"]
    assert payload["evaluations"] == {"-1": "7", "2": "3"}


def test_chi_on_edgeless(capsys):
    code, out, _ = run(capsys, "chi", '{"vertices":["a","b","c"],"edges":[]}')
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "0", "0", "1"]


def test_eval_verb(capsys):
    code, out, _ = run(capsys, "eval", EXAMPLE_JSON, "--at", "-1")
    assert code == 0
    assert json.loads(out) == {"evaluations": {"-1": "7"}}


def test_orientations_verb(capsys):
    code, out, _ = run(capsys, "orientations", EXAMPLE_JSON, "--list")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 9 and payload["acyclic"] == 7
    assert len(payload["orientations"]) == 7


def test_orientations_count_streams(capsys):
    # without --list the 5,040 acyclic orientations of K_7 are counted,
    # not kept
    labels = [f"v{i}" for i in range(7)]
    edges = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
    k7 = json.dumps({"vertices": labels, "edges": edges})
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "orientations", k7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == '{"acyclic": 5040, "total": 2097152}\n'
    assert peak < 600_000


def test_orientations_pair_counts(capsys):
    edge = '{"vertices":["a","b"],"edges":[["a","b"]]}'
    code, out, _ = run(capsys, "orientations", edge, "--pairs", "2")
    assert code == 0
    assert json.loads(out)["compatible_pairs"] == {
        "colors": 2, "strict": False, "count": 6,
    }
    code, out, _ = run(capsys, "orientations", edge, "--pairs", "2", "--strict")
    assert json.loads(out)["compatible_pairs"]["count"] == 2


@pytest.mark.parametrize("options", [("--pairs", "-1"), ("--strict",), ("--list", "--strict")])
def test_orientations_rejects_strict_without_pairs_and_negative_pairs(capsys, options):
    edge = '{"vertices":["a","b"],"edges":[["a","b"]]}'
    code, out, err = run(capsys, "orientations", edge, *options)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_antipode_verb(capsys):
    code, out, _ = run(capsys, "antipode", '{"vertices":["a","b"],"edges":[["a","b"]]}')
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {(t["coefficient"], json.dumps(t["hypergraph"], sort_keys=True)) for t in terms} == {
        (1, '{"edges": [["a"]], "vertices": ["a", "b"]}'),
        (1, '{"edges": [["b"]], "vertices": ["a", "b"]}'),
        (-1, '{"edges": [["a", "b"]], "vertices": ["a", "b"]}'),
    }


def test_chromatic_verb(capsys):
    graph = '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"],["a","c"]]}'
    code, out, _ = run(capsys, "chromatic", graph, "--at", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "2", "-3", "1"]
    assert payload["evaluations"] == {"3": "6"}
    # non-pair edges are rejected
    code, _, err = run(capsys, "chromatic", EXAMPLE_JSON)
    assert code == 1 and "two vertices" in err


def test_skeletons_verb(capsys):
    bs = '{"vertices":["a","b"],"sets":[["a"],["b"],["a","b"]]}'
    code, out, _ = run(capsys, "skeletons", bs)
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_partition_verb(capsys):
    code, out, _ = run(capsys, "partition", '{"vertices":["a","b","c"],"parts":[["a","b"],["c"]]}')
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "0", "-1", "1"]


def test_path_verbs(capsys):
    fam = ('{"vertices":["a","b","c","d","e","f","g"],'
           '"paths":[["b","f","c","g"],["a","e","d"]]}')
    code, out, _ = run(capsys, "path", fam, "--coproduct", '["b","c","e"]')
    assert code == 0
    payload = json.loads(out)
    assert payload["restriction"]["display"] == "bc|e"
    assert payload["contraction"]["display"] == "f|g|a|d"
    code, out, _ = run(capsys, "path", '{"vertices":["a","b","c"],"paths":[["a","b","c"]]}',
                       "--at", "-1")
    assert code == 0
    assert json.loads(out)["evaluations"] == {"-1": "-5"}


def test_verify_default_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["checks"]


def test_verify_on_file(tmp_path, capsys):
    target = tmp_path / "h.json"
    target.write_text(EXAMPLE_JSON)
    code, out, _ = run(capsys, "--format", "text", "verify", str(target), "--max-n", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_with_random_instances(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--random", "2", "--seed", "5")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_many_colors_on_tiny_inputs(capsys):
    # the defining sum recurses over nonempty blocks, not over colours
    code, out, err = run(capsys, "verify", '{"vertices":[],"edges":[]}', "--max-n", "1500")
    assert code == 0 and err == ""
    assert json.loads(out)["failures"] == 0


@pytest.mark.parametrize("option, value", [("--max-n", "-1"), ("--random", "-2")])
def test_verify_rejects_negative_counts(capsys, option, value):
    code, out, err = run(capsys, "verify", option, value)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {option} expects a nonnegative") and err.count("\n") == 1


def test_verify_reports_disagreement_with_exit_2(capsys, monkeypatch):
    # simulate an internal bug: one counting route returns a wrong value
    import hyperchi.cli as cli

    monkeypatch.setattr(cli, "chi_eval_colorings", lambda h, n: -1)
    code, out, _ = run(capsys, "verify", "--max-n", "1")
    assert code == 2
    assert json.loads(out)["failures"] > 0


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "chi", '{"vertices":["a"],"edges":[[]]}')
    assert code == 1 and "empty" in err
    code, _, err = run(capsys, "chi", '{"vertices":["a"],"edges":[["b"]]}')
    assert code == 1 and "unknown" in err
    code, _, err = run(capsys, "chi", "/nonexistent/file.json")
    assert code == 1
    code, _, err = run(capsys, "chi", '{"vertices":["a"]}')
    assert code == 1 and "payload" in err
    code, _, err = run(capsys, "chi", " [1,2]")  # inline, not a file name
    assert code == 1 and err == "error: input must be a JSON object\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", '{"vertices":["a","b"],"parts":[["a","a"],["b"]]}'], "parts[0]"),
        (["skeletons", '{"vertices":["a","b"],"sets":[["a"],["b","b"]]}'], "sets[1]"),
        (["verify", '{"vertices":["a","b"],"faces":[["a","a"]]}'], "faces[0]"),
        (["path", '{"vertices":["a","b"],"paths":[["a","b","a"]]}'], "paths[0]"),
        (["path", '{"vertices":["a","b"],"paths":[["a","b"]]}', "--coproduct", '["a","a"]'],
         "--coproduct"),
    ],
    ids=["partition", "skeletons", "verify-complex", "path", "path-coproduct"],
)
def test_repeated_label_inside_an_array_is_invalid_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}: duplicate vertex labels\n"


# the verb that reads each payload key, and the noun its constructor uses
_KIND_VERBS = {"edges": "chi", "faces": "verify", "sets": "skeletons",
               "parts": "partition", "paths": "path"}
_FAULTS = {
    "non-string": ([["a", 1]], "{key}[0]: must be an array of strings"),
    "repeated": ([["a", "a"]], "{key}[0]: duplicate vertex labels"),
    "empty": ([[]], "{key} must be nonempty"),
    "unknown": ([["a", "c"]], "{noun} uses unknown vertices: ['c']"),
}


@pytest.mark.parametrize(
    "key, fault",
    [
        pytest.param(key, fault, id=f"{key}-{fault}")
        for key in _KIND_VERBS
        for fault in _FAULTS
        if (key, fault) != ("faces", "empty")  # a complex accepts the empty face
    ],
)
def test_one_message_per_fault_across_kinds(capsys, key, fault):
    members, message = _FAULTS[fault]
    doc = json.dumps({"vertices": ["a", "b"], key: members})
    code, out, err = run(capsys, _KIND_VERBS[key], doc)
    assert code == 1 and out == ""
    assert err == "error: " + message.format(key=key, noun=key[:-1]) + "\n"


@pytest.mark.parametrize("source", ["7", "null", "true", '"x"'])
def test_inline_json_that_is_not_an_object_is_invalid_input(capsys, source):
    code, out, err = run(capsys, "chi", source)
    assert code == 1 and out == ""
    assert err == "error: input must be a JSON object\n"


def test_inline_json_wins_over_a_file_of_the_same_name(tmp_path, capsys, monkeypatch):
    (tmp_path / "7").write_text(EXAMPLE_JSON)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "chi", "7")
    assert code == 1 and out == ""
    assert err == "error: input must be a JSON object\n"


def test_malformed_inline_json_is_invalid_input(capsys):
    code, out, err = run(capsys, "chi", '{"vertices":')
    assert code == 1 and out == ""
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_deeply_nested_json_is_invalid_input(capsys):
    deep = "[" * 100_000
    code, out, err = run(capsys, "chi", '{"vertices": ' + deep)
    assert code == 1 and out == ""
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
    family = '{"vertices":["a","b"],"paths":[["a","b"]]}'
    code, out, err = run(capsys, "path", family, "--coproduct", deep)
    assert code == 1 and out == ""
    assert err.startswith("error: --coproduct: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["orientations", r'{"vertices":["a","\ud800"],"edges":[["a","\ud800"]]}', "--list"],
        ["skeletons", r'{"vertices":["a","\ud800"],"sets":[["a"],["\ud800"],["a","\ud800"]]}',
         "--list"],
        ["path", r'{"vertices":["a","\ud800"],"paths":[["a","\ud800"]]}', "--coproduct", '["a"]'],
    ],
    ids=["orientations", "skeletons", "path"],
)
def test_lone_surrogate_label_is_invalid_input(capsys, argv):
    # a JSON \ud800 escape decodes to a lone surrogate, which UTF-8
    # cannot encode: refused before anything is printed
    code, out, err = run(capsys, "--format", "text", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Unicode" in err


@pytest.mark.parametrize(
    "argv",
    [["chi"], ["eval", EXAMPLE_JSON], ["colour", EXAMPLE_JSON]],
    ids=["missing-input", "missing-at", "unknown-verb"],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: hyperchi") and "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hyperchi")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_JSON))
    code, out, _ = run(capsys, "eval", "-", "--at", "2")
    assert code == 0
    assert json.loads(out) == {"evaluations": {"2": "3"}}


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "chi", EXAMPLE_JSON, "--at", "-1")
    _, second, _ = run(capsys, "chi", EXAMPLE_JSON, "--at", "-1")
    assert first == second
    _, first, _ = run(capsys, "verify", "--max-n", "1", "--random", "2", "--seed", "9")
    _, second, _ = run(capsys, "verify", "--max-n", "1", "--random", "2", "--seed", "9")
    assert first == second


def test_parse_serialize_roundtrip():
    docs = [
        json.loads(EXAMPLE_JSON),
        {"vertices": ["a", "b", "c"], "faces": [["a"], ["b"], ["c"], ["a", "b"]]},
        {"vertices": ["a", "b"], "sets": [["a"], ["b"], ["a", "b"]]},
        {"vertices": ["a", "b", "c"], "parts": [["a", "c"], ["b"]]},
        {"vertices": ["a", "b", "c"], "paths": [["b", "a"], ["c"]]},
    ]
    for doc in docs:
        obj = parse_object(doc)
        again = parse_object(serialize(obj))
        assert again == obj
        assert dumps_canonical(again) == dumps_canonical(obj)


def test_parse_object_detects_kind():
    with pytest.raises(SchemaError, match="payload"):
        parse_object({"vertices": ["a"]})
    with pytest.raises(SchemaError, match="ambiguous"):
        parse_object({"vertices": ["a"], "edges": [], "faces": []})
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_object("{not json")


def test_fractional_count_exits_2(capsys, monkeypatch):
    # simulate an internal bug: the polynomial takes a non-integer value,
    # so the exact reciprocal count cannot be formed
    import hyperchi.invariant as invariant
    from hyperchi import Polynomial

    monkeypatch.setattr(invariant, "chi_polynomial", lambda h: Polynomial([Fraction(1, 2)]))
    code, out, err = run(capsys, "verify", "--max-n", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1/2" in err
