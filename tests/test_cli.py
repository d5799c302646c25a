import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from conftest import building_sets, small_hypergraphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperchi import BuildingSet, Hypergraph, Polynomial, SimpleGraph, tubes
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


def test_orientations_counts_k8_without_walking(capsys):
    labels = [f"v{i}" for i in range(8)]
    edges = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
    code, out, _ = run(capsys, "orientations", json.dumps({"vertices": labels, "edges": edges}))
    assert code == 0
    assert '"acyclic": 40320' in out


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs())
@example(Hypergraph(()))
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
def test_orientations_count_matches_listing(h):
    # the count comes from the one-colour pair count, the list from the walk
    def payload(*options):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["orientations", json.dumps(serialize(h)), *options]) == 0
        return json.loads(out.getvalue())

    listed = payload("--list")
    assert payload()["acyclic"] == listed["acyclic"] == len(listed["orientations"]), h


@pytest.mark.parametrize("listed", [(), ("--list",)], ids=["count", "list"])
def test_orientations_pair_counts_at_a_billion_colours(capsys, listed):
    # K_3: n(n-1)(n-2) strictly compatible pairs, n(n+1)(n+2) compatible
    n = 10**9
    k3 = '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"],["a","c"]]}'
    for strict, expected in [((), 6 * comb(n + 2, 3)), (("--strict",), 6 * comb(n, 3))]:
        code, out, _ = run(capsys, "orientations", k3, "--pairs", str(n), *strict, *listed)
        payload = json.loads(out)
        assert code == 0 and payload["acyclic"] == 6 and payload["total"] == 8
        assert payload["compatible_pairs"] == {"colors": n, "strict": bool(strict),
                                               "count": expected}


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


def test_skeletons_count_streams(capsys):
    # without --list the 40,320 skeletons of tubes(K_8) are counted as
    # acyclic orientations, not built
    labels = [f"v{i}" for i in range(8)]
    b = tubes(SimpleGraph(labels, combinations(labels, 2)))
    doc = json.dumps({"vertices": labels, "sets": [sorted(s) for s in b.sets]})
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "skeletons", doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == '{"count": 40320}\n'
    assert peak < 2_000_000


@settings(max_examples=100, deadline=None)
@given(building_sets())
@example(BuildingSet("a", [("a",)]))
def test_skeletons_count_matches_listing(b):
    def payload(*options):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["skeletons", json.dumps(serialize(b)), *options]) == 0
        return json.loads(out.getvalue())

    listed = payload("--list")
    assert payload()["count"] == listed["count"] == len(listed["skeletons"]), b


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


def test_verify_path_line_fails_when_the_path_invariant_is_wrong(capsys, monkeypatch):
    import hyperchi.submonoids as submonoids

    right = submonoids.building_polynomial
    monkeypatch.setattr(submonoids, "building_polynomial", lambda b: right(b) + Polynomial.ONE)
    family = '{"vertices":["a","b","c","d"],"paths":[["a","b","c"],["d"]]}'
    code, out, _ = run(capsys, "verify", family)
    assert code == 2
    checks = json.loads(out)["checks"]
    line = [c for c in checks if c["identity"] == "path family invariant matches its drawn graph"]
    assert len(line) == 1 and not line[0]["passed"]


def test_verify_strict_line_fails_when_the_strict_level_counts_are_wrong(capsys, monkeypatch):
    # the strict pair count is checked against the defining sum, so a fault
    # in the strict branch of _level_counts shows at every n that reaches it
    import hyperchi.orientations as orientations

    right = orientations._level_counts

    def wrong(edges, width, n, strict):
        levels = right(edges, width, n, strict)
        if strict and len(levels) > 1:
            levels[1] += 1  # n more at every n
        return levels

    monkeypatch.setattr(orientations, "_level_counts", wrong)
    code, out, _ = run(capsys, "--format", "text", "verify", "--max-n", "2")
    assert code == 2
    lines = out.splitlines()
    assert "PASS corpus[0]: strict pairs = polynomial at n=0" in lines
    for n in (1, 2):
        assert f"FAIL corpus[0]: strict pairs = polynomial at n={n}" in lines


TWO_PIECES = '{"vertices":["a","b","c","d"],"edges":[["a","b"],["c","d"]]}'


@pytest.mark.parametrize(
    "fault, source",
    [
        (lambda pieces, uncovered: (pieces, 0), None),  # corpus[1] has 3 isolated
        (lambda pieces, uncovered: (pieces[1:], uncovered), TWO_PIECES),
    ],
    ids=["no_factor_for_uncovered", "one_piece_dropped"],
)
def test_verify_strict_line_fails_when_the_pair_split_is_wrong(capsys, monkeypatch,
                                                                fault, source):
    # the pair counts multiply over the pieces, the defining sum does not
    # split, so the strict line sees a lost factor or piece
    import hyperchi.orientations as orientations

    right = orientations._pieces
    monkeypatch.setattr(orientations, "_pieces", lambda edges, width: fault(*right(edges, width)))
    argv = ["verify", "--max-n", "2"] + ([source] if source else [])
    code, out, _ = run(capsys, "--format", "text", *argv)
    assert code == 2
    name = source or "corpus[1]"
    assert f"FAIL {name}: strict pairs = polynomial at n=2" in out.splitlines()


def test_inline_input_that_reads_as_an_option_gets_a_hint(capsys):
    code, out, err = run(capsys, "chi", "-1e5")
    assert code == 1 and out == ""
    assert "-1e5 was read as an option" in err and "hyperchi chi -- -1e5" in err
    # after -- it is the input, a JSON number and so not an object
    code, out, err = run(capsys, "chi", "--", "-1e5")
    assert code == 1 and out == "" and err == "error: input must be a JSON object\n"
    # no hint without a stray token: -2 is the value of --at
    for argv in (["chi"], ["chi", "--at", "-2"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "required: input" in err and "read as an option" not in err


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
    [
        ["chi"],
        ["eval", EXAMPLE_JSON],
        ["colour", EXAMPLE_JSON],
        ["path", '{"vertices":["a","b"],"paths":[["a","b"]]}', "--coproduct", '["a"]',
         "--at", "1"],
    ],
    ids=["missing-input", "missing-at", "unknown-verb", "path-coproduct-with-at"],
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


_FUZZ_OPTIONS = {
    "chi": [("--at", "-1"), ("--at", "2"), ("--at", "x")],
    "eval": [("--at", "-2")],
    "orientations": [("--list",), ("--pairs", "2"), ("--pairs", "-1"), ("--strict",),
                     ("--pairs", "1000000000")],
    "antipode": [],
    "chromatic": [("--at", "3")],
    "skeletons": [("--list",)],
    "partition": [("--at", "-1")],
    "path": [("--at", "1"), ("--coproduct", '["a"]'), ("--coproduct", '["z"]'),
             ("--coproduct", "[1]"), ("--coproduct", "{")],
    "verify": [("--max-n", "1"), ("--max-n", "-1"), ("--random", "1"), ("--seed", "3")],
}
_FUZZ_KINDS = {"chi": "edges", "eval": "edges", "orientations": "edges",
               "antipode": "edges", "chromatic": "edges", "skeletons": "sets",
               "partition": "parts", "path": "paths"}
_FUZZ_KEYS = ("vertices", "edges", "faces", "sets", "parts", "paths", "colour")
_FUZZ_LABELS = ("a", "b", "c", "é", "字", "", "\ud800")
_fuzz_leaves = st.sampled_from([*_FUZZ_LABELS, 1, 2.5, None, True])
_fuzz_values = st.recursive(_fuzz_leaves, lambda inner: st.lists(inner, max_size=3),
                            max_leaves=8)


@st.composite
def _fuzz_requests(draw):
    """A verb, a small payload and options.  One draw in four takes a
    fault: labels "" or a lone surrogate, repeated labels, junk for a
    key, a stray or second key, no vertex list, or a bare value.  The
    rest build the verb's key to pass the checks."""
    def fault():
        return draw(st.sampled_from((False, False, False, True)))

    verb = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    pool = _FUZZ_LABELS if fault() else _FUZZ_LABELS[:5]
    vertices = draw(st.lists(st.sampled_from(pool), max_size=4, unique=not fault()))
    cuts = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    blocks = []
    for v, cut in zip(vertices, cuts):
        if cut or not blocks:
            blocks.append([])
        blocks[-1].append(v)
    pick = st.sampled_from(vertices or ["a"])
    built = {
        "edges": st.lists(st.lists(pick, min_size=1, max_size=3, unique=True), max_size=3)
        | st.lists(st.lists(pick, min_size=2, max_size=2), max_size=3),
        "faces": st.just([[v] for v in vertices]),
        "sets": st.just([[v] for v in vertices] + [vertices] * (len(vertices) > 1)),
        "parts": st.just(blocks),
        "paths": st.just(blocks),
    }
    if fault() and fault():
        payload = draw(_fuzz_values)
    else:
        payload = {} if fault() else {"vertices": vertices}
        keys = [_FUZZ_KINDS.get(verb) or draw(st.sampled_from(sorted(built)))]
        if fault():
            keys.append(draw(st.sampled_from(_FUZZ_KEYS)))
        for key in keys:
            payload[key] = draw(_fuzz_values if fault() or key not in built else built[key])
    text = json.dumps(payload, ensure_ascii=draw(st.booleans()))
    choices = _FUZZ_OPTIONS[verb]
    options = draw(st.lists(st.sampled_from(choices), max_size=2)) if choices else []
    if verb == "eval" and not fault():
        options.append(("--at", "0"))
    if fault():
        options.append(("--bogus",))
    head = draw(st.sampled_from([[], ["--format", "text"]]))
    return [*head, verb, text, *(a for option in options for a in option)]


@settings(max_examples=100, deadline=None)
@given(_fuzz_requests())
def test_cli_fuzz_exits_0_or_1_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1 and not err.getvalue().startswith("usage: hyperchi"):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
