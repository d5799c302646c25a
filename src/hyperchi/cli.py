"""Command-line front end.

Verbs:

  chi           exact invariant polynomial of a hypergraph (+ evaluations)
  eval          evaluations only
  orientations  total and acyclic orientation counts
  antipode      the alternating-sum antipode as (coefficient, hypergraph) pairs
  chromatic     chromatic polynomial of a simple graph
  skeletons     skeleton count (and list) of a building set
  partition     closed-form invariant of a set partition
  path          invariant of a path family; optional coproduct split
  verify        cross-method agreement checks; exit 2 on any disagreement

Inputs are JSON objects, read by one rule: ``-`` is stdin, text that
decodes as JSON is inline (so ``7`` or ``null`` is refused as not an
object, and inline JSON wins over a file of the same name), text that
starts with ``{`` or ``[`` but does not decode is invalid JSON, and
anything else is a file path.  ``jsonio`` does all the checking.
Output is JSON by default (``--format text`` for prose).  Exit codes:
0 success, 1 invalid input or command-line usage, 2 verification
mismatch or an internal arithmetic error (an exact count that came out
fractional).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb

from .hypergraph import Hypergraph, antipode
from .invariant import (
    chi_eval_colorings,
    chi_eval_definition,
    chi_eval_negative,
    chi_on_formal_sum,
    chi_polynomial,
)
from .jsonio import SchemaError, as_graph, labels, load_json, parse_object, serialize
from .orientations import acyclic_orientations, count_compatible_pairs, orientation_count
from .polynomial import Polynomial
from .submonoids import (
    BuildingSet,
    PathFamily,
    SetPartition,
    SimplicialComplex,
    chromatic_polynomial,
    partition_polynomial,
    path_coproduct,
    path_polynomial,
    path_to_graph,
    skeleton_orientation,
    skeletons,
    tubes,
)


def _load(source: str):
    # the rule of the module docstring; text starting with { or [ is not
    # decoded here, so parse_object decodes it once or says why it cannot
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")) or _decodes(source):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_object(text)


def _decodes(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:  # json.JSONDecodeError
        return False
    return True


def _expect(obj, cls, what: str):
    if not isinstance(obj, cls):
        raise SchemaError(f"expected {what}, got a {type(obj).__name__}")
    return obj


def _emit(payload: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _poly_payload(poly: Polynomial, points) -> dict:
    payload = {
        "coefficients": poly.coefficient_strings(),
        "degree": poly.degree,
        "polynomial": str(poly),
    }
    if points:
        payload["evaluations"] = {str(p): str(poly(p)) for p in points}
    return payload


def _poly_text(poly: Polynomial, points) -> list:
    lines = [
        f"polynomial: {poly}",
        "coefficients (ascending): " + ", ".join(poly.coefficient_strings() or ["0"]),
    ]
    for p in points or ():
        lines.append(f"value at {p}: {poly(p)}")
    return lines


def _cmd_chi(args) -> int:
    h = _expect(_load(args.input), Hypergraph, "a hypergraph ('edges')")
    poly = chi_polynomial(h)
    _emit(_poly_payload(poly, args.at), args, _poly_text(poly, args.at))
    return 0


def _cmd_eval(args) -> int:
    h = _expect(_load(args.input), Hypergraph, "a hypergraph ('edges')")
    poly = chi_polynomial(h)
    payload = {"evaluations": {str(p): str(poly(p)) for p in args.at}}
    _emit(payload, args, [f"value at {p}: {poly(p)}" for p in args.at])
    return 0


def _cmd_orientations(args) -> int:
    h = _expect(_load(args.input), Hypergraph, "a hypergraph ('edges')")
    if args.pairs is None and args.strict:
        raise SchemaError("--strict needs --pairs N")
    if args.pairs is not None and args.pairs < 0:
        raise SchemaError("--pairs expects a nonnegative number of colors")
    if args.list:
        acyclic = list(acyclic_orientations(h))
        n_acyclic = len(acyclic)
    else:
        # with one colour every acyclic orientation is compatible with the
        # constant colouring, so the pair count counts them without a walk
        n_acyclic = count_compatible_pairs(h, 1)
    payload = {"total": orientation_count(h), "acyclic": n_acyclic}
    lines = [f"orientations: {payload['total']}", f"acyclic: {payload['acyclic']}"]
    if args.pairs is not None:
        count = count_compatible_pairs(h, args.pairs, strict=args.strict)
        payload["compatible_pairs"] = {
            "colors": args.pairs,
            "strict": args.strict,
            "count": count,
        }
        kind = "strictly compatible" if args.strict else "compatible"
        lines.append(f"{kind} pairs with {args.pairs} colors: {count}")
    if args.list:
        payload["orientations"] = [list(f) for f in acyclic]
        lines += ["  " + " ".join(f) for f in acyclic]
    _emit(payload, args, lines)
    return 0


def _cmd_antipode(args) -> int:
    h = _expect(_load(args.input), Hypergraph, "a hypergraph ('edges')")
    terms = [
        {"coefficient": c, "hypergraph": serialize(t)} for c, t in antipode(h)
    ]
    lines = [f"{t['coefficient']:+d} * {json.dumps(t['hypergraph'], sort_keys=True)}"
             for t in terms]
    _emit({"terms": terms}, args, lines or ["0"])
    return 0


def _cmd_chromatic(args) -> int:
    g = as_graph(_load(args.input))
    poly = chromatic_polynomial(g)
    _emit(_poly_payload(poly, args.at), args, _poly_text(poly, args.at))
    return 0


def _serialize_forest(forest) -> list:
    return [
        {"root": t.root, "edges": [[p, c] for c, p in t._items]}
        for t in forest.trees
    ]


def _cmd_skeletons(args) -> int:
    b = _expect(_load(args.input), BuildingSet, "a building set ('sets')")
    if args.list:
        forests = list(skeletons(b))
        count = len(forests)
    else:
        # skeletons biject with acyclic orientations, which the one-colour
        # pair count counts without building a forest
        count = count_compatible_pairs(b.to_hypergraph(), 1)
    payload = {"count": count}
    lines = [f"skeletons: {count}"]
    if args.list:
        payload["skeletons"] = [_serialize_forest(f) for f in forests]
        lines += ["  " + repr(f) for f in forests]
    _emit(payload, args, lines)
    return 0


def _cmd_partition(args) -> int:
    pi = _expect(_load(args.input), SetPartition, "a partition ('parts')")
    poly = partition_polynomial(pi)
    _emit(_poly_payload(poly, args.at), args, _poly_text(poly, args.at))
    return 0


def _cmd_path(args) -> int:
    alpha = _expect(_load(args.input), PathFamily, "a path family ('paths')")
    if args.coproduct is not None:
        try:
            block = load_json(args.coproduct)
        except SchemaError as exc:
            raise SchemaError(f"--coproduct: {exc}") from None
        left, right = path_coproduct(alpha, labels(block, "--coproduct"))
        payload = {
            "restriction": {"display": str(left), **serialize(left)},
            "contraction": {"display": str(right), **serialize(right)},
        }
        _emit(payload, args, [f"{left} (x) {right}"])
        return 0
    poly = path_polynomial(alpha)
    _emit(_poly_payload(poly, args.at), args, _poly_text(poly, args.at))
    return 0


# ---------------------------------------------------------------------------
# verify

_CORPUS = [
    {"vertices": ["1", "2", "3", "4"], "edges": [["1", "2", "3"], ["2", "3", "4"]]},
    {"vertices": ["a", "b", "c"], "edges": []},
    {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]},
    {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
    {"vertices": ["a", "b", "c"], "faces": [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"]]},
    {"vertices": ["a", "b", "c"],
     "sets": [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]},
    {"vertices": ["a", "b", "c"], "parts": [["a", "b"], ["c"]]},
    {"vertices": ["a", "b", "c", "d"], "paths": [["a", "b", "c"], ["d"]]},
]


def _check_hypergraph(h: Hypergraph, max_n: int, record) -> None:
    poly = chi_polynomial(h)
    record(
        "polynomial is monic of degree |vertices|",
        poly.degree == len(h.vertices) and poly.leading_coefficient == 1,
    )
    for n in range(max_n + 1):
        d = chi_eval_definition(h, n)
        c = chi_eval_colorings(h, n)
        p = poly(n)
        record(f"definition = colorings = polynomial at n={n}", d == c == p)
        record(
            f"strict pairs = polynomial at n={n}",
            count_compatible_pairs(h, n, strict=True) == d,
        )
        record(
            f"compatible pairs = reciprocal value at n={n}",
            count_compatible_pairs(h, n, strict=False) == chi_eval_negative(h, n),
        )
    if len(h.vertices) <= 6:
        s = antipode(h)
        for n in range(max_n + 1):
            record(
                f"antipode route matches chi(-n) at n={n}",
                poly(-n) == chi_on_formal_sum(s, n),
            )


def _check_object(obj, max_n: int, record) -> None:
    if isinstance(obj, Hypergraph):
        _check_hypergraph(obj, max_n, record)
    elif isinstance(obj, SimplicialComplex):
        record(
            "complex invariant equals chromatic of 1-skeleton",
            chi_polynomial(obj.to_hypergraph())
            == chromatic_polynomial(obj.skeleton_1()),
        )
    elif isinstance(obj, BuildingSet):
        forests = list(skeletons(obj))
        hg = obj.to_hypergraph()
        record(
            "skeleton count equals reciprocal value at 1",
            len(forests) == chi_eval_negative(hg, 1),
        )
        images = {skeleton_orientation(obj, f) for f in forests}
        record(
            "skeletons biject with acyclic orientations",
            len(images) == len(forests) and images == set(acyclic_orientations(hg)),
        )
    elif isinstance(obj, SetPartition):
        record(
            "partition closed form equals generic invariant",
            partition_polynomial(obj)
            == chi_polynomial(obj.cliquey_graph().to_hypergraph()),
        )
    elif isinstance(obj, PathFamily):
        # the defining sum on the drawn graph's tubes, at the |V|+1 points
        # that fix a polynomial of degree |V|
        poly = path_polynomial(obj)
        tube_h = tubes(path_to_graph(obj)).to_hypergraph()
        record(
            "path family invariant matches its drawn graph",
            all(poly(n) == chi_eval_definition(tube_h, n)
                for n in range(len(obj.vertices) + 1)),
        )
        for p in obj.paths:
            k = len(p)
            catalan = comb(2 * k, k) // (k + 1)
            single = PathFamily(p, [p])
            record(
                f"single path on {k} vertices hits the Catalan number at -1",
                (-1) ** k * path_polynomial(single)(-1) == catalan,
            )


def _random_hypergraph(rng: random.Random, n_vertices: int, max_edges: int) -> Hypergraph:
    labels = [f"v{i}" for i in range(1, n_vertices + 1)]
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        size = rng.randint(1, n_vertices)
        edges.append(rng.sample(labels, size))
    return Hypergraph(labels, edges)


def _cmd_verify(args) -> int:
    if args.max_n < 0:
        raise SchemaError("--max-n expects a nonnegative number of colors")
    if args.random < 0:
        raise SchemaError("--random expects a nonnegative number of instances")
    sources = args.inputs or []
    objects = []
    if sources:
        for src in sources:
            objects.append((src, _load(src)))
    else:
        for i, doc in enumerate(_CORPUS):
            objects.append((f"corpus[{i}]", parse_object(doc)))
    rng = random.Random(args.seed)
    for i in range(args.random):
        objects.append((f"random[{i}]", _random_hypergraph(rng, 5, 4)))

    checks = []
    for name, obj in objects:
        def record(identity: str, passed: bool, name=name):
            checks.append({"input": name, "identity": identity, "passed": bool(passed)})

        _check_object(obj, args.max_n, record)
    failures = sum(1 for c in checks if not c["passed"])

    if args.format == "json":
        print(json.dumps({"checks": checks, "failures": failures}, sort_keys=True))
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"{status} {c['input']}: {c['identity']}")
        print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """argparse, with a hint when the input looks missing because it starts
    with '-': inline ``-1e5`` reads as an unknown option, not as a number."""

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # a token argparse reads as an option that no option is named by;
        # tokens that read as negative numbers are arguments, like -2 in --at -2
        if message.endswith("required: input"):
            stray = [t for t in self._tokens if t.startswith("-") and t not in ("-", "--")
                     and t not in self._option_string_actions
                     and not self._negative_number_matcher.match(t)]
            if stray:
                message += (f" ({stray[0]} was read as an option; to pass it as"
                            f" the input, write: {self.prog} -- {stray[0]})")
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperchi",
        description="Exact coloring invariants of hypergraphs and friends.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="JSON file, '-' for stdin, or inline JSON")
        p.set_defaults(func=fn)
        return p

    p = add("chi", _cmd_chi, "invariant polynomial of a hypergraph")
    p.add_argument("--at", type=int, action="append", default=[],
                   help="also evaluate at this integer (repeatable)")

    p = add("eval", _cmd_eval, "evaluate the invariant at integer points")
    p.add_argument("--at", type=int, action="append", required=True)

    p = add("orientations", _cmd_orientations, "orientation counts")
    p.add_argument("--list", action="store_true", help="list acyclic orientations")
    p.add_argument("--pairs", type=int, metavar="N",
                   help="also count (acyclic orientation, coloring) pairs with N colors")
    p.add_argument("--strict", action="store_true",
                   help="count strictly compatible pairs (with --pairs)")

    add("antipode", _cmd_antipode, "alternating-sum antipode")

    p = add("chromatic", _cmd_chromatic, "chromatic polynomial of a simple graph")
    p.add_argument("--at", type=int, action="append", default=[])

    p = add("skeletons", _cmd_skeletons, "skeletons of a building set")
    p.add_argument("--list", action="store_true", help="list the skeleton forests")

    p = add("partition", _cmd_partition, "closed-form invariant of a set partition")
    p.add_argument("--at", type=int, action="append", default=[])

    p = add("path", _cmd_path, "invariant of a path family")
    # the coproduct prints no polynomial, so there is nothing to evaluate
    either = p.add_mutually_exclusive_group()
    either.add_argument("--at", type=int, action="append", default=[])
    either.add_argument("--coproduct", metavar="BLOCK",
                        help="JSON array of labels: print the split along (BLOCK, rest)")

    p = sub.add_parser("verify", help="cross-method agreement checks")
    p.add_argument("inputs", nargs="*", help="JSON files (default: built-in corpus)")
    p.add_argument("--max-n", type=int, default=3, dest="max_n",
                   help="check evaluations for 0 <= n <= MAX_N (default 3)")
    p.add_argument("--random", type=int, default=0,
                   help="also check this many random 5-vertex hypergraphs")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random instance generation")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but 2 is
        # reserved for disagreements: a usage error is invalid input
        if exc.code == 0:
            raise
        return 1
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # an exact count came out fractional: the routes disagree
        print(f"error: internal arithmetic error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
