"""Record the benchmark's reference outputs: ``python3 bench/record.py``.

Runs the program once on every input of the universe in families.py and
writes reference.json.  Each output is validated as it is recorded, by
routes independent of the closed form: a brute-force count of colorings
with a unique maximal vertex per edge for small n, and the count of
acyclic orientations against (-1)^|V| chi(-1).  An output that fails
validation stops the recording.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import common
import families

common.import_package()

from hyperchi import Hypergraph, SimpleGraph  # noqa: E402
from hyperchi.invariant import chi_eval_negative, chi_polynomial  # noqa: E402
from hyperchi.orientations import acyclic_orientations, count_compatible_pairs  # noqa: E402
from hyperchi.submonoids import tubes, tubes_polynomial  # noqa: E402


COSTS: dict = {}
CACHES = common.Caches()


class ValidationError(AssertionError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise ValidationError(what)


def horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def brute_colorings(vertices, edges, n: int) -> int:
    """Maps vertices -> {1..n} under which every edge has a unique maximum."""
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    es = [[index[v] for v in e] for e in edges]
    count = 0
    for colors in product(range(n), repeat=len(vs)):
        for e in es:
            top = max(colors[i] for i in e)
            if sum(1 for i in e if colors[i] == top) != 1:
                break
        else:
            count += 1
    return count


def validate_polynomial(coeffs, vertices, edges, up_to: int = 2) -> None:
    """Monic of degree |V| and equal to the brute-force count for n <= up_to."""
    check(len(coeffs) == len(vertices) + 1 and coeffs[-1] == "1",
          "polynomial is not monic of degree |V|")
    for n in range(up_to + 1):
        check(horner(coeffs, n) == brute_colorings(vertices, edges, n),
              f"polynomial disagrees with the coloring count at n={n}")


def acyclic_count(h) -> int:
    return sum(1 for _ in acyclic_orientations(h))


def reciprocal(coeffs, n_vertices: int, n: int) -> Fraction:
    return (-1) ** n_vertices * horner(coeffs, -n)


def record_ladder(entry: dict) -> dict:
    doc = entry["doc"]
    CACHES.clear()
    if entry.get("kind") == "tubes":
        g = SimpleGraph(doc["vertices"], doc["edges"])
        poly = tubes_polynomial(g)
        h = tubes(g).to_hypergraph()
        own = families.tubes_of_path(len(doc["vertices"]))
        vertices, edges = own["vertices"], own["edges"]
    else:
        h = Hypergraph(doc["vertices"], doc["edges"])
        poly = chi_polynomial(h)
        vertices, edges = doc["vertices"], doc["edges"]
    coeffs = poly.coefficient_strings()
    neg1 = chi_eval_negative(h, 1)
    validate_polynomial(coeffs, vertices, edges, up_to=3)
    check(neg1 == acyclic_count(h) == reciprocal(coeffs, len(vertices), 1),
          "acyclic orientations disagree with (-1)^|V| chi(-1)")
    return {**entry, "chi": coeffs, "neg1": neg1}


def record_pairs(entry: dict) -> dict:
    doc = entry["doc"]
    CACHES.clear()
    h = Hypergraph(doc["vertices"], doc["edges"])
    coeffs = chi_polynomial(h).coefficient_strings()
    nv = len(doc["vertices"])
    validate_polynomial(coeffs, doc["vertices"], doc["edges"], up_to=3)
    expected = {"acyclic": acyclic_count(h)}
    check(expected["acyclic"] == reciprocal(coeffs, nv, 1),
          "acyclic orientations disagree with (-1)^|V| chi(-1)")
    for n in (3, 4):
        strict = count_compatible_pairs(h, n, strict=True)
        loose = count_compatible_pairs(h, n, strict=False)
        check(strict == horner(coeffs, n), f"strict pairs disagree with chi({n})")
        check(loose == reciprocal(coeffs, nv, n), f"pairs disagree with chi(-{n})")
        expected[f"{n}s"] = strict
        expected[f"{n}"] = loose
    check(expected["3s"] == brute_colorings(doc["vertices"], doc["edges"], 3),
          "strict pairs disagree with the coloring count at n=3")
    return {**entry, "chi": coeffs, "expected": expected}


def _hypergraph_of(doc):
    return Hypergraph(doc["vertices"], doc["edges"])


def _chi_coeffs(doc) -> list:
    return chi_polynomial(_hypergraph_of(doc)).coefficient_strings()


def validate_cli(verb: str, argv: list, out: dict) -> None:
    doc = json.loads(argv[1])
    vs = doc["vertices"]
    if verb in ("chi", "eval", "orientations", "antipode"):
        coeffs = _chi_coeffs(doc)
        validate_polynomial(coeffs, vs, doc["edges"])
    if verb == "chi":
        check(out["coefficients"] == coeffs, "coefficients differ from chi_polynomial")
        check(out["evaluations"]["-1"] == str(horner(coeffs, -1)), "value at -1")
        check(reciprocal(coeffs, len(vs), 1) == acyclic_count(_hypergraph_of(doc)),
              "acyclic orientations disagree with (-1)^|V| chi(-1)")
    elif verb == "eval":
        check(out["evaluations"]["2"] == str(brute_colorings(vs, doc["edges"], 2)),
              "value at 2 disagrees with the coloring count")
        check(out["evaluations"]["-2"] == str(horner(coeffs, -2)), "value at -2")
    elif verb == "orientations":
        total = 1
        for e in doc["edges"]:
            total *= len(set(e))
        check(out["total"] == total, "orientation total")
        check(out["acyclic"] == reciprocal(coeffs, len(vs), 1),
              "acyclic orientations disagree with (-1)^|V| chi(-1)")
        check(out["compatible_pairs"]["count"] == reciprocal(coeffs, len(vs), 3),
              "compatible pairs disagree with (-1)^|V| chi(-3)")
    elif verb == "antipode":
        for n in (1, 2):
            total = sum(t["coefficient"] * brute_colorings(
                t["hypergraph"]["vertices"], t["hypergraph"]["edges"], n)
                for t in out["terms"])
            check(total == horner(coeffs, -n), f"antipode route disagrees at n={n}")
    elif verb in ("chromatic", "partition", "path"):
        if verb == "chromatic":
            edges = doc["edges"]
        elif verb == "partition":
            edges = [[u, w] for p in doc["parts"] for i, u in enumerate(p) for w in p[i + 1:]]
        else:
            drawn = [[p[i], p[i + 1]] for p in doc["paths"] for i in range(len(p) - 1)]
            edges = families._tubes_sets(vs, drawn)
        validate_polynomial(out["coefficients"], vs, edges)
        for point, value in out["evaluations"].items():
            check(value == str(horner(out["coefficients"], int(point))), f"value at {point}")
    elif verb == "path-coproduct":
        block = set(json.loads(argv[3]))
        check(set(out["restriction"]["vertices"]) == block, "restriction vertex set")
        check(set(out["contraction"]["vertices"]) == set(vs) - block,
              "contraction vertex set")
    elif verb == "skeletons":
        hyp = {"vertices": vs, "edges": doc["sets"]}
        coeffs = _chi_coeffs(hyp)
        validate_polynomial(coeffs, vs, doc["sets"])
        check(out["count"] == len(out["skeletons"]) == acyclic_count(_hypergraph_of(hyp))
              == reciprocal(coeffs, len(vs), 1),
              "skeleton count disagrees with (-1)^|V| chi(-1)")


def record_cli(verb: str, argv: list) -> dict:
    CACHES.clear()
    started = time.perf_counter()
    code, out, err = common.run_cli(argv)
    COSTS.setdefault(verb, []).append(time.perf_counter() - started)
    check(code == 0 and not err, f"{argv[:1]} exited {code}: {err.strip()}")
    payload = json.loads(out)
    check(json.dumps(payload, sort_keys=True) + "\n" == out,
          "stdout is not the sorted JSON dump the benchmark rebuilds")
    if verb == "verify":
        check(payload["failures"] == 0 and all(c["passed"] for c in payload["checks"]),
              "verify reported a failed check")
        doc = json.loads(argv[1])
        validate_polynomial(_chi_coeffs(doc), doc["vertices"], doc["edges"])
    else:
        validate_cli(verb, argv, payload)
    return {"argv": argv, "exit": 0, "stdout": payload}


def record_invalid(argv: list) -> dict:
    code, out, err = common.run_cli(argv)
    check(code == 1 and not out, f"{argv} exited {code}")
    check(err.startswith("error: ") and "Traceback" not in err, f"{argv} printed {err!r}")
    return {"argv": argv, "exit": 1}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    uni = families.universe()
    cli = uni["cli-mix"]
    verbs = [verb for verb in families.CLI_VERBS for _ in range(families.CLI_PER_VERB)]
    ref = {
        "meta": {
            "commit": _commit(),
            "python": platform.python_version(),
            "universe_seed": families.UNIVERSE_SEED,
        },
        "chi-ladder": [record_ladder(e) for e in uni["chi-ladder"]],
        "pairs": [record_pairs(e) for e in uni["pairs"]],
        "cli-mix": {
            "valid": [{"verb": verb, **record_cli(verb, argv)}
                      for verb, argv in zip(verbs, cli["valid"])],
            "invalid": [record_invalid(argv) for argv in cli["invalid"]],
        },
    }
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    common.REFERENCE.write_text(text, encoding="utf-8")
    for verb, costs in sorted(COSTS.items()):
        costs = sorted(costs)
        print(f"{verb:15s} cold cost ms: " + " ".join(f"{1000 * c:.0f}" for c in costs),
              file=sys.stderr)
    print(f"wrote {common.REFERENCE} ({len(text)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
