"""The three workloads, built from the recorded universe and ``--seed``.

A workload is a *pass*: a fixed list of calls over every input of the
workload in reference.json, in an order drawn from ``--seed``; the seed
also relabels the hypergraphs of chi-ladder and pairs.  A run repeats
the pass; caches are cleared at the start of every pass, so every pass
does the same work.  Each call has an untimed ``prepare``,
the timed ``run`` and an untimed ``check`` of its output against the
reference recorded by record.py.

Why these three (each stresses a different layer, and each is idle where
another is busy):

  chi-ladder  closed form of chi, caches cleared per instance: the
              compositions and invariant layers; hypergraph is idle.
  pairs       compatible-pair counts and acyclic orientations: the
              orientations layer; the chi code is idle.
  cli-mix     many small CLI requests with repeats, ``verify`` among
              them: argparse, JSON and cache-hit overhead per request,
              and the restrict/contract and decomposition enumeration
              behind the defining sum.
"""

from __future__ import annotations

import json
import random
import string

import hyperchi.invariant as invariant
import hyperchi.orientations as orientations
import hyperchi.submonoids as submonoids
from hyperchi.hypergraph import Hypergraph
from hyperchi.submonoids import SimpleGraph

import common

LABEL_POOL = list(string.ascii_lowercase) + [f"x{i}" for i in range(10)]


class Call:
    __slots__ = ("label", "prepare", "run", "check")

    def __init__(self, label, run, check, prepare=None):
        self.label = label
        self.run = run
        self.check = check  # output -> None when correct, else a message
        self.prepare = prepare


class Workload:
    """One pass of calls, in an order drawn once from the seed.  Every
    pass of a run makes the same calls in the same order, so the call at
    a given position meets the same cache state in every pass.  The
    number of calls is odd, so that the median of the per-call latencies
    falls on one call.
    """

    def __init__(self, calls: list, rng: random.Random):
        if len(calls) % 2 == 0:
            raise ValueError("a pass needs an odd number of calls for a stable median")
        rng.shuffle(calls)
        self.calls = calls


def relabel(doc: dict, rng: random.Random) -> dict:
    """Same hypergraph under a random injective relabeling, with edges
    and the vertices inside each edge in random order."""
    old = doc["vertices"]
    mapping = dict(zip(old, rng.sample(LABEL_POOL, len(old))))
    vertices = [mapping[v] for v in old]
    rng.shuffle(vertices)
    edges = []
    for e in doc["edges"]:
        e = [mapping[v] for v in e]
        rng.shuffle(e)
        edges.append(e)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def _expect(expected):
    def check(output):
        return None if output == expected else f"got {output!r}, expected {expected!r}"
    return check


def _ladder_call(entry: dict, rng: random.Random, caches) -> Call:
    doc = relabel(entry["doc"], rng)
    label = f"{entry['id']} {json.dumps(doc)}"
    if entry["kind"] == "tubes":
        g = SimpleGraph(doc["vertices"], doc["edges"])

        def run():
            poly = submonoids.tubes_polynomial(g)
            h = submonoids.tubes(g).to_hypergraph()
            return poly.coefficient_strings(), invariant.chi_eval_negative(h, 1)
    else:
        h = Hypergraph(doc["vertices"], doc["edges"])

        def run():
            poly = invariant.chi_polynomial(h)
            return poly.coefficient_strings(), invariant.chi_eval_negative(h, 1)

    return Call(label, run, _expect((entry["chi"], entry["neg1"])), caches.clear)


def chi_ladder(ref: list, rng: random.Random, caches) -> Workload:
    calls = [_ladder_call(e, rng, caches) for e in ref]
    return Workload(calls, rng)


def _count_acyclic(h) -> int:
    return sum(1 for _ in orientations.acyclic_orientations(h))


def pairs(ref: list, rng: random.Random, caches) -> Workload:
    calls = []
    for entry in ref:
        doc = relabel(entry["doc"], rng)
        h = Hypergraph(doc["vertices"], doc["edges"])
        label = f"{entry['id']} {json.dumps(doc)}"
        expected = entry["expected"]
        calls.append(Call(f"acyclic {label}", lambda h=h: _count_acyclic(h),
                          _expect(expected["acyclic"])))
        for n in (3, 4):
            for strict in (True, False):
                run = (lambda h=h, n=n, s=strict:
                       orientations.count_compatible_pairs(h, n, strict=s))
                key = f"{n}s" if strict else f"{n}"
                calls.append(Call(f"pairs{key} {label}", run, _expect(expected[key])))
    return Workload(calls, rng)


def _cli_call(argv: list, expected_stdout) -> Call:
    """A CLI request expected to print ``expected_stdout`` (a JSON value)
    and exit 0, or, when it is None, to exit 1 with a one-line error."""
    if expected_stdout is not None:
        text = json.dumps(expected_stdout, sort_keys=True) + "\n"

        def check(output):
            code, out, err = output
            if code != 0 or err:
                return f"exit {code}: {err.strip()[:200]}"
            if out != text:
                return f"stdout {out[:200]!r} differs from {text[:200]!r}"
            return None
    else:
        def check(output):
            code, out, err = output
            if code != 1 or out:
                return f"exit {code}, expected 1"
            if not err.startswith("error: ") or "Traceback" in err:
                return f"not a one-line error: {err[:200]!r}"
            return None
    return Call(" ".join(argv), lambda: common.run_cli(argv), check)


CLI_DRAWS = 7  # times each valid request is sent per pass
CLI_INVALID_DRAWS = 3


def cli_mix(ref: dict, rng: random.Random, caches) -> Workload:
    """Every recorded request, sent CLI_DRAWS times (CLI_INVALID_DRAWS
    when invalid) in an order drawn from the seed."""
    calls = []
    for entry in ref["valid"]:
        calls += [_cli_call(entry["argv"], entry["stdout"])] * CLI_DRAWS
    for entry in ref["invalid"]:
        calls += [_cli_call(entry["argv"], None)] * CLI_INVALID_DRAWS
    return Workload(calls, rng)


BUILDERS = {
    "chi-ladder": chi_ladder,
    "pairs": pairs,
    "cli-mix": cli_mix,
}


def build(name: str, seed: int, caches: common.Caches) -> Workload:
    """The pass of workload ``name`` for ``seed``; ``caches`` is cleared
    before each chi-ladder instance."""
    with open(common.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return BUILDERS[name](ref[name], random.Random(f"{name}:{seed}"), caches)
