"""Instance families and the fixed request universe of the benchmark.

Everything here is plain JSON-ready data built from a fixed seed, so the
universe is the same on every machine.  ``record.py`` runs the program
on it once and commits the outputs to ``reference.json``.  A benchmark
run uses every input of its workload, reordered (and, outside cli-mix,
relabeled) by its own ``--seed``: the isomorphism classes, and so the
work, stay fixed.
"""

from __future__ import annotations

import json
import random

# Seed of the universe itself.  Changing it changes reference.json.
UNIVERSE_SEED = 20261017


def labels(k: int) -> list:
    return [f"v{i}" for i in range(1, k + 1)]


def hyper(vertices, edges) -> dict:
    return {"vertices": list(vertices), "edges": [list(e) for e in edges]}


def path(k: int) -> dict:
    vs = labels(k)
    return hyper(vs, [vs[i:i + 2] for i in range(k - 1)])


def cycle3(k: int) -> dict:
    """Cyclic 3-uniform hypergraph C3_k: edges {i, i+1, i+2} mod k."""
    vs = labels(k)
    return hyper(vs, [[vs[i], vs[(i + 1) % k], vs[(i + 2) % k]] for i in range(k)])


def complete(k: int, isolated: int = 0) -> dict:
    vs = labels(k + isolated)
    return hyper(vs, [[vs[i], vs[j]] for i in range(k) for j in range(i + 1, k)])


def tubes_of_path(k: int) -> dict:
    """Hypergraph of the tubes of P_k: every run of consecutive vertices."""
    vs = labels(k)
    return hyper(vs, [vs[i:j] for i in range(k) for j in range(i + 1, k + 1)])


def random_uniform(rng: random.Random, n_vertices: int, n_edges: int,
                   sizes=(2, 3), repeated: bool = True) -> dict:
    """Random hypergraph with edge sizes drawn from ``sizes``; with
    ``repeated`` the last edge repeats an earlier one."""
    vs = labels(n_vertices)
    fresh = n_edges - 1 if repeated else n_edges
    edges = [sorted(rng.sample(vs, rng.choice(sizes))) for _ in range(fresh)]
    if repeated:
        edges.append(list(rng.choice(edges)))
    return hyper(vs, edges)


def _randoms(rng, specs, copies, sizes, repeated):
    return [random_uniform(rng, nv, ne, sizes, repeated)
            for nv, ne in specs for _ in range(copies)]


# chi-ladder: the closed form on families a one-shot user computes.
LADDER_FIXED = [
    ("P5", "hypergraph", path(5)),
    ("P6", "hypergraph", path(6)),
    ("P7", "hypergraph", path(7)),
    ("C3_5", "hypergraph", cycle3(5)),
    ("C3_6", "hypergraph", cycle3(6)),
    ("C3_7", "hypergraph", cycle3(7)),
    ("K4+K1", "hypergraph", complete(4, isolated=1)),
    ("K5", "hypergraph", complete(5)),
    ("tubes(P4)", "tubes", path(4)),
    ("tubes(P5)", "tubes", path(5)),
]
# (vertices, edges) of the random 2-3-uniform instances, five of each.
# They are cheap and many, so the median call falls among them; with the
# fixed families a pass has 55 calls, an odd number, so that its median
# falls on one call rather than between two.
LADDER_RANDOM = [(5, 4), (5, 5), (5, 6), (6, 4), (6, 5), (6, 6), (7, 4), (7, 5), (7, 6)]

# pairs: reciprocity counts on 6-7-vertex many-edge hypergraphs.
PAIRS_FIXED = [
    ("C3_6", cycle3(6)),
    ("C3_7", cycle3(7)),
    ("tubes(P5)", tubes_of_path(5)),
]
PAIRS_RANDOM = [(6, 6), (6, 7), (6, 8), (7, 6)]

def universe() -> dict:
    """Every input of every workload, with the vertex labels a run replaces."""
    rng = random.Random(UNIVERSE_SEED)
    ladder = [{"id": i, "kind": k, "doc": d} for i, k, d in LADDER_FIXED]
    ladder += [{"id": f"random{len(d['vertices'])}v{len(d['edges'])}e",
                "kind": "hypergraph", "doc": d}
               for d in _randoms(rng, LADDER_RANDOM, 5, (2, 3), True)]
    pairs = [{"id": i, "doc": d} for i, d in PAIRS_FIXED]
    pairs += [{"id": f"random{len(d['vertices'])}v{len(d['edges'])}e", "doc": d}
              for d in _randoms(rng, PAIRS_RANDOM, 1, (2, 3, 4), False)]
    return {
        "chi-ladder": ladder,
        "pairs": pairs,
        "cli-mix": {
            "valid": [_cli_request(rng, verb) for verb in CLI_VERBS
                      for _ in range(CLI_PER_VERB)],
            "invalid": CLI_INVALID,
        },
    }


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# cli-mix: small requests over every verb, labeled with single letters.
# Sizes are capped so that no request costs more than a few milliseconds
# cold: the workload measures per-request overhead, not compute.
CLI_VERBS = ("chi", "eval", "orientations", "antipode", "chromatic",
             "partition", "path", "path-coproduct", "skeletons", "verify")
CLI_PER_VERB = 5


def _letters(k: int) -> list:
    return [chr(ord("a") + i) for i in range(k)]


def _random_graph_edges(rng, vs, p=0.5):
    return [[u, w] for i, u in enumerate(vs) for w in vs[i + 1:] if rng.random() < p]


def _random_set_partition(rng, vs):
    parts: list = []
    for v in vs:
        if parts and rng.random() < 0.5:
            rng.choice(parts).append(v)
        else:
            parts.append([v])
    return parts


def _random_paths(rng, vs, longest):
    order = list(vs)
    rng.shuffle(order)
    paths = []
    while order:
        k = rng.randint(1, min(longest, len(order)))
        paths.append(order[:k])
        order = order[k:]
    return paths


def _tubes_sets(vs, edges):
    """Connected vertex subsets of a graph: a valid building set."""
    adj = {v: set() for v in vs}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    out = []
    for mask in range(1, 1 << len(vs)):
        sub = [vs[i] for i in range(len(vs)) if mask >> i & 1]
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w in sub and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(sub):
            out.append(sub)
    return out


def _cli_request(rng, verb: str) -> list:
    if verb in ("chi", "eval", "orientations", "antipode", "verify"):
        top = {"antipode": 4, "orientations": 5, "verify": 4}.get(verb, 6)
        vs = _letters(rng.randint(3, top))
        edges = [sorted(rng.sample(vs, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
        doc = compact(hyper(vs, edges))
        if verb == "chi":
            return ["chi", doc, "--at", "-1"]
        if verb == "eval":
            return ["eval", doc, "--at", "2", "--at", "-2"]
        if verb == "orientations":
            return ["orientations", doc, "--pairs", "3"]
        if verb == "verify":
            return ["verify", doc, "--max-n", "2"]
        return ["antipode", doc]
    if verb == "chromatic":
        vs = _letters(rng.randint(3, 5))
        edges = _random_graph_edges(rng, vs)[:5]
        return ["chromatic", compact(hyper(vs, edges)), "--at", "3"]
    if verb == "partition":
        vs = _letters(rng.randint(3, 6))
        doc = {"vertices": vs, "parts": _random_set_partition(rng, vs)}
        return ["partition", compact(doc), "--at", "-1"]
    if verb in ("path", "path-coproduct"):
        vs = _letters(rng.randint(3, 4))
        doc = compact({"vertices": vs, "paths": _random_paths(rng, vs, 3)})
        if verb == "path":
            return ["path", doc, "--at", "-1"]
        block = sorted(rng.sample(vs, rng.randint(1, len(vs) - 1)))
        return ["path", doc, "--coproduct", compact(block)]
    vs = _letters(rng.randint(3, 5))
    sets = _tubes_sets(vs, _random_graph_edges(rng, vs, 0.6))
    return ["skeletons", compact({"vertices": vs, "sets": sets}), "--list"]


# Inputs that must be refused with exit code 1 and a one-line error.
CLI_INVALID = [
    ["chi", '{"vertices":["a","b"],"edges":[["a","c"]]}'],
    ["chi", '{"vertices":["a","a"],"edges":[]}'],
    ["eval", '{"vertices":["a","b"],"edges":[[]]}', "--at", "1"],
    ["antipode", '{"vertices":["a","b"],"edges":[["a","b"]'],
    ["chromatic", '{"vertices":["a","b","c"],"edges":[["a","b","c"]]}', "--at", "2"],
    ["orientations", '{"vertices":["a","b"],"edges":[["a","b"]]}', "--pairs", "-1"],
    ["partition", '{"vertices":["a","b","c"],"parts":[["a"],["b"]]}'],
    ["skeletons", '{"vertices":["a","b"],"sets":[["a"],["a","b"]]}'],
    ["path", '{"vertices":["a","b","c"],"paths":[["a","b"],["b","c"]]}'],
]
