"""Shared instance generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

from hyperchi import (
    Hypergraph,
    all_orientations,
    colorings,
    is_acyclic,
    is_compatible,
    is_strictly_compatible,
)


def nonempty_subsets(labels):
    labels = sorted(labels)
    for mask in range(1, 1 << len(labels)):
        yield frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)


def exhaustive_hypergraphs(max_vertices: int, max_edges: int):
    """Every hypergraph on {v1..vm} for m <= max_vertices with at most
    max_edges edges (edge multisets over the nonempty subsets)."""
    for m in range(max_vertices + 1):
        labels = [f"v{i}" for i in range(1, m + 1)]
        subsets = sorted(nonempty_subsets(labels), key=lambda s: (len(s), sorted(s)))
        for k in range(max_edges + 1):
            for edges in combinations_with_replacement(subsets, k):
                yield Hypergraph(labels, edges)


def random_hypergraphs(count: int, n_vertices: int, max_edges: int, seed: int):
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(1, n_vertices + 1)]
    for _ in range(count):
        edges = []
        for _ in range(rng.randint(0, max_edges)):
            size = rng.randint(1, n_vertices)
            edges.append(rng.sample(labels, size))
        yield Hypergraph(labels, edges)


def count_surjections_direct(n: int, m: int) -> int:
    """Enumerate all maps [m] -> [n] and keep the surjective ones."""
    total = 0
    for f in product(range(n), repeat=m):
        if len(set(f)) == n:
            total += 1
    return total


def all_digraphs(labels):
    """Every loopless directed graph on the given labels."""
    labels = sorted(labels)
    arcs = [(u, v) for u in labels for v in labels if u != v]
    for mask in range(1 << len(arcs)):
        yield frozenset(a for i, a in enumerate(arcs) if mask >> i & 1)


def count_pairs_bruteforce(h: Hypergraph, n: int, strict: bool = False) -> int:
    """Count (acyclic orientation, coloring) pairs by trying every
    orientation against every coloring with {1..n}."""
    compatible = is_strictly_compatible if strict else is_compatible
    acyclic = [f for f in all_orientations(h) if is_acyclic(h, f)]
    return sum(
        1
        for coloring in colorings(h.vertices, n)
        for f in acyclic
        if compatible(h, f, coloring)
    )
