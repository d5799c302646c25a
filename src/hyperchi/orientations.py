"""Orientations of hypergraph edges and their interplay with colorings.

An orientation picks one head vertex inside each edge; it is stored as a
tuple aligned with the edge indices of the hypergraph.  Edge i points at
edge j when the head of i lies in j but is not j's head; an orientation
is acyclic when this relation on edge indices has no cycle.  Repeated
edges have distinct indices and may form a 2-cycle by aiming at each
other.

A coloring is a map from the vertices to {1, ..., n}.  It is compatible
with an orientation when every head carries the maximal color of its
edge, and strictly compatible when every head is the unique maximizer.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator, Mapping, Sequence

# colorings is re-exported, so orientations.colorings keeps working
from .compositions import _acyclic_heads, colorings  # noqa: F401
from .hypergraph import Hypergraph, _bit_edges


def validate_orientation(h: Hypergraph, heads: Sequence[str]) -> tuple:
    heads = tuple(heads)
    if len(heads) != len(h.edges):
        raise ValueError(
            f"orientation assigns {len(heads)} heads to {len(h.edges)} edges"
        )
    for i, (head, edge) in enumerate(zip(heads, h.edges)):
        if head not in edge:
            raise ValueError(f"head {head!r} of edge {i} is not one of its vertices")
    return heads


def is_acyclic(h: Hypergraph, heads: Sequence[str]) -> bool:
    """Whether the edge-index digraph of the orientation has no cycle."""
    heads = validate_orientation(h, heads)
    labels, bit, edges = _bit_edges(h)
    chosen = [bit[v] for v in heads]
    return next(_acyclic_heads(edges, chosen, len(labels)), None) is not None


def all_orientations(h: Hypergraph) -> Iterator[tuple]:
    """Every head assignment, in lexicographic order over sorted edges."""
    return product(*(sorted(e) for e in h.edges))


def orientation_count(h: Hypergraph) -> int:
    total = 1
    for e in h.edges:
        total *= len(e)
    return total


def acyclic_orientations(h: Hypergraph) -> Iterator[tuple]:
    """All acyclic orientations, by backtracking with cycle pruning.

    Output order and content match filtering all_orientations through
    is_acyclic.
    """
    labels, _, edges = _bit_edges(h)
    for heads in _acyclic_heads(edges, edges, len(labels)):
        yield tuple(labels[b.bit_length() - 1] for b in heads)


def is_compatible(h: Hypergraph, heads: Sequence[str], coloring: Mapping[str, int]) -> bool:
    """Every head attains the maximal color of its edge."""
    heads = validate_orientation(h, heads)
    for head, edge in zip(heads, h.edges):
        if coloring[head] != max(coloring[v] for v in edge):
            return False
    return True


def is_strictly_compatible(
    h: Hypergraph, heads: Sequence[str], coloring: Mapping[str, int]
) -> bool:
    """Every head is the one and only vertex of maximal color in its edge."""
    heads = validate_orientation(h, heads)
    for head, edge in zip(heads, h.edges):
        top = max(coloring[v] for v in edge)
        if coloring[head] != top:
            return False
        if sum(1 for v in edge if coloring[v] == top) != 1:
            return False
    return True


def count_compatible_pairs(h: Hypergraph, n: int, strict: bool = False) -> int:
    """Number of (acyclic orientation, coloring) pairs that are compatible.

    Counted by colour level, not coloring by coloring.  A coloring that
    uses k of the n colours sets up a strict chain
    {} < D_1 < ... < D_k = V, where D_i holds the vertices of the i
    smallest colours used, and C(n, k) colorings share each chain.  An
    edge belongs to the first level i with the edge inside D_i; its head
    lies in D_i - D_{i-1} (and is the only vertex there, when strict).

    Level lemma: an arc i -> j of a compatible orientation puts the head
    of i inside edge j, so the top colour of edge i is at most that of
    edge j.  Every cycle therefore lies inside one level, and the
    orientation is acyclic iff each level's head choice is.

    Hence the count is sum_k C(n, k) g_k, where g_k sums over the chains
    of length k the product of A(D_{i-1}, D_i), and A(lo, hi) counts the
    acyclic head choices, outside lo, of the edges inside hi but not
    inside lo.  Chains are pushed from each reachable lo to its
    supersets, and those at the last level that n colours allow only to
    the full set: O(|V| 3^|V|) work whatever n is.

    A(lo, hi) depends only on the set of distinct wide traces e - lo,
    those of two or more vertices.  A one-vertex trace has a forced head
    and adds no arc.  Two equal traces must take the same head, or their
    heads point at each other and close a 2-cycle.  So A is 1 with no
    wide trace, |t| with one wide trace t, and 0 under strict with any
    wide trace; otherwise the acyclic head choices of the distinct wide
    traces are enumerated once per call for each such set.
    """
    if n < 0:
        raise ValueError("number of colors must be >= 0")
    labels, _, edges = _bit_edges(h)
    width = len(labels)
    full = (1 << width) - 1
    inside: list = [None] * (full + 1)  # inside[hi]: the edges inside hi
    chains: list = [None] * (full + 1)  # chains[lo]: {length k: weighted count}
    chains[0] = {0: 1}
    level_ways: dict = {}  # distinct wide traces of a level -> A of that level
    for lo in range(full):
        here = chains[lo]
        if here is None or min(here) >= n:  # C(n, k) = 0 beyond k = n
            continue
        rest = full & ~lo
        growing = min(here) + 1 < n  # a chain here may step to hi < V
        sub = rest
        while sub:
            hi = lo | sub
            sub = (sub - 1) & rest if growing else 0
            within = inside[hi]
            if within is None:  # listed once per hi, not once per (lo, hi)
                within = inside[hi] = [e for e in edges if not e & ~hi]
            wide = {t for e in within if (t := e & ~lo) & (t - 1)}
            if not wide:
                ways = 1
            elif strict:
                continue
            elif len(wide) == 1:
                ways = wide.pop().bit_count()
            else:
                key = frozenset(wide)
                ways = level_ways.get(key)
                if ways is None:
                    traces = list(key)
                    ways = level_ways[key] = sum(
                        1 for _ in _acyclic_heads(traces, traces, width)
                    )
            into = chains[hi]
            if into is None:
                into = chains[hi] = {}
            for k, count in here.items():
                if k + 1 < n or hi == full:
                    into[k + 1] = into.get(k + 1, 0) + count * ways
    return sum(comb(n, k) * count for k, count in (chains[full] or {}).items())
