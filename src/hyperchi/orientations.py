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
from math import comb, factorial
from typing import Iterator, Mapping, Sequence

# colorings is re-exported, so orientations.colorings keeps working
from .compositions import _acyclic_heads, _allowed_blocks, _components, colorings  # noqa: F401
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

    Hence the count is sum_k C(n, k) c_k(V), where c_k(W) sums over the
    chains of length k ending at W the product of A(D_{i-1}, D_i), and
    A(lo, hi) counts the acyclic head choices, outside lo, of the edges
    inside hi but not inside lo.  ``_level_counts`` finds the c_k(V).
    """
    if n < 0:
        raise ValueError("number of colors must be >= 0")
    labels, _, edges = _bit_edges(h)
    levels = _level_counts(edges, len(labels), n, strict)
    return sum(comb(n, k) * count for k, count in enumerate(levels))


def _level_counts(edges: list, width: int, n: int, strict: bool) -> list:
    """[c_0(V), ..., c_m(V)] of ``count_compatible_pairs``, m = min(n, width),
    for the edge masks on width vertices.

    A(lo, hi) depends only on the set of distinct wide traces e - lo,
    those of two or more vertices: a one-vertex trace has a forced head
    and adds no arc, and two equal traces must take the same head, or
    their heads point at each other and close a 2-cycle.  So one-vertex
    and repeated edges are dropped first.

    Strict: A(lo, hi) is 1 when hi - lo is an allowed block of hi, one
    that meets every edge inside hi at most once (``_allowed_blocks``),
    and 0 otherwise.  So c_k(W) = sum_T c_{k-1}(W - T) over the allowed
    blocks T of W, and only those are visited: at most 3^|V| in all, far
    fewer when edges are large or many, whatever n is.

    Not strict: chains are pushed from each reachable lo to its
    supersets, and those at the last level that n colours allow only to
    the full set: O(3^|V|) level steps whatever n is.  Each A is a sum
    over sinks (``_acyclic_trace_heads``), once per call for each set of
    traces.

    The c_k(W) of each W are packed into one int, a slot of bits per k,
    so one more level is a shift.  A slot holds every c_k(W): their sum
    counts the ordered set partitions of W, fewer than |V|^|V|, times the
    acyclic orientations compatible with one, at most |V|! since a linear
    order of the vertices that extends one picks its heads.
    """
    full = (1 << width) - 1
    wide = list({e for e in edges if e & (e - 1)})
    slot = (width**width * factorial(width)).bit_length()
    chains = [0] * (full + 1)  # chains[W]: packed c_k(W)
    chains[0] = 1
    if strict:
        for w in range(1, full + 1):
            out = full ^ w
            blocks = _allowed_blocks(w, [e for e in wide if not e & out])
            chains[w] = sum([chains[w ^ t] for t in blocks]) << slot
    else:
        memo: dict = {}  # distinct wide traces -> acyclic head choices
        for lo in range(full):
            here = chains[lo]
            if not here or (shortest := ((here & -here).bit_length() - 1) // slot) >= n:
                continue  # C(n, k) = 0 beyond k = n
            rest = full & ~lo
            above = list({t for e in wide if (t := e & ~lo) & (t - 1)})
            growing = shortest + 1 < n  # a chain here may step to hi < V
            step = here << slot
            sub = rest
            while sub:
                hi = lo | sub
                out = rest ^ sub
                sub = (sub - 1) & rest if growing else 0
                traces = frozenset([t for t in above if not t & out])
                ways = memo.get(traces)
                if ways is None:
                    ways = _acyclic_trace_heads(traces, memo)
                chains[hi] += step * ways
    top, mask = chains[full], (1 << slot) - 1
    return [top >> k * slot & mask for k in range(min(n, width) + 1)]


def _acyclic_trace_heads(traces: frozenset, memo: dict) -> int:
    """Acyclic choices of one head per trace, for a set of distinct traces
    (vertex masks), memoised in memo by the trace set.

    The count is the product over the components of the traces, joined
    where they overlap.  Within one component it is a sum over sinks, as
    in Stanley's recursion for acyclic orientations: every acyclic choice
    has a nonempty set of sinks, vertices that head every trace holding
    them.  Fixing a set S of sinks forces S to meet each trace at most
    once, gives the traces that meet S their head in S, and leaves the
    traces off S free and acyclic; by inclusion-exclusion over S,
    a(K) = sum over the nonempty such S of (-1)^(|S|+1) a({t in K : t off S}).
    """
    ways = memo.get(traces)
    if ways is not None:
        return ways
    if len(traces) < 2:
        ways = memo[traces] = next(iter(traces)).bit_count() if traces else 1
        return ways
    parts = _components(traces)
    if len(parts) > 1:
        ways = 1
        for _, group in parts:
            ways *= _acyclic_trace_heads(frozenset(group), memo)
    else:
        ways = 0
        for sinks in _allowed_blocks(parts[0][0], traces):
            term = _acyclic_trace_heads(
                frozenset([t for t in traces if not t & sinks]), memo
            )
            ways += term if sinks.bit_count() & 1 else -term
    memo[traces] = ways
    return ways
