"""Shared instance generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import comb

from hypothesis import strategies as st

from hyperchi import (
    BuildingSet,
    ConstraintSystem,
    FormalSum,
    Hypergraph,
    Polynomial,
    RootedForest,
    RootedTree,
    acyclic_orientations,
    all_orientations,
    colorings,
    constrained_compositions,
    enumerate_decompositions,
    enumerate_set_compositions,
    f_polynomial,
    is_acyclic,
    is_compatible,
    is_strictly_compatible,
    iterated_coproduct,
)
from hyperchi.compositions import _acyclic_heads
from hyperchi.hypergraph import _bit_edges


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


# non-ASCII labels sort by code point, so their bits come in that order
LABELS = ("a", "b", "z9", "é", "Ω", "字")


@st.composite
def small_hypergraphs(draw, max_vertices=5, max_edges=4):
    """Hypergraphs with possibly repeated or singleton edges and isolated
    vertices, the empty one included."""
    vertices = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=max_vertices))
    if not vertices:
        return Hypergraph(())
    edge = st.frozensets(st.sampled_from(vertices), min_size=1)
    return Hypergraph(vertices, draw(st.lists(edge, max_size=max_edges)))


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


def count_pairs_by_levels(h: Hypergraph, n: int, strict: bool = False) -> int:
    """Count compatible pairs by colour level, every level filtered.

    The count is sum_k C(n, k) g_k, where g_k sums over the chains
    {} < D_1 < ... < D_k = V the product of A(D_{i-1}, D_i), and A(lo, hi)
    counts the acyclic head choices, outside lo, of the edges inside hi
    but not inside lo.  Every pair lo < hi is tried.  A depends only on
    the distinct wide traces e - lo (two or more vertices): it is 1 with
    none, 0 under strict with any, and otherwise the acyclic head choices
    of those traces, enumerated."""
    labels, _, edges = _bit_edges(h)
    width = len(labels)
    full = (1 << width) - 1
    chains: list = [None] * (full + 1)  # chains[lo]: {length k: weighted count}
    chains[0] = {0: 1}
    for lo in range(full):
        here = chains[lo]
        if here is None or min(here) >= n:  # C(n, k) = 0 beyond k = n
            continue
        rest = full & ~lo
        sub = rest
        while sub:
            hi = lo | sub
            sub = (sub - 1) & rest
            wide = list({t for e in edges if not e & ~hi and (t := e & ~lo) & (t - 1)})
            if strict and wide:
                continue
            ways = sum(1 for _ in _acyclic_heads(wide, wide, width))
            into = chains[hi] = chains[hi] or {}
            for k, count in here.items():
                into[k + 1] = into.get(k + 1, 0) + count * ways
    return sum(comb(n, k) * count for k, count in (chains[full] or {}).items())


def chi_polynomial_filtered(h: Hypergraph) -> Polynomial:
    """The closed form by filtering: every acyclic orientation, every
    composition of its heads that ``constrained_compositions`` keeps, and
    one power sum per composition, its layers swept up label by label."""
    total = Polynomial.ZERO
    for heads in acyclic_orientations(h):
        system = ConstraintSystem.from_orientation(h, heads)
        for comp in constrained_compositions(system, strict=True):
            used = set(system.heads)
            exponents = []
            for block in comp:
                layer = set()
                for head, edge in zip(heads, h.edges):
                    if head in block:
                        layer |= edge
                layer -= used
                used |= layer
                exponents.append(len(layer))
            total = total + f_polynomial(exponents)
    return total.shift(len(h.isolated_vertices()))


def antipode_by_compositions(h: Hypergraph) -> FormalSum:
    """The antipode as defined: over every ordered set composition, (-1)^length
    times the disjoint union of the pieces ``iterated_coproduct`` splits off."""
    if not h.vertices:
        return FormalSum.of(h)
    acc: dict = {}
    for comp in enumerate_set_compositions(h.vertices):
        pieces = iterated_coproduct(h, comp)
        term = Hypergraph(h.vertices, [e for piece in pieces for e in piece.edges])
        acc[term] = acc.get(term, 0) + (-1) ** len(comp)
    return FormalSum(acc, h.vertices)


def chi_eval_definition_by_fold(h: Hypergraph, n: int) -> int:
    """The defining sum by folding ``iterated_coproduct`` over every length-n
    decomposition, with no early exit."""
    return sum(
        all(piece.is_discrete() for piece in iterated_coproduct(h, decomp))
        for decomp in enumerate_decompositions(h.vertices, n)
    )


def component_count(h: Hypergraph) -> int:
    """Connected components of h by search over labels, isolated vertices
    included."""
    seen: set = set()
    count = 0
    for start in sorted(h.vertices):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for e in h.edges:
                if v in e:
                    for w in e - seen:
                        seen.add(w)
                        stack.append(w)
    return count


def skeletons_by_recursion(b: BuildingSet) -> list:
    """Skeleton forests by the plain recursion: a root per connected
    component over the skeletons of the maximal sets avoiding it, with
    every induced building set rebuilt by the validating constructor."""

    def induced(x, subset):
        return BuildingSet(subset, [s for s in x.sets if s <= subset])

    def trees(x):
        out = []
        for r in sorted(x.vertices):
            for combo in choices(induced(x, x.vertices - {r})):
                parent = {sub.root: r for sub in combo}
                for sub in combo:
                    parent.update(sub.parent)
                out.append(RootedTree(r, parent))
        return out

    def choices(x):
        return product(*[trees(induced(x, c)) for c in x.connected_components()])

    return [RootedForest(combo) for combo in choices(b)]
