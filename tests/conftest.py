"""Shared instance generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
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
    SetComposition,
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
from hyperchi.compositions import _acyclic_heads, is_acyclic_arcs
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


@st.composite
def building_sets(draw, labels=None, max_vertices=4, max_sets=4):
    """Building sets on the given labels, or on up to max_vertices drawn
    ones: every singleton and some drawn sets, closed under the union of
    two that intersect."""
    if labels is None:
        labels = draw(st.lists(st.sampled_from(LABELS), unique=True, min_size=1,
                               max_size=max_vertices))
    drawn = st.frozensets(st.sampled_from(labels), min_size=1)
    family = {frozenset([v]) for v in labels}
    family.update(draw(st.lists(drawn, max_size=max_sets)))
    grown = True
    while grown:
        grown = False
        for a, b in combinations(list(family), 2):
            if a & b and a | b not in family:
                family.add(a | b)
                grown = True
    return BuildingSet(labels, family)


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


def chromatic_by_deletion_contraction(vertices, edges) -> Polynomial:
    """P(G) = P(G - e) - P(G / e) down to n^k on k vertices without edges.

    Contracting e = {u, v} renames v to u in the other edges; the edge set
    is a set, so parallel edges merge, and no loop arises since e is
    gone.  Memoised on (vertex count, edges) for this call.
    """
    memo: dict = {}

    def rec(k: int, edges: frozenset) -> Polynomial:
        if not edges:
            return Polynomial.monomial(k)
        key = (k, edges)
        if key not in memo:
            e = min(edges, key=sorted)
            u, v = sorted(e)
            rest = edges - {e}
            merged = frozenset(frozenset(u if x == v else x for x in f) for f in rest)
            memo[key] = rec(k, rest) - rec(k - 1, merged)
        return memo[key]

    return rec(len(frozenset(vertices)), frozenset(frozenset(e) for e in edges))


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


# ---------------------------------------------------------------------------
# counting identities of compositions and chain power sums


def surjection_count(n: int, m: int) -> int:
    """Number of surjections from an m-set onto an n-set.

    Inclusion-exclusion: sum_{k=0}^{n} (-1)^(n-k) C(n,k) k^m.
    """
    if n < 0 or m < 0:
        raise ValueError("arguments must be >= 0")
    return sum((-1) ** (n - k) * comb(n, k) * k**m for k in range(n + 1))


def alternating_binomial_sum(n: int, poly: Polynomial) -> Fraction:
    """sum_{k=0}^{n} (-1)^(n-k) C(n,k) P(k); zero whenever deg P < n."""
    if n < 0:
        return Fraction(0)
    return Fraction(
        sum(((-1) ** (n - k) * comb(n, k)) * poly(k) for k in range(n + 1))
    )


def composition_degree(parts) -> int:
    """d_t = p_1 + ... + p_t + t, the degree of the chain power sum."""
    return sum(parts) + len(parts)


def f_eval_bruteforce(parts, n: int) -> int:
    """Direct nested-sum evaluation; oracle for f_polynomial.

    Returns 0 when the chain is longer than n (no strictly increasing
    choice of values exists); the empty chain gives 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = tuple(parts)
    total = 0
    for ks in combinations(range(n), len(parts)):
        term = 1
        for k, p in zip(ks, parts):
            term *= k**p
        total += term
    return total


def coarsenings(parts):
    """All sequences obtained by summing contiguous runs of parts.

    A sequence of t parts has 2^(t-1) coarsenings (cut or merge at each
    of the t-1 gaps); the empty sequence coarsens only to itself.
    """
    parts = tuple(parts)
    t = len(parts)
    if t == 0:
        yield ()
        return
    for mask in range(1 << (t - 1)):
        out = []
        acc = parts[0]
        for i in range(1, t):
            if mask >> (i - 1) & 1:
                acc += parts[i]
            else:
                out.append(acc)
                acc = parts[i]
        out.append(acc)
        yield tuple(out)


def f_reciprocity_check(parts, n: int) -> bool:
    """Whether F_p(-n) == (-1)^d_t * sum over coarsenings q of F_q(n+1).

    Holds for every sequence of positive exponents (and the empty one);
    a leading zero exponent breaks it, e.g. F_0(-n) = -n != -(n+1).
    """
    parts = tuple(parts)
    lhs = f_polynomial(parts)(-n)
    sign = (-1) ** composition_degree(parts)
    rhs = sign * sum(f_polynomial(q)(n + 1) for q in coarsenings(parts))
    return lhs == rhs


def refinements(comp: SetComposition):
    """All compositions splitting each block into consecutive sub-blocks."""
    per_block = [
        [c.blocks for c in enumerate_set_compositions(block)] for block in comp.blocks
    ]
    for choice in product(*per_block):
        blocks: tuple = ()
        for piece in choice:
            blocks += piece
        yield SetComposition(blocks, comp.ground)


def shuffles(p: SetComposition, q: SetComposition):
    """Compositions of the disjoint union restricting to p and to q.

    A shuffle interleaves the blocks of p and q, merging a block of each
    at a position where both are consumed; dropping empty intersections
    recovers p on one ground set and q on the other.
    """
    if p.ground & q.ground:
        raise ValueError("shuffled compositions must have disjoint grounds")
    ground = p.ground | q.ground

    def rec(i: int, j: int):
        if i == len(p.blocks) and j == len(q.blocks):
            yield ()
            return
        if i < len(p.blocks):
            for tail in rec(i + 1, j):
                yield (p.blocks[i],) + tail
        if j < len(q.blocks):
            for tail in rec(i, j + 1):
                yield (q.blocks[j],) + tail
        if i < len(p.blocks) and j < len(q.blocks):
            for tail in rec(i + 1, j + 1):
                yield (p.blocks[i] | q.blocks[j],) + tail

    seen = set()
    for blocks in rec(0, 0):
        if blocks not in seen:
            seen.add(blocks)
            yield SetComposition(blocks, ground)


def signed_constrained_sum(ground, arcs, comp: SetComposition) -> int:
    """sum of (-1)^length over refinements Q of comp with Q(v) < Q(w) per arc.

    The arc set must be acyclic.  The closed value is 0 when some arc
    already violates the block order of comp, and (-1)^|ground| otherwise;
    this function computes the sum by honest enumeration.
    """
    ground = frozenset(ground)
    arcs = tuple(arcs)
    if comp.ground != ground:
        raise ValueError("composition is not over the given ground set")
    if any(u == w for u, w in arcs):
        raise ValueError("arc set has a self-loop")
    if not is_acyclic_arcs(ground, arcs):
        raise ValueError("arc set has a directed cycle")
    total = 0
    for q in refinements(comp):
        if all(q.index_of(u) < q.index_of(w) for u, w in arcs):
            total += (-1) ** len(q)
    return total
