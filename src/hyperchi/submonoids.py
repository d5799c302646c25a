"""Specializations of the hypergraph invariant to richer structures.

Simple graphs, simplicial complexes, building sets, rip/sew simple
graphs, set partitions and path families all embed into (simple)
hypergraphs, and their invariants are computed through that embedding:

  * a graph contributes its chromatic polynomial;
  * a simplicial complex contributes the chromatic polynomial of its
    1-skeleton;
  * a building set counts strictly compatible (skeleton, coloring)
    pairs, with skeletons in bijection with acyclic orientations;
  * a simple graph under the rip/sew structure goes through its tubes
    (connected vertex subsets);
  * a set partition has the closed form prod_i p_i! C(n, p_i);
  * a family of paths goes through the graph its paths draw, whose
    single-path invariant evaluates to Catalan numbers at -1.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping

from .hypergraph import Hypergraph, _edge_key
from .invariant import chi_polynomial
from .polynomial import Polynomial


def simplify(h: Hypergraph) -> Hypergraph:
    """Drop repeated edges (first occurrence wins); the invariant is unchanged."""
    seen = set()
    out = []
    for e in h.edges:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return Hypergraph(h.vertices, out)


def shg_coproduct(h: Hypergraph, left: Iterable[str]):
    """Split a simple hypergraph: edges inside the block, then deduplicated
    traces of the rest.  Traces are never empty here since a surviving
    edge meets the complement."""
    left = frozenset(left)
    return simplify(h.restrict(left)), simplify(h.contract(left))


class SimpleGraph:
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]] = ()):
        self.vertices = frozenset(vertices)
        out = set()
        for e in edges:
            e = frozenset(e)
            if len(e) != 2:
                raise ValueError(f"graph edges must have two vertices, got {sorted(e)}")
            if not e <= self.vertices:
                raise ValueError(f"edge uses unknown vertices: {sorted(e - self.vertices)}")
            out.add(e)
        self.edges = frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = ", ".join("-".join(sorted(e)) for e in sorted(self.edges, key=_edge_key))
        return f"SimpleGraph({{{','.join(sorted(self.vertices))}}}; {es})"

    def neighbors(self, v: str) -> frozenset:
        return frozenset(w for e in self.edges if v in e for w in e if w != v)

    def induced(self, subset: Iterable[str]) -> "SimpleGraph":
        sub = frozenset(subset)
        if not sub <= self.vertices:
            raise ValueError("not a subset of the vertices")
        return SimpleGraph(sub, [e for e in self.edges if e <= sub])

    def connected_components(self) -> tuple:
        remaining = set(self.vertices)
        comps = []
        while remaining:
            start = min(remaining)
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.neighbors(v):
                    if w in remaining and w not in comp:
                        comp.add(w)
                        queue.append(w)
            remaining -= comp
            comps.append(frozenset(comp))
        return tuple(sorted(comps, key=lambda c: sorted(c)))

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.vertices, sorted(self.edges, key=_edge_key))


def chromatic_polynomial(g: SimpleGraph) -> Polynomial:
    """The invariant of a graph counts proper colorings: an edge has a
    unique maximal vertex exactly when its endpoints differ."""
    return chi_polynomial(g.to_hypergraph())


class SimplicialComplex:
    """Downward-closed family of faces.  The empty face is implicit: it is
    accepted on input, never stored, and ignored by the invariant."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: Iterable[str], faces: Iterable[Iterable[str]] = ()):
        self.vertices = frozenset(vertices)
        store = set()
        for f in faces:
            f = frozenset(f)
            if not f:
                continue
            if not f <= self.vertices:
                raise ValueError(f"face uses unknown vertices: {sorted(f - self.vertices)}")
            store.add(f)
        for f in store:
            if len(f) < 2:
                continue
            for x in f:
                if f - {x} not in store:
                    raise ValueError(
                        "not downward closed: face {} lacks subset {}".format(
                            sorted(f), sorted(f - {x})
                        )
                    )
        self.faces = frozenset(store)

    @classmethod
    def closure(cls, vertices, generators) -> "SimplicialComplex":
        """Smallest complex containing the given faces."""
        faces = set()
        for g in generators:
            g = tuple(frozenset(g))
            for r in range(1, len(g) + 1):
                faces.update(frozenset(c) for c in combinations(g, r))
        return cls(vertices, faces)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.faces == other.faces

    def __hash__(self):
        return hash((self.vertices, self.faces))

    def __repr__(self):
        fs = ", ".join("{" + ",".join(sorted(f)) + "}" for f in sorted(self.faces, key=_edge_key))
        return f"SimplicialComplex({{{','.join(sorted(self.vertices))}}}; [{fs}])"

    def skeleton_1(self) -> SimpleGraph:
        """The graph of 2-element faces."""
        return SimpleGraph(self.vertices, [f for f in self.faces if len(f) == 2])

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.vertices, sorted(self.faces, key=_edge_key))


class BuildingSet:
    """Family of connected sets: contains every singleton and the union of
    any two intersecting members."""

    __slots__ = ("vertices", "sets")

    def __init__(self, vertices: Iterable[str], sets: Iterable[Iterable[str]]):
        self.vertices = frozenset(vertices)
        family = set()
        for s in sets:
            s = frozenset(s)
            if not s:
                raise ValueError("sets must be nonempty")
            if not s <= self.vertices:
                raise ValueError(f"set uses unknown vertices: {sorted(s - self.vertices)}")
            family.add(s)
        for v in sorted(self.vertices):
            if frozenset([v]) not in family:
                raise ValueError(f"missing singleton {{{v}}}")
        for a, b in combinations(sorted(family, key=_edge_key), 2):
            if a & b and (a | b) not in family:
                raise ValueError(
                    "sets {} and {} intersect but their union is missing".format(
                        sorted(a), sorted(b)
                    )
                )
        self.sets = frozenset(family)

    def __eq__(self, other):
        if not isinstance(other, BuildingSet):
            return NotImplemented
        return self.vertices == other.vertices and self.sets == other.sets

    def __hash__(self):
        return hash((self.vertices, self.sets))

    def __repr__(self):
        ss = ", ".join("{" + ",".join(sorted(s)) + "}" for s in sorted(self.sets, key=_edge_key))
        return f"BuildingSet({{{','.join(sorted(self.vertices))}}}; [{ss}])"

    def connected_components(self) -> tuple:
        """The maximal sets; they partition the vertex set."""
        maximal = [
            s for s in self.sets if not any(s < t for t in self.sets)
        ]
        return tuple(sorted(maximal, key=lambda c: sorted(c)))

    def induced(self, subset: Iterable[str]) -> "BuildingSet":
        """The members inside the subset.  They form a building set by
        construction, so the union axiom is not checked again."""
        sub = frozenset(subset)
        if not sub <= self.vertices:
            raise ValueError("not a subset of the vertices")
        induced = object.__new__(BuildingSet)
        induced.vertices = sub
        induced.sets = frozenset(s for s in self.sets if s <= sub)
        return induced

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.vertices, sorted(self.sets, key=_edge_key))


def building_polynomial(b: BuildingSet) -> Polynomial:
    return chi_polynomial(b.to_hypergraph())


class RootedTree:
    """Immutable rooted tree given by its root and a child -> parent map."""

    __slots__ = ("root", "parent", "_items")

    def __init__(self, root: str, parent: Mapping[str, str]):
        parent = dict(parent)
        if root in parent:
            raise ValueError("the root cannot have a parent")
        vertices = {root} | set(parent) | set(parent.values())
        for v in vertices:
            seen = set()
            w = v
            while w != root:
                if w in seen or w not in parent:
                    raise ValueError(f"parent chain from {v!r} does not reach the root")
                seen.add(w)
                w = parent[w]
        self.root = root
        self.parent = parent
        self._items = tuple(sorted(parent.items()))

    @classmethod
    def _assembled(cls, root: str, parent: dict) -> "RootedTree":
        """The tree of a parent map that is a tree by construction, such as
        a root over already built subtrees; the parent chains are not
        walked again, and the dict is taken over, not copied."""
        tree = object.__new__(cls)
        tree.root = root
        tree.parent = parent
        tree._items = tuple(sorted(parent.items()))
        return tree

    @property
    def vertices(self) -> frozenset:
        return frozenset({self.root, *self.parent, *self.parent.values()})

    def children(self, v: str) -> tuple:
        return tuple(sorted(c for c, p in self.parent.items() if p == v))

    def depth(self, v: str) -> int:
        d = 0
        while v != self.root:
            v = self.parent[v]
            d += 1
        return d

    def subtree(self, v: str) -> frozenset:
        out = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for c in self.children(u):
                out.add(c)
                queue.append(c)
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.root == other.root and self._items == other._items

    def __hash__(self):
        return hash((self.root, self._items))

    def __repr__(self):
        es = ", ".join(f"{p}->{c}" for c, p in self._items)
        return f"RootedTree({self.root}; {es})"


class RootedForest:
    """Disjoint rooted trees, compared as a set."""

    __slots__ = ("trees",)

    def __init__(self, trees: Iterable[RootedTree]):
        trees = tuple(sorted(trees, key=lambda t: t.root))
        seen: set = set()
        for t in trees:
            if seen & t.vertices:
                raise ValueError("trees of a forest must be vertex-disjoint")
            seen |= t.vertices
        self.trees = trees

    @property
    def vertices(self) -> frozenset:
        out = frozenset()
        for t in self.trees:
            out |= t.vertices
        return out

    def parent_edges(self) -> Iterator[tuple]:
        """(parent, child) pairs across all trees."""
        for t in self.trees:
            for c, p in t._items:
                yield p, c

    def is_compatible(self, coloring: Mapping[str, int], strict: bool = False) -> bool:
        """Edges point at parents: a compatible coloring never increases
        along a child -> parent step (strictly decreases child-side when
        strict)."""
        for p, c in self.parent_edges():
            if strict:
                if not coloring[c] < coloring[p]:
                    return False
            elif not coloring[c] <= coloring[p]:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, RootedForest):
            return NotImplemented
        return self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return "RootedForest[" + "; ".join(repr(t) for t in self.trees) + "]"


def _partitioning_trees(x, memo=None) -> list:
    """Rooted trees of a connected building set or simple graph: a root r
    over one tree per connected component of x with r deleted.  For a
    building set those components are the maximal sets avoiding r, for a
    graph the components of the graph minus r."""
    if memo is None:
        memo = {}
    trees = []
    for r in sorted(x.vertices):
        for combo in _tree_choices(x.induced(x.vertices - {r}), memo):
            parent = {sub.root: r for sub in combo}
            for sub in combo:
                parent.update(sub.parent)
            trees.append(RootedTree._assembled(r, parent))
    return trees


def _tree_choices(x, memo=None) -> Iterator[tuple]:
    """Every choice of one partitioning tree per connected component of x.

    memo maps a vertex set to its partitioning trees.  It is valid for
    the induced pieces of one object and lives for one call."""
    if memo is None:
        memo = {}
    per_component = []
    for c in x.connected_components():
        trees = memo.get(c)
        if trees is None:
            trees = memo[c] = _partitioning_trees(x.induced(c), memo)
        per_component.append(trees)
    return product(*per_component)


def skeletons(b: BuildingSet) -> Iterator[RootedForest]:
    """All skeleton forests: pick a root per component, recurse on the
    maximal connected sets avoiding it."""
    for combo in _tree_choices(b):
        yield RootedForest(combo)


def skeleton_orientation(b: BuildingSet, forest: RootedForest) -> tuple:
    """The acyclic orientation matching a skeleton.

    Each connected set is sent to its shallowest vertex in the forest;
    for a genuine skeleton that vertex's subtree contains the whole set.
    Heads are aligned with the edge order of ``b.to_hypergraph()``.
    """
    if forest.vertices != b.vertices:
        raise ValueError("forest does not cover the building set")
    tree_of = {}
    for t in forest.trees:
        for v in t.vertices:
            tree_of[v] = t
    heads = []
    for e in b.to_hypergraph().edges:
        trees = {id(tree_of[v]) for v in e}
        if len(trees) != 1:
            raise ValueError(f"set {sorted(e)} straddles several trees")
        tree = tree_of[next(iter(e))]
        head = min(e, key=lambda v: (tree.depth(v), v))
        if not e <= tree.subtree(head):
            raise ValueError(f"forest is not a skeleton: set {sorted(e)} escapes "
                             f"the subtree of {head!r}")
        heads.append(head)
    return tuple(heads)


def tubes(w: SimpleGraph) -> BuildingSet:
    """All vertex subsets inducing a connected subgraph."""
    labels = sorted(w.vertices)
    sets = []
    for mask in range(1, 1 << len(labels)):
        subset = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
        if w.induced(subset).is_connected():
            sets.append(subset)
    return BuildingSet(w.vertices, sets)


def tubes_polynomial(w: SimpleGraph) -> Polynomial:
    """Invariant of a simple graph under the rip/sew structure: the
    invariant of its graphical building set."""
    return building_polynomial(tubes(w))


def rip_sew_coproduct(w: SimpleGraph, left: Iterable[str], right=None):
    """(induced subgraph on the block, graph sewn through it).

    The sewn graph joins u and v of the complement whenever some u-v
    path runs entirely through the block in between.
    """
    left = frozenset(left)
    if not left <= w.vertices:
        raise ValueError("block is not a subset of the vertices")
    rest = w.vertices - left
    if right is not None and frozenset(right) != rest:
        raise ValueError("blocks do not partition the vertex set")
    sewn = []
    for u in sorted(rest):
        reach = set()
        queue = deque(v for v in w.neighbors(u) if v in left)
        reach |= set(queue)
        while queue:
            x = queue.popleft()
            for y in w.neighbors(x):
                if y in left and y not in reach:
                    reach.add(y)
                    queue.append(y)
        for v in sorted(rest):
            if v <= u:
                continue
            if v in w.neighbors(u) or reach & w.neighbors(v):
                sewn.append((u, v))
    return w.induced(left), SimpleGraph(rest, sewn)


def partitioning_forests(w: SimpleGraph) -> Iterator[RootedForest]:
    """Delete a vertex per component, recurse on the pieces; the resulting
    forests coincide with the skeletons of the graphical building set."""
    for combo in _tree_choices(w):
        yield RootedForest(combo)


class SetPartition:
    __slots__ = ("vertices", "parts")

    def __init__(self, vertices: Iterable[str], parts: Iterable[Iterable[str]]):
        self.vertices = frozenset(vertices)
        blocks = set()
        covered: set = set()
        for p in parts:
            p = frozenset(p)
            if not p:
                raise ValueError("parts must be nonempty")
            if covered & p:
                raise ValueError(f"parts overlap on {sorted(covered & p)}")
            if not p <= self.vertices:
                raise ValueError(f"part uses unknown vertices: {sorted(p - self.vertices)}")
            covered |= p
            blocks.add(p)
        if covered != self.vertices:
            raise ValueError(f"parts do not cover: {sorted(self.vertices - covered)}")
        self.parts = frozenset(blocks)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.vertices == other.vertices and self.parts == other.parts

    def __hash__(self):
        return hash((self.vertices, self.parts))

    def __repr__(self):
        ps = ", ".join("{" + ",".join(sorted(p)) + "}" for p in sorted(self.parts, key=_edge_key))
        return f"SetPartition({{{','.join(sorted(self.vertices))}}}; [{ps}])"

    def restrict(self, subset: Iterable[str]) -> "SetPartition":
        """Intersect every part with the subset, dropping empties."""
        sub = frozenset(subset)
        return SetPartition(sub, [p & sub for p in self.parts if p & sub])

    def cliquey_graph(self) -> SimpleGraph:
        edges = []
        for p in self.parts:
            edges.extend(combinations(sorted(p), 2))
        return SimpleGraph(self.vertices, edges)


def partition_coproduct(pi: SetPartition, left: Iterable[str], right=None):
    left = frozenset(left)
    rest = pi.vertices - left
    if right is not None and frozenset(right) != rest:
        raise ValueError("blocks do not partition the vertex set")
    return pi.restrict(left), pi.restrict(rest)


def _falling_factorial(m: int) -> Polynomial:
    poly = Polynomial.ONE
    for j in range(m):
        poly = poly * (Polynomial.N - j)
    return poly


def partition_polynomial(pi: SetPartition) -> Polynomial:
    """prod over parts of p! C(n, p) = n(n-1)...(n-p+1), exactly.

    Agrees with the generic invariant of the cliquey graph of the
    partition viewed as a hypergraph.
    """
    poly = Polynomial.ONE
    for p in pi.parts:
        poly = poly * _falling_factorial(len(p))
    return poly


class PathFamily:
    """Vertex-disjoint paths covering the vertex set.

    Each path is a sequence up to reversal; the stored direction puts the
    lexicographically smaller endpoint first.  The order in which paths
    were supplied is kept for display, but equality and hashing treat the
    family as a set.
    """

    __slots__ = ("vertices", "paths")

    def __init__(self, vertices: Iterable[str], paths: Iterable[Iterable[str]] = ()):
        self.vertices = frozenset(vertices)
        stored = []
        covered: set = set()
        for p in paths:
            p = tuple(p)
            if not p:
                raise ValueError("paths must be nonempty")
            if len(set(p)) != len(p):
                raise ValueError(f"path repeats a vertex: {p}")
            if not set(p) <= self.vertices:
                raise ValueError(f"path uses unknown vertices: {sorted(set(p) - self.vertices)}")
            if covered & set(p):
                raise ValueError(f"paths overlap on {sorted(covered & set(p))}")
            covered |= set(p)
            if p[-1] < p[0]:
                p = p[::-1]
            stored.append(p)
        if covered != self.vertices:
            raise ValueError(f"paths do not cover: {sorted(self.vertices - covered)}")
        self.paths = tuple(stored)

    def __eq__(self, other):
        if not isinstance(other, PathFamily):
            return NotImplemented
        return self.vertices == other.vertices and frozenset(self.paths) == frozenset(other.paths)

    def __hash__(self):
        return hash((self.vertices, frozenset(self.paths)))

    def __str__(self):
        sep = "" if all(len(v) == 1 for v in self.vertices) else ","
        return "|".join(sep.join(p) for p in self.paths)

    def __repr__(self):
        return f"PathFamily({self})"

    def restrict(self, subset: Iterable[str]) -> "PathFamily":
        """Keep only the block's vertices, preserving each path's order."""
        sub = frozenset(subset)
        kept = []
        for p in self.paths:
            q = tuple(v for v in p if v in sub)
            if q:
                kept.append(q)
        return PathFamily(sub, kept)

    def contract(self, subset: Iterable[str]) -> "PathFamily":
        """Replace the block's vertices by separators and split."""
        sub = frozenset(subset)
        fragments = []
        for p in self.paths:
            current: list = []
            for v in p:
                if v in sub:
                    if current:
                        fragments.append(tuple(current))
                        current = []
                else:
                    current.append(v)
            if current:
                fragments.append(tuple(current))
        return PathFamily(self.vertices - sub, fragments)


def path_coproduct(alpha: PathFamily, left: Iterable[str], right=None):
    left = frozenset(left)
    if not left <= alpha.vertices:
        raise ValueError("block is not a subset of the vertices")
    rest = alpha.vertices - left
    if right is not None and frozenset(right) != rest:
        raise ValueError("blocks do not partition the vertex set")
    return alpha.restrict(left), alpha.contract(left)


def path_to_graph(alpha: PathFamily) -> SimpleGraph:
    """The simple graph whose components are the drawn paths."""
    edges = []
    for p in alpha.paths:
        edges.extend(zip(p, p[1:]))
    return SimpleGraph(alpha.vertices, edges)


def path_polynomial(alpha: PathFamily) -> Polynomial:
    """Invariant of a path family; for a single path on k vertices the
    value at -1 is (-1)^k times the k-th Catalan number."""
    return tubes_polynomial(path_to_graph(alpha))
