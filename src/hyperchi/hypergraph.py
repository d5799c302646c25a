"""Hypergraphs with multiset edges, their merge/split operations, and the
antipode.

A hypergraph is a finite set of string-labeled vertices together with an
indexed sequence of nonempty vertex subsets (edges).  Edge identity is
positional, so repeated edges are distinct carriers of orientations, but
equality and hashing compare the edge multiset: two hypergraphs are equal
iff they have the same vertex set and the same edges with multiplicity.
Two hypergraphs over different vertex sets are never equal, even with
identical edge lists.

Splitting along an ordered decomposition (S_1, ..., S_k) of the vertex
set produces one piece per block: the piece on S_i keeps the traces on
S_i of the edges that survived the earlier blocks and are not contained
in them.  Merging is disjoint union.  The antipode is the alternating
sum, over all compositions of the vertex set, of merge-after-split.

That sum is cancellation-free: merge-after-split keeps each edge's trace
on the last block it meets, the distinct results are the faces of the
hypergraphic polytope, and each face survives with coefficient (-1)^c,
c its number of connected components (isolated vertices count).
``antipode`` builds the faces directly from vertex masks, so its cost
follows the number of faces rather than the ordered Bell number of the
vertex count.  ``_bit_edges`` is the one label-to-bit map the mask
routes of the package share, and ``_mask_labels`` its inverse.

The constructor is the one place that checks edges (each nonempty and
inside the vertex set), for library callers and parsed input alike; the
input format only adds its shape checks on top.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .compositions import SetDecomposition, _components

# nothing here calls enumerate_set_compositions; bench/test_bench.py checks
# that the tracer wraps it under hypergraph too, so the name stays
from .compositions import enumerate_set_compositions  # noqa: F401


class Hypergraph:
    __slots__ = ("vertices", "edges", "_canon", "_hash")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]] = ()):
        vertices = frozenset(vertices)
        for v in vertices:
            if not isinstance(v, str):
                raise ValueError(f"vertex labels must be strings, got {v!r}")
        edge_list = []
        for e in edges:
            e = frozenset(e)
            if not e:
                raise ValueError("edges must be nonempty")
            if not e <= vertices:
                bad = sorted(e - vertices)
                raise ValueError(f"edge uses unknown vertices: {bad}")
            edge_list.append(e)
        self.vertices = vertices
        self.edges = tuple(edge_list)
        self._canon = tuple(sorted(self.edges, key=_edge_key))
        self._hash = hash((self.vertices, self._canon))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self._canon == other._canon

    def __hash__(self):
        return self._hash

    def __repr__(self):
        es = ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.edges)
        vs = ",".join(sorted(self.vertices))
        return f"Hypergraph({{{vs}}}; [{es}])"

    def restrict(self, subset: Iterable[str]) -> "Hypergraph":
        """Keep the edges entirely contained in the subset."""
        sub = frozenset(subset)
        if not sub <= self.vertices:
            raise ValueError("restriction set is not a subset of the vertices")
        return Hypergraph(sub, [e for e in self.edges if e <= sub])

    def contract(self, subset: Iterable[str]) -> "Hypergraph":
        """Drop the subset; edges not inside it survive as traces.

        Each surviving edge meets the complement, so traces are nonempty
        and multiplicity is preserved.
        """
        sub = frozenset(subset)
        if not sub <= self.vertices:
            raise ValueError("contraction set is not a subset of the vertices")
        rest = self.vertices - sub
        return Hypergraph(rest, [e & rest for e in self.edges if not e <= sub])

    def relabel(self, mapping: Mapping[str, str]) -> "Hypergraph":
        images = set()
        for v in self.vertices:
            if v not in mapping:
                raise ValueError(f"relabeling is not defined on {v!r}")
            w = mapping[v]
            if w in images:
                raise ValueError("relabeling is not injective")
            images.add(w)
        return Hypergraph(
            (mapping[v] for v in self.vertices),
            ([mapping[v] for v in e] for e in self.edges),
        )

    def is_discrete(self) -> bool:
        """True iff every edge has at most one vertex (the basic character)."""
        return all(len(e) <= 1 for e in self.edges)

    def isolated_vertices(self) -> frozenset:
        covered = frozenset().union(*self.edges) if self.edges else frozenset()
        return self.vertices - covered


def _edge_key(e: frozenset):
    return (len(e), tuple(sorted(e)))


def _bit_edges(h: Hypergraph) -> tuple:
    """Sorted vertex labels, the bit of each label in that order, and each
    edge as a mask of those bits."""
    labels = sorted(h.vertices)
    bit = {v: 1 << i for i, v in enumerate(labels)}
    return labels, bit, [sum(bit[v] for v in e) for e in h.edges]


def _mask_labels(mask: int, labels) -> list:
    """The labels of the bits of a mask, in the order of labels."""
    return [v for i, v in enumerate(labels) if mask >> i & 1]


def disjoint_union(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """Merge two hypergraphs on disjoint vertex sets."""
    if h1.vertices & h2.vertices:
        shared = sorted(h1.vertices & h2.vertices)
        raise ValueError(f"vertex sets overlap: {shared}")
    return Hypergraph(h1.vertices | h2.vertices, h1.edges + h2.edges)


def iterated_coproduct(h: Hypergraph, blocks) -> tuple:
    """Split h along an ordered decomposition of its vertex set.

    Folds left to right: the piece on block i is the restriction of what
    remains after contracting the earlier blocks.  Coassociativity makes
    the fold order irrelevant.
    """
    if not isinstance(blocks, SetDecomposition):
        blocks = SetDecomposition(blocks, h.vertices)
    if blocks.ground != h.vertices:
        raise ValueError("decomposition does not cover the vertex set")
    pieces = []
    rest = h
    for block in blocks:
        pieces.append(rest.restrict(block))
        rest = rest.contract(block)
    return tuple(pieces)


class FormalSum:
    """Integer combination of hypergraphs over one vertex set.

    Terms are kept in canonical form; zero coefficients are dropped.
    """

    __slots__ = ("terms", "ground")

    def __init__(self, terms: Mapping[Hypergraph, int] | None = None, ground=None):
        acc: dict[Hypergraph, int] = {}
        grounds = set()
        for h, c in (terms or {}).items():
            grounds.add(h.vertices)
            if c:
                acc[h] = acc.get(h, 0) + c
        if len(grounds) > 1:
            raise ValueError("terms live over different vertex sets")
        if ground is None and grounds:
            ground = next(iter(grounds))
        self.ground = frozenset(ground) if ground is not None else frozenset()
        self.terms = {h: c for h, c in acc.items() if c}

    @classmethod
    def of(cls, h: Hypergraph, coefficient: int = 1) -> "FormalSum":
        return cls({h: coefficient}, h.vertices)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.ground != other.ground and self.terms and other.terms:
            raise ValueError("cannot add sums over different vertex sets")
        merged = dict(self.terms)
        for h, c in other.terms.items():
            merged[h] = merged.get(h, 0) + c
        return FormalSum(merged, self.ground or other.ground)

    def __rmul__(self, scalar: int) -> "FormalSum":
        return FormalSum({h: scalar * c for h, c in self.terms.items()}, self.ground)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple]:
        """Yield (coefficient, hypergraph) pairs in canonical order."""
        def key(h: Hypergraph):
            return tuple(_edge_key(e) for e in h._canon)

        for h in sorted(self.terms, key=key):
            yield self.terms[h], h

    def coefficient(self, h: Hypergraph) -> int:
        return self.terms.get(h, 0)

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        bits = [f"{c:+d}*{h!r}" for c, h in self]
        return "FormalSum(" + " ".join(bits) + ")"


def antipode(h: Hypergraph) -> FormalSum:
    """The antipode, one term per face of the hypergraphic polytope.

    Defined as the sum over compositions (S_1,...,S_k) of the vertex set
    of (-1)^k times the disjoint union of the split pieces.  A term keeps
    each edge's trace on the last block it meets, so with T the last
    block, the terms over W are
    faces(W) = union over nonempty T of
               {traces on T of the edges inside W that meet T} x faces(W - T),
    memoised on W for this call.  Each face has coefficient (-1)^c, c its
    number of connected components, isolated vertices included.  The
    empty hypergraph is its own antipode.  Work follows the number of
    faces, not the ordered Bell number of the vertex count.
    """
    labels, _, edges = _bit_edges(h)
    memo: dict = {0: {()}}

    def faces(w: int) -> set:
        found = memo.get(w)
        if found is None:
            inside = [e for e in edges if not e & ~w]
            found = set()
            top = w
            while top:
                traces = tuple(e & top for e in inside if e & top)
                for below in faces(w & ~top):
                    found.add(tuple(sorted(traces + below)))
                top = (top - 1) & w
            memo[w] = found
        return found

    members: dict = {}  # edge mask -> its labels
    terms = {}
    for face in faces((1 << len(labels)) - 1):
        term_edges = []
        for e in face:
            labelled = members.get(e)
            if labelled is None:
                labelled = members[e] = _mask_labels(e, labels)
            term_edges.append(labelled)
        parts = _components(face)
        covered = sum(union for union, _ in parts)  # the unions are disjoint
        isolated = len(labels) - covered.bit_count()
        terms[Hypergraph(h.vertices, term_edges)] = (-1) ** (len(parts) + isolated)
    return FormalSum(terms, h.vertices)
