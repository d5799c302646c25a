"""Ordered set decompositions and compositions of a finite label set, and
the bitmask helpers the counting engines share.

A decomposition is a sequence of pairwise disjoint blocks whose union is
the ground set; empty blocks are allowed.  A composition additionally
forbids empty blocks.  Length-n decompositions are in bijection with
functions from the ground set to {1, ..., n} (block i = preimage of i+1),
so both are enumerated by one loop, ``colorings``.

The one cycle test, the bitmask backtracker ``_acyclic_heads``, lives
here as the lowest module that needs it: ``is_acyclic_arcs`` runs it on
arc sets and ``orientations`` on head choices of hypergraph edges.
``_allowed_blocks`` lists the blocks of a vertex mask that meet each edge
at most once, the top colour classes the compatible-pair count peels,
``_components`` joins overlapping masks into connected components, and
``_pieces`` packs those components so the invariant and the pair counts,
both multiplicative over disjoint unions, run on one piece at a time.

Vertex labels are strings; every enumeration order is derived from the
lexicographic order on labels so output is deterministic.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence


class SetDecomposition:
    """Ordered, pairwise disjoint blocks covering a ground set."""

    __slots__ = ("blocks", "ground", "_index")

    def __init__(self, blocks: Iterable[Iterable[str]], ground=None):
        blocks = tuple(frozenset(b) for b in blocks)
        index: dict[str, int] = {}
        for i, block in enumerate(blocks):
            for v in block:
                if v in index:
                    raise ValueError(f"blocks are not disjoint: {v!r} repeats")
                index[v] = i
        union = frozenset(index)
        if ground is None:
            ground = union
        else:
            ground = frozenset(ground)
            if union != ground:
                raise ValueError("blocks do not cover the ground set")
        self.blocks = blocks
        self.ground = ground
        self._index = index

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def index_of(self, v: str) -> int:
        """0-based index of the block containing v."""
        return self._index[v]

    def cano(self) -> "SetComposition":
        """Drop empty blocks, keeping order."""
        return SetComposition([b for b in self.blocks if b], self.ground)

    def restrict(self, subset: Iterable[str]) -> "SetDecomposition":
        sub = frozenset(subset)
        return SetDecomposition([b & sub for b in self.blocks], sub)

    def coloring(self) -> dict[str, int]:
        """The function ground -> {1..len} with block i = preimage of i+1."""
        return {v: i + 1 for v, i in self._index.items()}

    def __eq__(self, other):
        if not isinstance(other, SetDecomposition):
            return NotImplemented
        return self.blocks == other.blocks and self.ground == other.ground

    def __hash__(self):
        return hash((self.blocks, self.ground))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(sorted(b)) + "}" for b in self.blocks)
        return f"({inner})"


class SetComposition(SetDecomposition):
    """A decomposition without empty blocks."""

    __slots__ = ()

    def __init__(self, blocks, ground=None):
        super().__init__(blocks, ground)
        if any(not b for b in self.blocks):
            raise ValueError("a composition cannot contain an empty block")


def from_coloring(coloring: Mapping[str, int], n: int) -> SetDecomposition:
    """Inverse of SetDecomposition.coloring for colors in {1..n}."""
    blocks: list[set] = [set() for _ in range(n)]
    for v, c in coloring.items():
        if not 1 <= c <= n:
            raise ValueError(f"color {c} of {v!r} outside 1..{n}")
        blocks[c - 1].add(v)
    return SetDecomposition(blocks, frozenset(coloring))


def _nonempty_subsets(labels: Sequence[str]) -> Iterator[frozenset]:
    for mask in range(1, 1 << len(labels)):
        yield frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)


def enumerate_set_compositions(ground: Iterable[str]) -> Iterator[SetComposition]:
    """All ordered set partitions of the ground set, each exactly once.

    The empty ground set yields the single empty composition.  The count
    for an m-set is the m-th ordered Bell number.
    """
    ground = frozenset(ground)

    def rec(remaining: tuple) -> Iterator[tuple]:
        if not remaining:
            yield ()
            return
        for first in _nonempty_subsets(remaining):
            rest = tuple(v for v in remaining if v not in first)
            for tail in rec(rest):
                yield (first,) + tail

    for blocks in rec(tuple(sorted(ground))):
        yield SetComposition(blocks, ground)


def colorings(vertices, n: int) -> Iterator[dict]:
    """All maps from the vertices to {1..n}, in lexicographic label order."""
    labels = sorted(vertices)
    for combo in product(range(1, n + 1), repeat=len(labels)):
        yield dict(zip(labels, combo))


def enumerate_decompositions(ground: Iterable[str], n: int) -> Iterator[SetDecomposition]:
    """All n^|ground| decompositions of length n, in the order of ``colorings``."""
    if n < 0:
        raise ValueError("length must be >= 0")
    for coloring in colorings(frozenset(ground), n):
        yield from_coloring(coloring, n)


def _acyclic_heads(edges: list, allowed: list, width: int) -> Iterator[list]:
    """Every acyclic choice of one head bit per edge mask, the head of edge
    i drawn from allowed[i], in lexicographic order (low bits first).

    The yielded list is reused between choices.  Edge i with head h adds
    the arcs u -> h for the other vertices u of edge i; the edge-index
    digraph has a cycle iff this vertex digraph has one, since a path of
    edges i -> j -> ... walks from head to head.  down[v] is the set of
    vertices reachable from v, v included, so an edge closes a cycle iff
    its head reaches one of its other vertices.  Partial choices that
    close a cycle are pruned: the cycle survives every extension.
    """
    m = len(edges)
    if m == 0:
        yield []
        return
    heads = [0] * m
    downs = [[1 << i for i in range(width)]] + [None] * m
    left = [allowed[0]] + [0] * (m - 1)
    k = 0
    while k >= 0:
        options = left[k]
        if not options:
            k -= 1
            continue
        head = options & -options
        left[k] = options ^ head
        down = downs[k]
        tails = edges[k] & ~head
        reach = down[head.bit_length() - 1]
        if reach & tails:
            continue
        heads[k] = head
        if k + 1 == m:
            yield heads
            continue
        downs[k + 1] = [d | reach if d & tails else d for d in down] if tails else down
        k += 1
        left[k] = allowed[k]


def _allowed_blocks(ground: int, sets) -> list:
    """Every nonempty block of the ground mask that meets each mask of sets
    at most once, in no fixed order.

    These are the independent sets, inside ground, of the graph joining
    two vertices that share a mask.  A vertex bans the other vertices of
    the masks that hold it.  Vertices are added one at a time: each
    earlier block clear of what the new vertex bans gains a copy holding
    it, so only allowed blocks are ever built.
    """
    ban: dict = {}
    for s in sets:
        rest = s
        while rest:
            v = rest & -rest
            rest ^= v
            ban[v] = ban.get(v, 0) | s
    blocks: list = []
    while ground:
        v = ground & -ground
        ground ^= v
        banned = ban.get(v, v)
        blocks += [t | v for t in blocks if not t & banned]
        blocks.append(v)
    return blocks


def _components(masks) -> list:
    """The connected components of the masks, joined where they overlap: a
    (union, members) pair per component, in no fixed order.

    Each mask merges the components it meets; these are pairwise disjoint,
    so a component meets the merged union iff it meets the mask itself.
    """
    parts: list = []
    for m in masks:
        union, members, apart = m, [m], []
        for part in parts:
            if part[0] & m:
                union |= part[0]
                members += part[1]
            else:
                apart.append(part)
        apart.append((union, members))
        parts = apart
    return parts


def _pieces(edges, width: int) -> tuple:
    """The connected pieces of the wide edge masks, those of two or more
    vertices, and the number of the width vertices that lie in no wide edge.

    Each piece is a (masks, width) pair: its distinct wide edges with their
    bits packed, in order, into the piece's own width.  A one-vertex edge
    and a repeat of an edge change neither the invariant nor the
    compatible-pair counts, so neither reaches a piece.
    """
    pieces = []
    covered = 0
    for union, members in _components({e for e in edges if e & (e - 1)}):
        covered |= union
        place, rest = {}, union  # vertex bit -> its bit in the piece
        while rest:
            v = rest & -rest
            rest ^= v
            place[v] = 1 << len(place)
        masks = []
        for e in members:
            packed = 0
            while e:
                v = e & -e
                e ^= v
                packed |= place[v]
            masks.append(packed)
        pieces.append((masks, len(place)))
    return pieces, width - covered.bit_count()


def is_acyclic_arcs(vertices: Iterable[str], arcs: Iterable[tuple]) -> bool:
    """Whether the arc set is a DAG on the given vertices.

    Arc u -> w is the edge {u, w} with head w, so the arcs are acyclic
    iff ``_acyclic_heads`` accepts that one head choice.  A self-loop is
    a cycle.
    """
    bit = {v: 1 << i for i, v in enumerate(frozenset(vertices))}
    edges, heads = [], []
    for u, w in arcs:
        if u not in bit or w not in bit:
            raise ValueError(f"arc ({u!r}, {w!r}) leaves the vertex set")
        edges.append(bit[u] | bit[w])
        heads.append(bit[w])
    if any(edge == head for edge, head in zip(edges, heads)):
        return False
    return next(_acyclic_heads(edges, heads, len(bit)), None) is not None
