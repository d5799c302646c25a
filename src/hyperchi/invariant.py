"""The coloring invariant of a hypergraph, computed three independent ways.

For a nonnegative number of colors n the invariant counts, equivalently:

  * length-n ordered splits of the vertex set whose pieces are all
    discrete (the defining sum, ``chi_eval_definition``);
  * colorings with {1..n} in which every edge has a unique vertex of
    maximal color (``chi_eval_colorings``).

``chi_polynomial`` produces the exact polynomial through the acyclic
orientation expansion: every acyclic orientation contributes, for every
composition of its head set respecting the head-dominance constraints, a
strict-chain power sum whose exponents are the sizes of the layers of
non-head vertices swept up block by block.  The invariant is
integer-valued, so those power sums are added as integer values at
n = 0..d, d the number of vertices in edges, and the polynomial is
interpolated from them once.  Evaluating the polynomial at -n and
multiplying by (-1)^|vertices| counts compatible pairs of acyclic
orientations and colorings, which is the reciprocity law the test suite
pins down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Optional, Union

from .compositions import (
    SetComposition,
    colorings,
    enumerate_set_compositions,
    is_acyclic_arcs,
)
from .hypergraph import FormalSum, Hypergraph, _bit_edges
from .orientations import acyclic_orientations
from .polynomial import Polynomial, linear_combination

# Entries kept by each cache keyed on a whole hypergraph.
CACHE_SIZE = 1024


class ConstraintSystem:
    """Head set of an orientation plus its dominance constraints.

    A constraint (v, w) records that vertex v lies in an edge headed by w
    (and is itself a head), so in any counted composition v's block must
    come before w's.  For an acyclic orientation the constraint digraph
    is acyclic.
    """

    __slots__ = ("heads", "constraints")

    def __init__(self, heads, constraints):
        self.heads = frozenset(heads)
        constraints = frozenset((u, w) for u, w in constraints)
        for u, w in constraints:
            if u not in self.heads or w not in self.heads:
                raise ValueError(f"constraint ({u!r}, {w!r}) leaves the head set")
        self.constraints = constraints

    @classmethod
    def from_orientation(cls, h: Hypergraph, heads) -> "ConstraintSystem":
        head_set = frozenset(heads)
        constraints = set()
        for head, edge in zip(heads, h.edges):
            for v in edge:
                if v != head and v in head_set:
                    constraints.add((v, head))
        return cls(head_set, constraints)

    def is_acyclic(self) -> bool:
        return is_acyclic_arcs(self.heads, self.constraints)

    def __repr__(self):
        cs = sorted(self.constraints)
        return f"ConstraintSystem(heads={sorted(self.heads)}, constraints={cs})"


def constrained_compositions(
    system: ConstraintSystem, strict: bool = True
) -> Iterator[SetComposition]:
    """Compositions of the head set respecting every constraint.

    strict: v's block strictly before w's; otherwise ties are allowed.
    """
    if not system.is_acyclic():
        raise ValueError("constraint digraph has a directed cycle")
    for comp in enumerate_set_compositions(system.heads):
        if strict:
            ok = all(comp.index_of(u) < comp.index_of(w) for u, w in system.constraints)
        else:
            ok = all(comp.index_of(u) <= comp.index_of(w) for u, w in system.constraints)
        if ok:
            yield comp


@lru_cache(maxsize=CACHE_SIZE)
def chi_eval_definition(h: Hypergraph, n: int) -> int:
    """The defining sum: count length-n splits with all pieces discrete.

    The piece on a block holds the traces of the edges that first fit
    inside the placed set once the block is added, so it is discrete iff
    each of those traces has at most one vertex.  An empty block adds no
    piece and changes no later one, so the splits are counted by their
    nonempty blocks, chosen left to right as nonempty submasks of the
    vertices not yet placed, and a sequence of j such blocks stands for
    the C(n, j) splits that place it among the n slots.  A sequence is
    dropped at its first non-discrete piece, together with every sequence
    sharing that prefix.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    labels, _, edges = _bit_edges(h)
    full = (1 << len(labels)) - 1
    limit = min(n, len(labels))  # at most one nonempty block per slot
    counts = [0] * (limit + 1)  # counts[j]: discrete sequences of j blocks

    def discrete(placed: int, block: int) -> bool:
        for e in edges:
            if e & block and not e & ~(placed | block):
                trace = e & block
                if trace & (trace - 1):
                    return False
        return True

    def extend(placed: int, j: int) -> None:
        rest = full & ~placed
        if not rest:
            counts[j] += 1
        elif j + 1 == limit:  # the last block takes all that remain
            if discrete(placed, rest):
                counts[limit] += 1
        elif j < limit:
            block = rest
            while block:
                if discrete(placed, block):
                    extend(placed | block, j + 1)
                block = (block - 1) & rest

    extend(0, 0)
    return sum(comb(n, j) * count for j, count in enumerate(counts))


def chi_eval_colorings(h: Hypergraph, n: int) -> int:
    """Count colorings in which every edge has a unique maximal vertex."""
    if n < 0:
        raise ValueError("n must be >= 0")
    count = 0
    for coloring in colorings(h.vertices, n):
        for e in h.edges:
            top = max(coloring[v] for v in e)
            if sum(1 for v in e if coloring[v] == top) != 1:
                break
        else:
            count += 1
    return count


@lru_cache(maxsize=CACHE_SIZE)
def chi_polynomial(h: Hypergraph) -> Polynomial:
    """Exact invariant polynomial via the acyclic-orientation expansion.

    Isolated vertices contribute a factor n each.  For each acyclic
    orientation and each strictly constrained composition (P_1,...,P_l)
    of its heads, layer i collects the vertices of edges headed inside
    P_i that are neither heads nor already collected; the term is the
    strict-chain power sum with the layer sizes as exponents (zero sizes
    are kept: they still occupy a strictly increasing slot).

    The compositions are generated, not filtered: with vertices as bits,
    the next block is any nonempty subset of the unplaced heads whose
    constraint predecessors (the other heads in the edges they head) are
    all placed, which is the strict order of ``constrained_compositions``.
    Each layer's size comes from masks as its block is chosen.  The
    exponent tuples are tallied over all orientations.  Each distinct
    tuple's power sum is evaluated in integers at n = 0..d, d the number
    of vertices in edges, by its defining recursion from its prefix's
    values; the counted values are added into one integer list, and one
    interpolation turns that list into the polynomial.  ``f_polynomial``
    gives the same power sums in Bernoulli form.
    """
    _, bit, edges = _bit_edges(h)
    tally: dict = {}
    for orientation in acyclic_orientations(h):
        heads = [bit[v] for v in orientation]
        head_set = 0
        for head in heads:
            head_set |= head
        before: dict = {}  # head -> heads that must sit in earlier blocks
        reach: dict = {}  # head -> vertices of the edges it heads
        for head, edge in zip(heads, edges):
            before[head] = before.get(head, 0) | edge & head_set & ~head
            reach[head] = reach.get(head, 0) | edge
        _tally_layers(before, reach, head_set, 0, head_set, (), tally)
    # Heads and layers are disjoint and every block holds a head, so each
    # tallied power sum has degree at most the number of covered vertices
    # and the sum is fixed by its integer values at n = 0..covered.
    isolated = len(h.isolated_vertices())
    points = len(h.vertices) - isolated + 1
    chains = {(): [1] * points}  # exponent tuple -> its power sum at 0..points-1

    def chain(parts: tuple) -> list:
        values = chains.get(parts)
        if values is None:
            # F_{t,p}(n) = sum_{k<n} k^p F_t(k)
            p = parts[-1]
            values, acc = [], 0
            for k, prefix in enumerate(chain(parts[:-1])):
                values.append(acc)
                acc += k**p * prefix
            chains[parts] = values
        return values

    totals = [0] * points
    for exponents, count in tally.items():
        for k, value in enumerate(chain(exponents)):
            totals[k] += count * value
    return Polynomial.from_values(totals).shift(isolated)


def _tally_layers(before, reach, head_set, placed, used, exponents, tally) -> None:
    """Count, into tally, the exponent tuples of every strict composition of
    the heads not yet placed, after the blocks that placed ``placed``
    and collected ``used``."""
    if placed == head_set:
        tally[exponents] = tally.get(exponents, 0) + 1
        return
    ready = 0
    for head, need in before.items():
        if not head & placed and not need & ~placed:
            ready |= head
    block = ready
    while block:
        swept = 0
        rest = block
        while rest:
            head = rest & -rest
            swept |= reach[head]
            rest ^= head
        _tally_layers(before, reach, head_set, placed | block, used | swept,
                      exponents + ((swept & ~used).bit_count(),), tally)
        block = (block - 1) & ready


def chi_eval_negative(h: Hypergraph, n: int) -> int:
    """(-1)^|vertices| times the polynomial at -n.

    Equals the number of compatible pairs of acyclic orientations and
    colorings with {1..n}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    value = (-1) ** len(h.vertices) * chi_polynomial(h)(-n)
    return _exact_int(value)


def chi_on_formal_sum(
    fsum: FormalSum, at: Optional[int] = None
) -> Union[Polynomial, int]:
    """Linear extension of the invariant over a formal sum.

    With ``at=None`` returns the combined polynomial.  For an integer
    evaluation point the value is exact; nonnegative points are computed
    through the defining count of each term, negative ones through the
    term polynomials.
    """
    if at is None:
        return linear_combination((c, chi_polynomial(term)) for c, term in fsum)
    if at >= 0:
        return sum(c * chi_eval_definition(term, at) for c, term in fsum)
    value = sum((c * chi_polynomial(term)(at) for c, term in fsum), Fraction(0))
    return _exact_int(value)


def _exact_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value}")
    return int(value)
