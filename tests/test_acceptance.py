"""Acceptance gate: one test per criterion, at the stated tolerances.

Everything here is exact arithmetic; tolerances are zero.  There are no
large-scale reference experiments to reproduce, so acceptance is exact
small-instance oracle equivalence plus the worked examples, all at desk
scale.  Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail
line per criterion.
"""

import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from conftest import (
    all_digraphs,
    coarsenings,
    composition_degree,
    exhaustive_hypergraphs,
    f_eval_bruteforce,
    random_hypergraphs,
    signed_constrained_sum,
)

import hyperchi.combinatorics as combi
from hyperchi import (
    BuildingSet,
    Hypergraph,
    PathFamily,
    Polynomial,
    SetPartition,
    SimpleGraph,
    SimplicialComplex,
    acyclic_orientations,
    antipode,
    chi_eval_colorings,
    chi_eval_definition,
    chi_eval_negative,
    chi_on_formal_sum,
    chi_polynomial,
    chromatic_polynomial,
    count_compatible_pairs,
    enumerate_set_compositions,
    f_polynomial,
    partition_polynomial,
    path_coproduct,
    path_polynomial,
    skeleton_orientation,
    skeletons,
)
from hyperchi.compositions import is_acyclic_arcs
from hyperchi.invariant import chi_polynomial as _chi_cached

EXAMPLE_H = Hypergraph("1234", [{"1", "2", "3"}, {"2", "3", "4"}])
RANDOM_SEED = 20260810


def _clear_caches():
    _chi_cached.cache_clear()
    chi_eval_definition.cache_clear()
    combi._f_polynomial_cached.cache_clear()
    combi.power_sum_polynomial.cache_clear()


@pytest.fixture(scope="module")
def family():
    """Shared instance family: exhaustive on <= 4 vertices with <= 3 edges,
    plus 200 seeded random instances on 5 vertices."""
    return list(exhaustive_hypergraphs(4, 3)) + list(
        random_hypergraphs(200, 5, 4, seed=RANDOM_SEED)
    )


def test_criterion_1_worked_example():
    _clear_caches()
    started = time.perf_counter()
    poly = chi_polynomial(EXAMPLE_H)
    expected = Polynomial([0, Fraction(-5, 6), Fraction(5, 2), Fraction(-8, 3), 1])
    assert poly == expected
    assert poly(2) == 3
    assert (-1) ** 4 * poly(-1) == 7
    reciprocal = Polynomial(
        [-c if i % 2 else c for i, c in enumerate(poly.coeffs)]
    )
    assert reciprocal == Polynomial(
        [0, Fraction(5, 6), Fraction(5, 2), Fraction(8, 3), 1]
    )
    for n in range(6):
        assert (-1) ** 4 * poly(-n) == reciprocal(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"


def test_criterion_2_triple_agreement(family):
    started = time.perf_counter()
    for h in family:
        poly = chi_polynomial(h)
        for n in range(5):
            definition = chi_eval_definition(h, n)
            colorings_count = chi_eval_colorings(h, n)
            assert definition == colorings_count == poly(n), (h, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"triple agreement took {elapsed:.1f}s"


def test_criterion_3_reciprocity(family):
    for h in family:
        poly = chi_polynomial(h)
        for n in range(5):
            assert count_compatible_pairs(h, n, strict=True) == poly(n), (h, n)
            assert count_compatible_pairs(h, n, strict=False) == chi_eval_negative(
                h, n
            ), (h, n)


def test_criterion_4_antipode_identity():
    for h in exhaustive_hypergraphs(4, 3):
        poly = chi_polynomial(h)
        fsum = antipode(h)
        for n in range(4):
            assert poly(-n) == chi_on_formal_sum(fsum, n), (h, n)


def _exponent_tuples(max_degree, positive=False):
    low = 1 if positive else 0
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for parts in frontier:
            for p in range(low, max_degree + 1):
                cand = parts + (p,)
                if composition_degree(cand) <= max_degree:
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def test_criterion_5_chain_power_sums():
    # closed form against the nested brute-force sum
    for parts in _exponent_tuples(10):
        poly = f_polynomial(parts)
        assert poly.degree == composition_degree(parts)
        for n in range(9):
            assert poly(n) == f_eval_bruteforce(parts, n), (parts, n)
    # negative-argument identity over coarsenings (positive exponents only;
    # a leading zero exponent genuinely breaks it)
    for parts in _exponent_tuples(10, positive=True):
        dt = composition_degree(parts)
        sign = (-1) ** dt
        for n in range(9):
            lhs = f_polynomial(parts)(-n)
            rhs = sign * sum(f_polynomial(q)(n + 1) for q in coarsenings(parts))
            assert lhs == rhs, (parts, n)


def _refines(q, p):
    owners = []
    for block in q.blocks:
        owner = {p.index_of(v) for v in block}
        if len(owner) != 1:
            return False
        owners.append(owner.pop())
    return all(owners[i] <= owners[i + 1] for i in range(len(owners) - 1))


def test_criterion_6_signed_constrained_sums():
    for size in range(5):
        ground = [f"g{i}" for i in range(size)]
        comps = list(enumerate_set_compositions(ground))
        refine_lists = {p: [q for q in comps if _refines(q, p)] for p in comps}
        for arcs in all_digraphs(ground):
            if not is_acyclic_arcs(ground, arcs):
                continue
            for p in comps:
                got = signed_constrained_sum(ground, arcs, p)
                brute = sum(
                    (-1) ** len(q)
                    for q in refine_lists[p]
                    if all(q.index_of(u) < q.index_of(w) for u, w in arcs)
                )
                assert got == brute, (arcs, p)
                violated = any(p.index_of(w) < p.index_of(u) for u, w in arcs)
                closed = 0 if violated else (-1) ** size
                assert got == closed, (arcs, p)


def _all_graphs(labels):
    pairs = sorted(
        {frozenset(p) for p in product(labels, labels) if len(set(p)) == 2},
        key=sorted,
    )
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(labels, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _all_complexes(labels):
    nonempty = [
        frozenset(c) for r in range(1, len(labels) + 1) for c in combinations(labels, r)
    ]
    for mask in range(1 << len(nonempty)):
        faces = {s for i, s in enumerate(nonempty) if mask >> i & 1}
        if all(len(f) < 2 or all(f - {x} in faces for x in f) for f in faces):
            yield SimplicialComplex(labels, faces)


def _all_building_sets(labels):
    singles = {frozenset([v]) for v in labels}
    bigger = [
        frozenset(c) for r in range(2, len(labels) + 1) for c in combinations(labels, r)
    ]
    for mask in range(1 << len(bigger)):
        fam = singles | {s for i, s in enumerate(bigger) if mask >> i & 1}
        if all((not (a & b)) or (a | b) in fam for a in fam for b in fam):
            yield BuildingSet(labels, fam)


def _all_partitions(labels):
    labels = list(labels)
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for r in range(len(rest) + 1):
        for mates in combinations(rest, r):
            block = [first, *mates]
            remaining = [v for v in rest if v not in mates]
            for tail in _all_partitions(remaining):
                yield [block, *tail]


def test_criterion_7_specializations():
    started = time.perf_counter()

    # complete-graph chromatic polynomials are falling factorials
    for m in range(1, 6):
        labels = [f"k{i}" for i in range(m)]
        km = SimpleGraph(labels, combinations(labels, 2))
        falling = Polynomial.ONE
        for j in range(m):
            falling = falling * (Polynomial.N - j)
        assert chromatic_polynomial(km) == falling

    # complexes on <= 4 vertices: invariant = chromatic of the 1-skeleton
    for m in range(5):
        labels = [chr(ord("a") + i) for i in range(m)]
        for cx in _all_complexes(labels):
            assert chi_polynomial(cx.to_hypergraph()) == chromatic_polynomial(
                cx.skeleton_1()
            ), cx

    # building sets on <= 4 vertices: skeleton count is the reciprocity
    # value at 1 and the skeleton <-> acyclic orientation map is a bijection
    for m in range(1, 5):
        labels = [chr(ord("a") + i) for i in range(m)]
        for b in _all_building_sets(labels):
            hg = b.to_hypergraph()
            forests = list(skeletons(b))
            assert len(forests) == chi_eval_negative(hg, 1), b
            images = {skeleton_orientation(b, f) for f in forests}
            assert len(images) == len(forests), b
            assert images == set(acyclic_orientations(hg)), b

    # partitions of <= 5 elements: closed form equals the generic invariant
    for m in range(6):
        labels = [f"e{i}" for i in range(m)]
        for blocks in _all_partitions(labels):
            pi = SetPartition(labels, blocks)
            assert partition_polynomial(pi) == chi_polynomial(
                pi.cliquey_graph().to_hypergraph()
            ), pi

    # single paths on 1..5 vertices hit the Catalan numbers at -1
    catalan = [1, 2, 5, 14, 42]
    for k, expected in zip(range(1, 6), catalan):
        labels = [f"p{i}" for i in range(k)]
        alpha = PathFamily(labels, [tuple(labels)])
        assert (-1) ** k * path_polynomial(alpha)(-1) == expected
        assert comb(2 * k, k) // (k + 1) == expected

    # the worked coproduct example, byte for byte
    alpha = PathFamily("abcdefg", [("b", "f", "c", "g"), ("a", "e", "d")])
    left, right = path_coproduct(alpha, {"b", "c", "e"})
    assert str(left) == "bc|e"
    assert str(right) == "f|g|a|d"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"specialization suite took {elapsed:.1f}s"


def test_criterion_8_no_large_scale_experiments():
    # the source material reports no large-scale experiments; acceptance is
    # the exact desk-scale equivalences above, so this criterion only pins
    # the worked numeric values once more
    assert chi_polynomial(EXAMPLE_H)(2) == 3
    assert chi_eval_negative(EXAMPLE_H, 1) == 7
