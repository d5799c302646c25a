import time
from fractions import Fraction

import pytest
from conftest import (
    chi_eval_definition_by_fold,
    chi_polynomial_filtered,
    count_pairs_by_levels,
    exhaustive_hypergraphs,
    random_hypergraphs,
    small_hypergraphs,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperchi import (
    ConstraintSystem,
    Hypergraph,
    Polynomial,
    acyclic_orientations,
    antipode,
    chi_eval_colorings,
    chi_eval_definition,
    chi_eval_negative,
    chi_on_formal_sum,
    chi_polynomial,
    combinatorics,
    constrained_compositions,
    count_compatible_pairs,
    disjoint_union,
)

EXAMPLE_H = Hypergraph("1234", [{"1", "2", "3"}, {"2", "3", "4"}])
EXAMPLE_CHI = Polynomial([0, Fraction(-5, 6), Fraction(5, 2), Fraction(-8, 3), 1])


def test_chi_eval_definition_examples():
    assert chi_eval_definition(EXAMPLE_H, 2) == 3
    edgeless = Hypergraph("abc")
    for n in range(4):
        assert chi_eval_definition(edgeless, n) == n**3
    assert chi_eval_definition(Hypergraph("ab", [{"a", "b"}]), 3) == 6


def test_chi_eval_colorings_examples():
    assert chi_eval_colorings(EXAMPLE_H, 2) == 3
    assert chi_eval_colorings(Hypergraph("ab", [{"a", "b"}]), 1) == 0
    assert chi_eval_colorings(Hypergraph("ab", [{"a"}, {"a", "b"}]), 2) == 2


def test_chi_polynomial_examples():
    assert chi_polynomial(EXAMPLE_H) == EXAMPLE_CHI
    assert chi_polynomial(Hypergraph("abc")) == Polynomial.monomial(3)
    triangle = Hypergraph("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert chi_polynomial(triangle) == Polynomial([0, 2, -3, 1])
    assert chi_polynomial(Hypergraph([])) == Polynomial.ONE


def test_chi_eval_negative_examples():
    reciprocal = Polynomial(
        [0, Fraction(5, 6), Fraction(5, 2), Fraction(8, 3), 1]
    )
    for n in range(5):
        assert chi_eval_negative(EXAMPLE_H, n) == reciprocal(n)
    assert chi_eval_negative(EXAMPLE_H, 1) == 7
    assert chi_eval_negative(Hypergraph("ab", [{"a", "b"}]), 2) == 6


def test_constrained_compositions_examples():
    no_constraints = ConstraintSystem({"a"}, [])
    assert [c.blocks for c in constrained_compositions(no_constraints)] == [
        (frozenset("a"),)
    ]
    system = ConstraintSystem({"b", "c"}, [("b", "c")])
    strict = [c.blocks for c in constrained_compositions(system, strict=True)]
    assert strict == [(frozenset("b"), frozenset("c"))]
    weak = {c.blocks for c in constrained_compositions(system, strict=False)}
    assert weak == {
        (frozenset("b"), frozenset("c")),
        (frozenset({"b", "c"}),),
    }
    cyclic = ConstraintSystem({"a", "b"}, [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        list(constrained_compositions(cyclic))


def test_constraint_digraph_of_acyclic_orientation_is_acyclic():
    for h in random_hypergraphs(15, 4, 4, seed=37):
        for heads in acyclic_orientations(h):
            assert ConstraintSystem.from_orientation(h, heads).is_acyclic()


def test_triple_agreement_small():
    for h in list(exhaustive_hypergraphs(3, 2)) + list(random_hypergraphs(20, 4, 3, seed=41)):
        poly = chi_polynomial(h)
        for n in range(4):
            d = chi_eval_definition(h, n)
            assert d == chi_eval_colorings(h, n) == poly(n), h


def test_pair_count_identities_small():
    for h in random_hypergraphs(15, 4, 3, seed=43):
        poly = chi_polynomial(h)
        for n in range(4):
            assert poly(n) == count_compatible_pairs(h, n, strict=True), h
            assert chi_eval_negative(h, n) == count_compatible_pairs(h, n), h


def test_chi_at_one_is_discreteness_indicator():
    for h in random_hypergraphs(20, 4, 3, seed=47):
        assert chi_polynomial(h)(1) == (1 if h.is_discrete() else 0)


def test_multiplicativity():
    pairs = [
        (EXAMPLE_H.relabel({v: "L" + v for v in EXAMPLE_H.vertices}),
         Hypergraph("xy", [{"x", "y"}])),
        (Hypergraph("ab", [{"a"}, {"a", "b"}]), Hypergraph("c")),
        (Hypergraph([]), EXAMPLE_H),
    ]
    for h1, h2 in pairs:
        assert chi_polynomial(disjoint_union(h1, h2)) == chi_polynomial(h1) * chi_polynomial(h2)


def test_monic_of_degree_vertex_count():
    for h in list(exhaustive_hypergraphs(3, 2)) + list(random_hypergraphs(15, 5, 4, seed=53)):
        poly = chi_polynomial(h)
        if h.vertices:
            assert poly.degree == len(h.vertices)
            assert poly.leading_coefficient == 1
        else:
            assert poly == Polynomial.ONE


def test_relabel_invariance():
    sigma = {"v1": "z9", "v2": "z8", "v3": "z7", "v4": "z6", "v5": "z5"}
    for h in random_hypergraphs(10, 5, 4, seed=59):
        assert chi_polynomial(h) == chi_polynomial(h.relabel(sigma))


def test_chi_on_formal_sum():
    edge = Hypergraph("ab", [{"a", "b"}])
    s = antipode(edge)
    assert chi_on_formal_sum(s) == Polynomial([0, 1, 1])  # n^2 + n
    assert chi_on_formal_sum(s, 3) == 12
    assert chi_on_formal_sum(s, -2) == chi_polynomial(edge)(2)
    from hyperchi import FormalSum

    assert chi_on_formal_sum(FormalSum.of(edge)) == chi_polynomial(edge)
    assert chi_on_formal_sum(FormalSum({})) == Polynomial.ZERO


def test_antipode_route_small():
    for h in list(random_hypergraphs(10, 3, 3, seed=61)) + [EXAMPLE_H]:
        poly = chi_polynomial(h)
        s = antipode(h)
        for n in range(5):
            assert poly(-n) == chi_on_formal_sum(s, n), h


def test_zero_layer_sizes_are_kept():
    # the triangle's six acyclic orientations each contribute the chain sum
    # with exponents (1, 0); dropping the zero would change the invariant
    from hyperchi import f_polynomial

    triangle = Hypergraph("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert chi_polynomial(triangle) == 6 * f_polynomial((1, 0))
    assert 6 * f_polynomial((1,)) != chi_polynomial(triangle)


def _path(k):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [{labels[i], labels[i + 1]} for i in range(k - 1)])


def _cyclic_3_uniform(k):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [{labels[i], labels[(i + 1) % k], labels[(i + 2) % k]}
                               for i in range(k)])


def _complete_graph(k):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [{u, v} for i, u in enumerate(labels) for v in labels[i + 1:]])


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs())
@example(Hypergraph(()))
@example(EXAMPLE_H)
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
@example(Hypergraph(["é", "Ω", "字", "a"], [{"é", "Ω"}, {"Ω", "字"}, {"字", "a", "é"}]))
@example(Hypergraph("abc"))
@example(Hypergraph("abcd", [{"a", "b", "c", "d"}]))
@example(Hypergraph("abc", [{"a"}, {"b"}, {"a"}, {"c"}]))
@example(_path(6))
@example(_cyclic_3_uniform(6))
@example(_path(7))
@example(_cyclic_3_uniform(7))
@example(_complete_graph(5))
def test_chi_polynomial_matches_filtered_compositions(h):
    poly = chi_polynomial(h)
    assert poly == chi_polynomial_filtered(h), h
    for n in range(4):
        assert poly(n) == chi_eval_colorings(h, n), (h, n)


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs(max_vertices=4))
@example(Hypergraph(()))
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
@example(Hypergraph(["é", "Ω", "字", "a"], [{"é", "Ω"}, {"Ω", "字"}, {"a"}]))
def test_split_folds_match_closed_form(h):
    # two routes through splits: the defining sum and the antipode
    poly = chi_polynomial(h)
    s = antipode(h)
    for n in range(3):
        assert chi_eval_definition(h, n) == poly(n), (h, n)
        assert chi_on_formal_sum(s, n) == poly(-n), (h, n)


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(max_vertices=5))
@example(Hypergraph(()))
@example(Hypergraph("abc"))
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
@example(Hypergraph(["é", "Ω", "字", "a", "b"], [{"é", "Ω", "字"}, {"Ω", "a"}, {"b"}]))
def test_defining_sum_matches_fold(h):
    for n in range(4):
        assert chi_eval_definition(h, n) == chi_eval_definition_by_fold(h, n), (h, n)


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs(), st.integers(-3, 5), st.integers(-3, 5))
@example(Hypergraph(()), 2, -1)
@example(EXAMPLE_H, 1, 2)
@example(EXAMPLE_H, -3, 5)
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]), -2, 3)
@example(Hypergraph(["é", "Ω", "字", "a"], [{"é", "Ω"}, {"Ω", "字"}, {"字", "a", "é"}]), 2, 2)
@example(Hypergraph("abc"), -1, 4)
@example(Hypergraph("abcd", [{"a", "b", "c", "d"}]), 3, -2)
@example(Hypergraph("abc", [{"a"}, {"b"}, {"a"}, {"c"}]), -3, -3)
@example(_path(6), 2, -1)
@example(_cyclic_3_uniform(6), -1, 2)
@example(_complete_graph(5), 1, -2)
def test_convolution_over_restriction_and_contraction(h, x, y):
    # chi(x + y) is the convolution of chi(x) and chi(y) along the split
    # h|S (x) h/S, over every subset S of the vertices
    labels = sorted(h.vertices)
    total = 0
    for mask in range(1 << len(labels)):
        s = [v for i, v in enumerate(labels) if mask >> i & 1]
        total += chi_polynomial(h.restrict(s))(x) * chi_polynomial(h.contract(s))(y)
    assert chi_polynomial(h)(x + y) == total, (h, x, y)


def test_defining_sum_places_nonempty_blocks_among_the_colors():
    start = time.perf_counter()
    assert chi_eval_definition(Hypergraph("a"), 1200) == 1200
    assert time.perf_counter() - start < 0.5
    for h in (Hypergraph(()), Hypergraph("ab"), EXAMPLE_H, _path(4)):
        poly = chi_polynomial(h)
        for n in (5, 9, 40):
            assert chi_eval_definition(h, n) == poly(n), (h, n)


def _one_edge(k, edge):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [labels[:edge]])


def _copies(h, k):
    """k disjoint copies of h."""
    union = Hypergraph(())
    for i in range(k):
        union = disjoint_union(union, h.relabel({v: f"{v}_{i}" for v in h.vertices}))
    return union


# the sparse cases have few orientations or many isolated vertices, and the
# disjoint ones many interleavings of their pieces, so chi must not pay for
# every subset of the vertices nor for every interleaving
@pytest.mark.parametrize(
    "h",
    [_path(8), _cyclic_3_uniform(9), _one_edge(20, 20), _one_edge(30, 2),
     _copies(_path(6), 2), _copies(_path(4), 3)],
    ids=["P_8", "C3_9", "one_edge_on_20", "one_edge_and_28_isolated",
         "two_P_6", "three_P_4"],
)
def test_closed_form_from_cold_caches(h):
    chi_polynomial.cache_clear()
    combinatorics._f_polynomial_cached.cache_clear()
    combinatorics.power_sum_polynomial.cache_clear()
    start = time.perf_counter()
    poly = chi_polynomial(h)
    elapsed = time.perf_counter() - start
    assert poly.degree == len(h.vertices) and poly.leading_coefficient == 1
    assert (-1) ** len(h.vertices) * poly(-1) == sum(1 for _ in acyclic_orientations(h))
    assert elapsed < 2.0


def test_whole_hypergraph_caches_are_bounded():
    chi_polynomial.cache_clear()
    chi_eval_definition.cache_clear()
    for i in range(1100):
        h = Hypergraph([f"v{i}"])
        chi_polynomial(h)
        chi_eval_definition(h, 1)
    for cached in (chi_polynomial, chi_eval_definition):
        info = cached.cache_info()
        assert info.maxsize == 1024 and info.currsize == 1024
        cached.cache_clear()


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs(max_vertices=3, max_edges=3),
       small_hypergraphs(max_vertices=3, max_edges=3),
       st.integers(0, 2), st.lists(st.integers(0, 7), max_size=2))
@example(Hypergraph("ab", [{"a", "b"}]), Hypergraph("ab", [{"a", "b"}]), 0, [])
@example(Hypergraph("abc", [{"a", "b", "c"}, {"a", "b"}]),
         Hypergraph("ab", [{"a", "b"}, {"a", "b"}]), 2, [0, 5])
def test_disjoint_unions_split_into_pieces(h1, h2, extra, picks):
    # the invariant and both pair counts are multiplicative, so the engines
    # run piece by piece; the oracles run on the whole hypergraph
    left = h1.relabel({v: "l" + v for v in h1.vertices})
    right = h2.relabel({v: "r" + v for v in h2.vertices})
    union = disjoint_union(left, right)
    assert chi_polynomial(union) == chi_polynomial(left) * chi_polynomial(right)
    vertices = sorted(union.vertices | {f"x{i}" for i in range(extra)})
    singles = [{vertices[p % len(vertices)]} for p in picks] if vertices else []
    h = Hypergraph(vertices, [*union.edges, *singles])
    assert chi_polynomial(h) == chi_polynomial_filtered(h), h
    for n in range(4):
        for strict in (False, True):
            assert count_compatible_pairs(h, n, strict=strict) == count_pairs_by_levels(
                h, n, strict=strict
            ), (h, n, strict)
