import time
from math import perm

import pytest
from conftest import (
    count_pairs_bruteforce,
    count_pairs_by_levels,
    random_hypergraphs,
    small_hypergraphs,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperchi import (
    Hypergraph,
    acyclic_orientations,
    all_orientations,
    chi_eval_negative,
    chi_polynomial,
    colorings,
    count_compatible_pairs,
    is_acyclic,
    is_compatible,
    is_strictly_compatible,
    orientation_count,
)
from hyperchi.compositions import _acyclic_heads
from hyperchi.orientations import _acyclic_trace_heads

EXAMPLE_H = Hypergraph("1234", [{"1", "2", "3"}, {"2", "3", "4"}])


def _cyclic_3_uniform(k):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [{labels[i], labels[(i + 1) % k], labels[(i + 2) % k]}
                               for i in range(k)])


def test_is_acyclic_examples():
    single = Hypergraph("ab", [{"a", "b"}])
    assert is_acyclic(single, ("a",))
    # the two cyclic orientations of the worked example
    assert not is_acyclic(EXAMPLE_H, ("2", "3"))
    assert not is_acyclic(EXAMPLE_H, ("3", "2"))
    # repeated edges aiming at each other form a 2-cycle
    doubled = Hypergraph("ab", [{"a", "b"}, {"a", "b"}])
    assert not is_acyclic(doubled, ("a", "b"))
    assert is_acyclic(doubled, ("a", "a"))


def test_validate_orientation():
    with pytest.raises(ValueError):
        is_acyclic(EXAMPLE_H, ("1",))
    with pytest.raises(ValueError):
        is_acyclic(EXAMPLE_H, ("4", "2"))


def test_acyclic_orientation_counts():
    assert sum(1 for _ in acyclic_orientations(EXAMPLE_H)) == 7
    assert orientation_count(EXAMPLE_H) == 9
    edgeless = Hypergraph("abc")
    assert list(acyclic_orientations(edgeless)) == [()]
    triangle = Hypergraph("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert sum(1 for _ in acyclic_orientations(triangle)) == 6
    assert orientation_count(triangle) == 8


def test_pruned_enumeration_matches_filtering():
    for h in list(random_hypergraphs(20, 4, 4, seed=17)) + [EXAMPLE_H]:
        filtered = [f for f in all_orientations(h) if is_acyclic(h, f)]
        assert list(acyclic_orientations(h)) == filtered


def test_compatibility_examples():
    single = Hypergraph("ab", [{"a", "b"}])
    assert not is_compatible(single, ("a",), {"a": 1, "b": 2})
    assert is_compatible(single, ("b",), {"a": 1, "b": 2})
    assert is_strictly_compatible(single, ("b",), {"a": 1, "b": 2})
    # constant colorings are compatible with every acyclic orientation
    for h in random_hypergraphs(10, 3, 3, seed=19):
        flat = {v: 1 for v in h.vertices}
        for f in acyclic_orientations(h):
            assert is_compatible(h, f, flat)
            if any(len(e) >= 2 for e in h.edges):
                assert not is_strictly_compatible(h, f, flat)


def test_two_color_instance_counts():
    # with colors 1 on {1,4} and 2 on {2,3} the worked example has four
    # compatible orientations of which two are acyclic, and no strictly
    # compatible one (each edge has two maximal vertices)
    coloring = {"1": 1, "2": 2, "3": 2, "4": 1}
    compat = [f for f in all_orientations(EXAMPLE_H) if is_compatible(EXAMPLE_H, f, coloring)]
    assert len(compat) == 4
    assert sum(1 for f in compat if is_acyclic(EXAMPLE_H, f)) == 2
    assert not any(is_strictly_compatible(EXAMPLE_H, f, coloring) for f in compat)


def test_count_compatible_pairs_examples():
    single = Hypergraph("ab", [{"a", "b"}])
    assert count_compatible_pairs(single, 2, strict=False) == 6
    assert count_compatible_pairs(single, 2, strict=True) == 2
    assert count_compatible_pairs(EXAMPLE_H, 1, strict=False) == 7


def test_strict_implies_compatible():
    for h in random_hypergraphs(8, 4, 3, seed=23):
        for n in range(3):
            assert count_compatible_pairs(h, n, strict=True) <= count_compatible_pairs(
                h, n, strict=False
            )
        for f in acyclic_orientations(h):
            for coloring in colorings(h.vertices, 2):
                if is_strictly_compatible(h, f, coloring):
                    assert is_compatible(h, f, coloring)


def test_uniquely_maximal_coloring_has_one_strict_acyclic_orientation():
    for h in list(random_hypergraphs(12, 4, 3, seed=29)) + [EXAMPLE_H]:
        acyclic = list(acyclic_orientations(h))
        for n in range(4):
            for coloring in colorings(h.vertices, n):
                unique_max = all(
                    sum(1 for v in e if coloring[v] == max(coloring[w] for w in e)) == 1
                    for e in h.edges
                )
                strict = [f for f in acyclic if is_strictly_compatible(h, f, coloring)]
                if unique_max:
                    induced = tuple(
                        max(sorted(e), key=lambda v: coloring[v]) for e in h.edges
                    )
                    assert is_acyclic(h, induced)
                    assert strict == [induced]
                else:
                    assert strict == []


def test_counts_invariant_under_relabel():
    sigma = {"v1": "d", "v2": "c", "v3": "b", "v4": "a"}
    for h in random_hypergraphs(10, 4, 3, seed=31):
        relabeled = h.relabel(sigma)
        assert orientation_count(h) == orientation_count(relabeled)
        assert sum(1 for _ in acyclic_orientations(h)) == sum(
            1 for _ in acyclic_orientations(relabeled)
        )


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=3))
@example(Hypergraph(()), 0)
@example(Hypergraph(()), 2)
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]), 3)
@example(Hypergraph(["é", "Ω", "字", "a"], [{"é", "Ω"}, {"Ω", "字"}, {"字"}]), 3)
def test_pair_counts_match_bruteforce(h, n):
    for strict in (False, True):
        assert count_compatible_pairs(h, n, strict=strict) == count_pairs_bruteforce(
            h, n, strict=strict
        ), (h, n, strict)


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(max_vertices=6), st.integers(min_value=0, max_value=5))
@example(Hypergraph(()), 3)
@example(Hypergraph("abc", [{"a"}, {"c"}, {"a"}]), 4)
@example(_cyclic_3_uniform(6), 5)
@example(_cyclic_3_uniform(7), 5)
def test_pair_counts_match_level_filtering(h, n):
    for strict in (False, True):
        assert count_compatible_pairs(h, n, strict=strict) == count_pairs_by_levels(
            h, n, strict=strict
        ), (h, n, strict)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.integers(min_value=1, max_value=63), max_size=7))
@example(frozenset([0b000011, 0b001100, 0b110000]))  # three components
@example(frozenset([0b000111, 0b000011, 0b000110]))  # nested
@example(frozenset([0b001111, 0b000111, 0b110000, 0b100000]))  # nested, beside another
def test_sink_sum_counts_acyclic_head_choices(traces):
    listed = list(traces)
    assert _acyclic_trace_heads(traces, {}) == sum(
        1 for _ in _acyclic_heads(listed, listed, 6)
    ), sorted(traces)


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=8), st.booleans())
# on the level above {c, d} the only wide traces are the two equal {a, b}
@example(Hypergraph("abcd", [{"a", "b", "c"}, {"a", "b", "d"}]), 3, 0, True)
@example(Hypergraph("abc", [{"a", "b"}, {"a", "b"}, {"c"}]), 2, 1, True)
@example(Hypergraph("abc", [{"a", "b", "c"}]), 3, 2, False)
def test_repeated_and_one_vertex_edges_leave_counts_unchanged(h, n, pick, copy):
    """The level lemma's reduction: a repeated trace must take its twin's
    head and a one-vertex trace has one head, so neither changes a count."""
    assume(h.vertices)
    if copy and h.edges:
        extra = h.edges[pick % len(h.edges)]
    else:
        extra = {sorted(h.vertices)[pick % len(h.vertices)]}
    grown = Hypergraph(h.vertices, [*h.edges, extra])
    for strict in (False, True):
        assert count_compatible_pairs(grown, n, strict=strict) == count_compatible_pairs(
            h, n, strict=strict
        ), (h, extra, n, strict)
    assert chi_polynomial(grown) == chi_polynomial(h)


def test_pair_counts_at_many_colors():
    c3_7 = _cyclic_3_uniform(7)
    start = time.perf_counter()
    loose = count_compatible_pairs(c3_7, 40)
    strict = count_compatible_pairs(c3_7, 40, strict=True)
    elapsed = time.perf_counter() - start
    assert loose == chi_eval_negative(c3_7, 40)
    assert strict == chi_polynomial(c3_7)(40)
    assert elapsed < 1.0


@pytest.mark.parametrize("isolated", [11, 20])
@pytest.mark.parametrize("strict", [False, True])
def test_pair_counts_on_one_edge_with_isolated_vertices(isolated, strict):
    # a vertex in no wide edge is a factor n, so the count runs on the edge
    # alone whatever the number of isolated vertices
    labels = [f"v{i}" for i in range(isolated + 2)]
    h = Hypergraph(labels, [labels[:2]])
    start = time.perf_counter()
    count = count_compatible_pairs(h, 3, strict=strict)
    elapsed = time.perf_counter() - start
    assert count == (chi_polynomial(h)(3) if strict else chi_eval_negative(h, 3))
    assert elapsed < 2.0


def _graph(k, pairs):
    labels = [f"v{i}" for i in range(k)]
    return Hypergraph(labels, [{labels[i], labels[j]} for i, j in pairs])


P_14 = _graph(14, [(i, i + 1) for i in range(13)])
CYCLE_14 = _graph(14, [(i, (i + 1) % 14) for i in range(14)])
K_10 = _graph(10, [(i, j) for i in range(10) for j in range(i)])


@pytest.mark.parametrize(
    "h, n, value",
    [
        (P_14, 3, 3 * 2**13),
        (CYCLE_14, 3, 2**14 + 2),
        (K_10, 9, 0),
        (K_10, 11, perm(11, 10)),
    ],
    ids=["P_14", "cycle_14", "K_10_at_9", "K_10_at_11"],
)
def test_strict_pairs_on_larger_graphs_are_proper_colorings(h, n, value):
    # on a graph a unique top in every edge means the ends differ, so the
    # strict count is the chromatic polynomial: n(n-1)^13 on P_14,
    # (n-1)^14 + (n-1) on the 14-cycle, n(n-1)...(n-9) on K_10
    assert count_compatible_pairs(h, n, strict=True) == value
