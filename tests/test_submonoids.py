import random
import time
from itertools import combinations, product
from math import comb

import pytest
from conftest import (
    LABELS,
    building_sets,
    chromatic_by_deletion_contraction,
    nonempty_subsets,
    random_hypergraphs,
    skeletons_by_recursion,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperchi import (
    BuildingSet,
    Hypergraph,
    PathFamily,
    Polynomial,
    RootedForest,
    RootedTree,
    SetPartition,
    SimpleGraph,
    SimplicialComplex,
    acyclic_orientations,
    building_polynomial,
    chi_eval_colorings,
    chi_eval_negative,
    chi_polynomial,
    chromatic_polynomial,
    colorings,
    count_compatible_pairs,
    disjoint_union,
    is_compatible,
    is_strictly_compatible,
    partition_coproduct,
    partition_polynomial,
    partitioning_forests,
    path_coproduct,
    path_polynomial,
    path_to_graph,
    rip_sew_coproduct,
    shg_coproduct,
    simplify,
    skeleton_orientation,
    skeletons,
    tubes,
    tubes_polynomial,
)

TRIANGLE = SimpleGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
PATH3 = SimpleGraph("abc", [("a", "b"), ("b", "c")])


def all_graphs(labels):
    labels = sorted(labels)
    pairs = [frozenset(p) for p in product(labels, labels) if len(set(p)) == 2]
    pairs = sorted(set(pairs), key=sorted)
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(labels, [p for i, p in enumerate(pairs) if mask >> i & 1])


# ---------------------------------------------------------------------------
# simple hypergraphs


def test_simplify():
    doubled = Hypergraph("ab", [{"a", "b"}, {"a", "b"}])
    single = Hypergraph("ab", [{"a", "b"}])
    assert simplify(doubled) == single
    assert simplify(single) == single
    assert chi_polynomial(doubled) == chi_polynomial(single) == Polynomial([0, -1, 1])


def test_simplify_preserves_chi():
    for h in random_hypergraphs(15, 4, 4, seed=67):
        assert chi_polynomial(simplify(h)) == chi_polynomial(h)


def test_shg_coproduct_drops_duplicate_traces():
    h = Hypergraph("abcd", [{"a", "b"}, {"a", "c", "b"}, {"c", "d"}])
    left, right = shg_coproduct(h, {"a", "b"})
    assert left == Hypergraph("ab", [{"a", "b"}])
    assert right == Hypergraph("cd", [{"c"}, {"c", "d"}])
    # two edges with the same trace collapse
    h2 = Hypergraph("abc", [{"a", "c"}, {"b", "c"}])
    _, right2 = shg_coproduct(h2, {"a", "b"})
    assert right2 == Hypergraph("c", [{"c"}])


def test_shg_coproduct_agrees_with_simplified_multiset_route():
    for h in random_hypergraphs(10, 4, 3, seed=71):
        hs = simplify(h)
        for s in nonempty_subsets(hs.vertices):
            left, right = shg_coproduct(hs, s)
            assert left == simplify(hs.restrict(s))
            assert right == simplify(hs.contract(s))


# ---------------------------------------------------------------------------
# graphs


def test_chromatic_examples():
    single = SimpleGraph("ab", [("a", "b")])
    assert chromatic_polynomial(single) == Polynomial([0, -1, 1])
    assert chromatic_polynomial(TRIANGLE) == Polynomial([0, 2, -3, 1])
    # reciprocity instance: the path has four acyclic orientations
    assert (-1) ** 3 * chromatic_polynomial(PATH3)(-1) == 4


def test_chromatic_counts_proper_colorings():
    for g in all_graphs("abc"):
        poly = chromatic_polynomial(g)
        for n in range(4):
            proper = 0
            for coloring in colorings(g.vertices, n):
                if all(coloring[u] != coloring[v] for u, v in map(sorted, g.edges)):
                    proper += 1
            assert poly(n) == proper


def _random_graphs(count, max_vertices, seed):
    rng = random.Random(seed)
    for _ in range(count):
        labels = sorted(rng.sample(LABELS, rng.randint(0, max_vertices)))
        p = rng.random()
        yield SimpleGraph(labels, [e for e in combinations(labels, 2) if rng.random() < p])


def test_specializations_match_deletion_contraction():
    # the oracle uses no allowed blocks, orientations or compositions
    rng = random.Random(5)
    for g in _random_graphs(150, 6, seed=3):
        expected = chromatic_by_deletion_contraction(g.vertices, g.edges)
        assert chromatic_polynomial(g) == expected, g
        # a complex on g's edges, its vertices and some of its triangles
        labels = sorted(g.vertices)
        triangles = [t for t in combinations(labels, 3) if rng.random() < 0.5
                     and all(frozenset(p) in g.edges for p in combinations(t, 2))]
        cx = SimplicialComplex.closure(labels, [*g.edges, *triangles, *([v] for v in labels)])
        assert cx.skeleton_1() == g
        assert chi_polynomial(cx.to_hypergraph()) == expected, cx
        # a partition of the labels into the runs between random cuts
        cuts = [0, *sorted(rng.sample(range(1, len(labels)), len(labels) // 2)), len(labels)]
        pi = SetPartition(labels, [labels[i:j] for i, j in zip(cuts, cuts[1:]) if i < j])
        cliquey = pi.cliquey_graph()
        assert partition_polynomial(pi) == chromatic_by_deletion_contraction(
            cliquey.vertices, cliquey.edges), pi


# ---------------------------------------------------------------------------
# simplicial complexes


def test_complex_validation_and_skeleton():
    full = SimplicialComplex.closure("abc", [("a", "b", "c")])
    assert full.skeleton_1() == TRIANGLE
    tiny = SimplicialComplex("abc", [("a",), ("b",)])
    assert tiny.skeleton_1() == SimpleGraph("abc")
    with pytest.raises(ValueError, match="downward"):
        SimplicialComplex("abc", [("a", "b")])
    # the empty face is accepted and ignored
    same = SimplicialComplex("ab", [(), ("a",)])
    assert same.faces == frozenset([frozenset("a")])


def test_complex_invariant_is_skeleton_chromatic():
    path_complex = SimplicialComplex.closure("abc", [("a", "b"), ("b", "c")])
    assert chi_polynomial(path_complex.to_hypergraph()) == Polynomial([0, 1, -2, 1])
    assert chromatic_polynomial(path_complex.skeleton_1()) == Polynomial([0, 1, -2, 1])
    for gens in [
        [("a", "b", "c")],
        [("a", "b"), ("c",)],
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("a",)],
    ]:
        c = SimplicialComplex.closure("abc", gens)
        assert chi_polynomial(c.to_hypergraph()) == chromatic_polynomial(c.skeleton_1())


# ---------------------------------------------------------------------------
# building sets


def test_building_set_validation():
    BuildingSet("ab", [("a",), ("b",), ("a", "b")])
    BuildingSet("ab", [("a",), ("b",)])
    with pytest.raises(ValueError, match="union is missing"):
        BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="missing singleton"):
        BuildingSet("ab", [("a",), ("a", "b")])


def test_connected_components_partition():
    b = BuildingSet("abcd", [("a",), ("b",), ("c",), ("d",), ("a", "b")])
    assert b.connected_components() == (
        frozenset({"a", "b"}), frozenset("c"), frozenset("d"),
    )


def test_skeletons_examples():
    single = BuildingSet("a", [("a",)])
    assert sum(1 for _ in skeletons(single)) == 1
    pair = BuildingSet("ab", [("a",), ("b",), ("a", "b")])
    forests = list(skeletons(pair))
    assert len(forests) == 2 and len(set(forests)) == 2
    # non-graphical building set: one triple over three singletons
    spike = BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b", "c")])
    assert sum(1 for _ in skeletons(spike)) == 3


def test_skeleton_count_is_reciprocal_value():
    cases = [
        BuildingSet("ab", [("a",), ("b",), ("a", "b")]),
        BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b", "c")]),
        tubes(PATH3),
        tubes(TRIANGLE),
        tubes(SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])),
    ]
    for b in cases:
        count = sum(1 for _ in skeletons(b))
        assert count == chi_eval_negative(b.to_hypergraph(), 1), b


def test_skeleton_orientation_example():
    b = BuildingSet("ab", [("a",), ("b",), ("a", "b")])
    by_root = {f.trees[0].root: f for f in skeletons(b)}
    # hypergraph edge order is ({a}, {b}, {a,b})
    assert skeleton_orientation(b, by_root["a"]) == ("a", "b", "a")
    assert skeleton_orientation(b, by_root["b"]) == ("a", "b", "b")


def test_skeleton_bijection_and_compatibility():
    cases = [
        BuildingSet("ab", [("a",), ("b",), ("a", "b")]),
        BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b", "c")]),
        tubes(PATH3),
        tubes(TRIANGLE),
        tubes(SimpleGraph("abc", [("a", "b")])),
    ]
    for b in cases:
        hg = b.to_hypergraph()
        forests = list(skeletons(b))
        images = [skeleton_orientation(b, f) for f in forests]
        assert len(set(images)) == len(forests)  # injective
        assert set(images) == set(acyclic_orientations(hg))  # onto
        for forest, heads in zip(forests, images):
            for n in range(3):
                for coloring in colorings(b.vertices, n):
                    assert forest.is_compatible(coloring) == is_compatible(
                        hg, heads, coloring
                    )
                    assert forest.is_compatible(coloring, strict=True) == (
                        is_strictly_compatible(hg, heads, coloring)
                    )


def test_skeleton_orientation_refuses_forests_that_are_not_skeletons():
    # the pieces of b are {a, b} and {c}, but the forest is one tree
    b = tubes(SimpleGraph("abc", [("a", "b")]))
    spike = BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b"), ("a", "b", "c")])
    for forest in skeletons(spike):
        with pytest.raises(ValueError, match="not a skeleton"):
            skeleton_orientation(b, forest)
    with pytest.raises(ValueError, match="does not cover"):
        skeleton_orientation(b, RootedForest([RootedTree("a", {"b": "a"})]))


@st.composite
def building_set_pairs(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), unique=True, min_size=1, max_size=4))
    return draw(building_sets(labels)), draw(building_sets(labels))


@settings(max_examples=150, deadline=None)
@given(building_set_pairs())
@example((BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b"), ("a", "b", "c")]),
          tubes(SimpleGraph("abc", [("a", "b")]))))
def test_skeleton_orientation_accepts_exactly_the_skeletons(pair):
    b, other = pair
    theirs = set(skeletons(other))
    for forest in skeletons(b):
        try:
            skeleton_orientation(other, forest)
        except ValueError:
            assert forest not in theirs
        else:
            assert forest in theirs


SKELETON_GRAPHS = [
    SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    SimpleGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
    SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
    SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"),
                          ("b", "e")]),
    SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("d", "e")]),
]


@pytest.mark.parametrize("g", SKELETON_GRAPHS, ids=repr)
def test_skeletons_keep_order_and_biject(g):
    b = tubes(g)
    forests = list(skeletons(b))
    assert forests == skeletons_by_recursion(b)
    images = [skeleton_orientation(b, f) for f in forests]
    assert len(set(images)) == len(forests)
    assert set(images) == set(acyclic_orientations(b.to_hypergraph()))


@pytest.mark.parametrize("g", SKELETON_GRAPHS, ids=repr)
def test_assembled_trees_match_validating_constructor(g):
    for sub in nonempty_subsets(g.vertices):
        for forest in skeletons(tubes(g.induced(sub))):
            for tree in forest.trees:
                checked = RootedTree(tree.root, tree.parent)
                assert tree == checked and hash(tree) == hash(checked)
                assert tree.parent == checked.parent and repr(tree) == repr(checked)
            assert forest.vertices == sub
    with pytest.raises(ValueError, match="does not reach the root"):
        RootedTree("a", {"b": "c", "c": "b"})


def test_forest_pair_counts_match_invariant():
    for b in [tubes(PATH3), BuildingSet("abc", [("a",), ("b",), ("c",), ("a", "b", "c")])]:
        poly = building_polynomial(b)
        forests = list(skeletons(b))
        for n in range(4):
            strict = weak = 0
            for coloring in colorings(b.vertices, n):
                strict += sum(1 for f in forests if f.is_compatible(coloring, strict=True))
                weak += sum(1 for f in forests if f.is_compatible(coloring))
            assert strict == poly(n)
            assert weak == chi_eval_negative(b.to_hypergraph(), n)


# ---------------------------------------------------------------------------
# tubes, ripping and sewing


def test_tubes_examples():
    assert tubes(SimpleGraph("ab")).sets == {frozenset("a"), frozenset("b")}
    assert tubes(SimpleGraph("ab", [("a", "b")])).sets == {
        frozenset("a"), frozenset("b"), frozenset({"a", "b"}),
    }
    assert tubes(PATH3).sets == {
        frozenset("a"), frozenset("b"), frozenset("c"),
        frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "b", "c"}),
    }


@st.composite
def simple_graphs(draw):
    labels = sorted(draw(st.lists(st.sampled_from(LABELS), unique=True)))
    pairs = list(combinations(labels, 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(labels, [p for p, keep in zip(pairs, kept) if keep])


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
@example(SimpleGraph(()))
@example(SimpleGraph(LABELS, combinations(LABELS, 2)))
def test_tubes_pass_the_validating_constructor(g):
    t = tubes(g)
    assert t == BuildingSet(g.vertices, t.sets)


def test_rip_sew_examples():
    ripped, sewn = rip_sew_coproduct(PATH3, PATH3.vertices)
    assert ripped == PATH3 and sewn == SimpleGraph([])
    ripped, sewn = rip_sew_coproduct(PATH3, {"b"})
    assert sewn == SimpleGraph("ac", [("a", "c")])
    edgeless = SimpleGraph("abcd")
    _, sewn = rip_sew_coproduct(edgeless, {"a", "b"})
    assert sewn == SimpleGraph("cd")
    with pytest.raises(ValueError):
        rip_sew_coproduct(PATH3, {"b"}, {"a"})


def test_sewing_uses_interior_paths_only():
    # a-b-c-d: sewing through {b, c} joins a and d
    p4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    _, sewn = rip_sew_coproduct(p4, {"b", "c"})
    assert sewn == SimpleGraph("ad", [("a", "d")])
    # but sewing through {b} alone does not
    _, sewn = rip_sew_coproduct(p4, {"b"})
    assert sewn == SimpleGraph("acd", [("a", "c"), ("c", "d")])


def test_tubes_is_a_morphism():
    # product
    g1 = SimpleGraph("ab", [("a", "b")])
    g2 = SimpleGraph("cd", [("c", "d")])
    merged = SimpleGraph("abcd", [("a", "b"), ("c", "d")])
    assert tubes(merged).sets == tubes(g1).sets | tubes(g2).sets
    # coproduct, componentwise: restriction and deduplicated traces
    for g in all_graphs("abc"):
        t = tubes(g)
        for s in nonempty_subsets(g.vertices):
            ripped, sewn = rip_sew_coproduct(g, s)
            left, right = shg_coproduct(t.to_hypergraph(), s)
            assert tubes(ripped).to_hypergraph() == left
            assert tubes(sewn).to_hypergraph() == right


def _all_simple_paths(g, u, v):
    out = []

    def dfs(path):
        last = path[-1]
        if last == v and len(path) > 1:
            out.append(tuple(path))
            return
        for w in sorted(x for e in g.edges if last in e for x in e - {last}):
            if w not in path:
                path.append(w)
                dfs(path)
                path.pop()

    dfs([u])
    return out


def _satisfies_path_condition(g, coloring):
    labels = sorted(g.vertices)
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if coloring[u] != coloring[v]:
                continue
            for path in _all_simple_paths(g, u, v):
                if not any(coloring[w] > coloring[u] for w in path):
                    return False
    return True


def test_path_condition_matches_tube_colorings():
    for labels in ("abc", "abcd"):
        for g in all_graphs(labels):
            hg = tubes(g).to_hypergraph()
            for n in range(4):
                direct = sum(
                    1 for coloring in colorings(g.vertices, n)
                    if _satisfies_path_condition(g, coloring)
                )
                assert direct == chi_eval_colorings(hg, n) == tubes_polynomial(g)(n)


def test_partitioning_forests_examples():
    assert sum(1 for _ in partitioning_forests(SimpleGraph("a"))) == 1
    assert sum(1 for _ in partitioning_forests(SimpleGraph("ab", [("a", "b")]))) == 2
    assert sum(1 for _ in partitioning_forests(PATH3)) == 5
    assert tubes_polynomial(PATH3)(-1) * (-1) ** 3 == 5


def test_partitioning_forests_are_tube_skeletons():
    for labels in ("abc", "abcd"):
        for g in all_graphs(labels):
            assert set(partitioning_forests(g)) == set(skeletons(tubes(g)))


# ---------------------------------------------------------------------------
# set partitions


def test_partition_validation():
    with pytest.raises(ValueError, match="overlap"):
        SetPartition("ab", [("a", "b"), ("b",)])
    with pytest.raises(ValueError, match="cover"):
        SetPartition("ab", [("a",)])
    with pytest.raises(ValueError, match="nonempty"):
        SetPartition("a", [(), ("a",)])


def test_partition_polynomial_examples():
    pi = SetPartition("abc", [("a", "b"), ("c",)])
    assert partition_polynomial(pi) == Polynomial([0, 0, -1, 1])
    singletons = SetPartition("abcd", [("a",), ("b",), ("c",), ("d",)])
    assert partition_polynomial(singletons) == Polynomial.monomial(4)
    block3 = SetPartition("abc", [("a", "b", "c")])
    assert partition_polynomial(block3) == Polynomial([0, 2, -3, 1])


def test_partition_closed_form_matches_generic_invariant():
    partitions = [
        SetPartition("abcd", [("a", "b"), ("c", "d")]),
        SetPartition("abcd", [("a", "b", "c"), ("d",)]),
        SetPartition("abcd", [("a", "b", "c", "d")]),
        SetPartition("abc", [("a",), ("b", "c")]),
    ]
    for pi in partitions:
        assert partition_polynomial(pi) == chi_polynomial(
            pi.cliquey_graph().to_hypergraph()
        )


@pytest.mark.parametrize(
    "coproduct, obj",
    [
        (partition_coproduct, SetPartition("ab", [("a",), ("b",)])),
        (rip_sew_coproduct, SimpleGraph("ab", [("a", "b")])),
        (path_coproduct, PathFamily("ab", [("a", "b")])),
    ],
    ids=["partition", "rip-sew", "path"],
)
def test_coproducts_refuse_a_block_outside_the_vertices(coproduct, obj):
    with pytest.raises(ValueError, match="block is not a subset of the vertices"):
        coproduct(obj, {"a", "z"})
    with pytest.raises(ValueError, match="blocks do not partition"):
        coproduct(obj, {"a"}, {"a", "b"})


def test_partition_coproduct_is_a_morphism_into_ripsew():
    pi = SetPartition("abcd", [("a", "b", "c"), ("d",)])
    for s in nonempty_subsets(pi.vertices):
        left, right = partition_coproduct(pi, s)
        ripped, sewn = rip_sew_coproduct(pi.cliquey_graph(), s)
        assert left.cliquey_graph() == ripped
        assert right.cliquey_graph() == sewn


# ---------------------------------------------------------------------------
# paths


def test_path_family_canonical_direction():
    alpha = PathFamily("abc", [("c", "b", "a")])
    beta = PathFamily("abc", [("a", "b", "c")])
    assert alpha == beta and hash(alpha) == hash(beta)
    assert alpha.paths == (("a", "b", "c"),)
    with pytest.raises(ValueError, match="overlap"):
        PathFamily("ab", [("a", "b"), ("b",)])
    with pytest.raises(ValueError, match="cover"):
        PathFamily("ab", [("a",)])
    with pytest.raises(ValueError, match="repeats"):
        PathFamily("ab", [("a", "b", "a")])


def test_path_coproduct_worked_example():
    alpha = PathFamily("abcdefg", [("b", "f", "c", "g"), ("a", "e", "d")])
    left, right = path_coproduct(alpha, {"b", "c", "e"})
    assert str(left) == "bc|e"
    assert str(right) == "f|g|a|d"
    assert left == PathFamily("bce", [("b", "c"), ("e",)])
    assert right == PathFamily("adfg", [("f",), ("g",), ("a",), ("d",)])


def test_path_coproduct_edge_cases():
    alpha = PathFamily("ab", [("a", "b")])
    left, right = path_coproduct(alpha, alpha.vertices)
    assert left == alpha and right == PathFamily([])
    left, right = path_coproduct(alpha, {"a"})
    assert left == PathFamily("a", [("a",)])
    assert right == PathFamily("b", [("b",)])


def test_path_to_graph():
    alpha = PathFamily("abcdefg", [("b", "f", "c", "g"), ("a", "e", "d")])
    g = path_to_graph(alpha)
    assert g == SimpleGraph(
        "abcdefg",
        [("b", "f"), ("f", "c"), ("c", "g"), ("a", "e"), ("e", "d")],
    )
    assert path_to_graph(PathFamily("ab", [("a",), ("b",)])) == SimpleGraph("ab")
    assert path_to_graph(PathFamily("abc", [("a", "b", "c")])) == PATH3


def test_path_morphism_into_ripsew_coopposite():
    families = [
        PathFamily("abcdefg", [("b", "f", "c", "g"), ("a", "e", "d")]),
        PathFamily("abcd", [("a", "b", "c", "d")]),
        PathFamily("abcd", [("a", "c"), ("b", "d")]),
    ]
    for alpha in families:
        g = path_to_graph(alpha)
        for s in nonempty_subsets(alpha.vertices):
            rest = alpha.vertices - s
            left, right = path_coproduct(alpha, s)
            # co-opposite structure: the restriction side is sewn through
            # the complement, the contraction side is plain ripping
            _, sewn = rip_sew_coproduct(g, rest)
            assert path_to_graph(left) == sewn
            assert path_to_graph(right) == g.induced(rest)


def test_single_path_partitioning_trees_hit_catalan():
    for k in range(1, 9):
        labels = [f"p{i}" for i in range(k)]
        edges = list(zip(labels, labels[1:]))
        forests = list(partitioning_forests(SimpleGraph(labels, edges)))
        assert all(len(f.trees) == 1 for f in forests)
        assert len(forests) == comb(2 * k, k) // (k + 1)


def test_path_polynomial_catalan_values():
    for k in range(1, 8):
        labels = [chr(ord("a") + i) for i in range(k)]
        alpha = PathFamily(labels, [tuple(labels)])
        assert (-1) ** k * path_polynomial(alpha)(-1) == comb(2 * k, k) // (k + 1)


def test_path_tubes_reciprocal_value_is_catalan_up_to_ten_vertices():
    # (-1)^k chi(-1) counts the compatible pairs with one colour, so the
    # level count reaches path sizes whose closed form is too slow
    for k in range(1, 11):
        labels = [f"p{i}" for i in range(k)]
        h = tubes(SimpleGraph(labels, zip(labels, labels[1:]))).to_hypergraph()
        assert count_compatible_pairs(h, 1) == comb(2 * k, k) // (k + 1)


def test_path_polynomial_is_multiplicative_over_paths():
    alpha = PathFamily("abcde", [("a", "b", "c"), ("d", "e")])
    left = path_polynomial(PathFamily("abc", [("a", "b", "c")]))
    right = path_polynomial(PathFamily("de", [("d", "e")]))
    assert path_polynomial(alpha) == left * right


def test_path_polynomial_of_disjoint_paths_from_cold_caches():
    # each path is a connected piece of the tube hypergraph, so chi runs
    # two 5-vertex closed forms, not one over all their interleavings
    a, b = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
    alpha = PathFamily(a + b, [a, b])
    chi_polynomial.cache_clear()
    start = time.perf_counter()
    poly = path_polynomial(alpha)
    elapsed = time.perf_counter() - start
    single = path_polynomial(PathFamily(a, [a]))
    assert poly == single * single
    assert poly(-1) == 42**2  # the fifth Catalan number, once per path
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# relabeling invariance across specializations


def _relabel_graph(g, sigma):
    return SimpleGraph(
        [sigma[v] for v in g.vertices],
        [[sigma[u] for u in e] for e in g.edges],
    )


def test_specialized_invariants_are_relabel_invariant():
    sigma = {"a": "x1", "b": "x2", "c": "x3", "d": "x4"}
    g = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert chromatic_polynomial(g) == chromatic_polynomial(_relabel_graph(g, sigma))
    assert tubes_polynomial(g) == tubes_polynomial(_relabel_graph(g, sigma))
    pi = SetPartition("abcd", [("a", "b", "c"), ("d",)])
    pi2 = SetPartition("wxyz", [("w", "x", "y"), ("z",)])
    assert partition_polynomial(pi) == partition_polynomial(pi2)
    alpha = PathFamily("abc", [("a", "b", "c")])
    beta = PathFamily("xyz", [("x", "y", "z")])
    assert path_polynomial(alpha) == path_polynomial(beta)


def test_disjoint_union_of_building_sets_multiplies():
    b1 = tubes(SimpleGraph("ab", [("a", "b")]))
    b2 = tubes(SimpleGraph("cd", [("c", "d")]))
    merged = BuildingSet("abcd", [tuple(s) for s in (b1.sets | b2.sets)])
    assert building_polynomial(merged) == building_polynomial(b1) * building_polynomial(b2)
    assert chi_polynomial(
        disjoint_union(b1.to_hypergraph(), b2.to_hypergraph())
    ) == building_polynomial(merged)
