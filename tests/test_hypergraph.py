import json
from itertools import product

import pytest
from conftest import (
    antipode_by_compositions,
    component_count,
    exhaustive_hypergraphs,
    nonempty_subsets,
    random_hypergraphs,
    small_hypergraphs,
)
from hypothesis import example, given, settings

from hyperchi import (
    FormalSum,
    Hypergraph,
    acyclic_orientations,
    antipode,
    disjoint_union,
    enumerate_set_compositions,
    iterated_coproduct,
)
from hyperchi.jsonio import SchemaError, parse_object, serialize

EXAMPLE_H = Hypergraph("1234", [{"1", "2", "3"}, {"2", "3", "4"}])


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph("ab", [set()])
    with pytest.raises(ValueError):
        Hypergraph("ab", [{"a", "c"}])
    with pytest.raises(ValueError):
        Hypergraph([1, 2], [{1}])


def test_equality_is_vertexset_and_edge_multiset():
    a = Hypergraph("ab", [{"a", "b"}, {"a"}])
    b = Hypergraph("ab", [{"a"}, {"a", "b"}])
    assert a == b and hash(a) == hash(b)
    # multiplicity matters
    assert Hypergraph("ab", [{"a", "b"}]) != Hypergraph("ab", [{"a", "b"}, {"a", "b"}])
    # same edges over different vertex sets are different hypergraphs
    small = Hypergraph("abc", [{"a", "b"}])
    big = Hypergraph("abcd", [{"a", "b"}])
    assert small != big


def test_restriction():
    r = EXAMPLE_H.restrict({"2", "3", "4"})
    assert r == Hypergraph("234", [{"2", "3", "4"}])
    assert EXAMPLE_H.restrict(EXAMPLE_H.vertices) == EXAMPLE_H
    with pytest.raises(ValueError):
        EXAMPLE_H.restrict({"5"})


def test_contraction():
    c = EXAMPLE_H.contract({"1"})
    assert c == Hypergraph("234", [{"2", "3"}, {"2", "3", "4"}])
    assert EXAMPLE_H.contract(set()) == EXAMPLE_H
    doubled = Hypergraph("ab", [{"a", "b"}, {"a", "b"}])
    assert doubled.contract({"a"}) == Hypergraph("b", [{"b"}, {"b"}])


def test_contraction_preserves_multiplicity_counts():
    for h in random_hypergraphs(25, 4, 4, seed=11):
        for s in nonempty_subsets(h.vertices):
            inside = sum(1 for e in h.edges if e <= s)
            assert len(h.contract(s).edges) == len(h.edges) - inside
            assert len(h.restrict(s).edges) == inside


def test_disjoint_union():
    left = Hypergraph("ab", [{"a", "b"}])
    right = Hypergraph("cd", [{"c"}])
    merged = disjoint_union(left, right)
    assert merged == Hypergraph("abcd", [{"a", "b"}, {"c"}])
    unit = Hypergraph([])
    assert disjoint_union(left, unit) == left
    with pytest.raises(ValueError):
        disjoint_union(Hypergraph("a", [{"a"}]), Hypergraph("a", [{"a"}]))


def test_iterated_coproduct_examples():
    assert iterated_coproduct(EXAMPLE_H, [EXAMPLE_H.vertices]) == (EXAMPLE_H,)
    pieces = iterated_coproduct(EXAMPLE_H, [{"1"}, {"2", "3"}, {"4"}])
    assert pieces == (
        Hypergraph("1"),
        Hypergraph(["2", "3"], [{"2", "3"}]),
        Hypergraph("4", [{"4"}]),
    )
    with pytest.raises(ValueError):
        iterated_coproduct(EXAMPLE_H, [{"1"}, {"2"}])


def test_iterated_coproduct_allows_empty_blocks():
    pieces = iterated_coproduct(EXAMPLE_H, [set(), EXAMPLE_H.vertices, set()])
    assert pieces == (Hypergraph([]), EXAMPLE_H, Hypergraph([]))


def _decompositions_of(vertices, max_len=3):
    vertices = sorted(vertices)
    for n in range(max_len + 1):
        for colors in product(range(n), repeat=len(vertices)):
            blocks = [set() for _ in range(n)]
            for v, c in zip(vertices, colors):
                blocks[c].add(v)
            yield blocks


def test_coassociativity():
    instances = list(random_hypergraphs(8, 4, 3, seed=3)) + [EXAMPLE_H]
    for h in instances:
        for blocks in _decompositions_of(h.vertices):
            whole = iterated_coproduct(h, blocks)
            for cut in range(len(blocks) + 1):
                front = frozenset().union(*blocks[:cut]) if cut else frozenset()
                first = h.restrict(front)
                second = h.contract(front)
                two_step = iterated_coproduct(first, blocks[:cut]) + iterated_coproduct(
                    second, blocks[cut:]
                )
                assert two_step == whole


def test_bimonoid_compatibility():
    # splitting a disjoint union = disjoint union of the splits, for every
    # split (A, B) of one factor and (C, D) of the other, empty parts included
    def subsets(vertices):
        labels = sorted(vertices)
        for mask in range(1 << len(labels)):
            yield frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)

    for hx in random_hypergraphs(5, 3, 2, seed=5):
        for hy in [Hypergraph("xy", [{"x", "y"}]), Hypergraph("x", [{"x"}, {"x"}])]:
            merged = disjoint_union(hx, hy)
            for a in subsets(hx.vertices):
                for c in subsets(hy.vertices):
                    block = a | c
                    assert merged.restrict(block) == disjoint_union(
                        hx.restrict(a), hy.restrict(c)
                    )
                    assert merged.contract(block) == disjoint_union(
                        hx.contract(a), hy.contract(c)
                    )


def test_relabel():
    swap = {"a": "b", "b": "a"}
    h = Hypergraph("ab", [{"a", "b"}])
    assert h.relabel(swap) == h
    assert h.relabel({"a": "a", "b": "b"}) == h
    shifted = EXAMPLE_H.relabel({v: str(int(v) + 10) for v in EXAMPLE_H.vertices})
    assert shifted == Hypergraph(
        ["11", "12", "13", "14"], [{"11", "12", "13"}, {"12", "13", "14"}]
    )
    with pytest.raises(ValueError):
        h.relabel({"a": "c"})
    with pytest.raises(ValueError):
        h.relabel({"a": "c", "b": "c"})


def test_relabel_functorial_and_natural():
    sigma = {"v1": "x", "v2": "y", "v3": "z", "v4": "w"}
    tau = {"x": "p", "y": "q", "z": "r", "w": "s"}
    for h in random_hypergraphs(10, 4, 3, seed=9):
        assert h.relabel(sigma).relabel(tau) == h.relabel(
            {v: tau[sigma[v]] for v in h.vertices}
        )
        for s in nonempty_subsets(h.vertices):
            image = frozenset(sigma[v] for v in s)
            assert h.restrict(s).relabel(sigma) == h.relabel(sigma).restrict(image)
            assert h.contract(s).relabel(sigma) == h.relabel(sigma).contract(image)
        assert h.is_discrete() == h.relabel(sigma).is_discrete()


def test_is_discrete():
    assert Hypergraph("abc").is_discrete()
    assert Hypergraph("ab", [{"a"}, {"b"}, {"a"}]).is_discrete()
    assert not Hypergraph("ab", [{"a", "b"}]).is_discrete()


def test_isolated_vertices():
    assert EXAMPLE_H.isolated_vertices() == frozenset()
    h = Hypergraph("abc", [{"a"}])
    assert h.isolated_vertices() == {"b", "c"}


def test_antipode_examples():
    point = Hypergraph("a", [{"a"}])
    assert antipode(point) == FormalSum({point: -1})

    edge = Hypergraph("ab", [{"a", "b"}])
    expected = FormalSum(
        {
            edge: -1,
            Hypergraph("ab", [{"a"}]): 1,
            Hypergraph("ab", [{"b"}]): 1,
        }
    )
    assert antipode(edge) == expected

    edgeless = Hypergraph("ab")
    assert antipode(edgeless) == FormalSum({edgeless: 1})

    empty = Hypergraph([])
    assert antipode(empty) == FormalSum({empty: 1})


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs(max_vertices=5))
@example(Hypergraph(()))
@example(Hypergraph("abc"))
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
@example(Hypergraph(["é", "Ω", "字", "a", "b"], [{"é", "Ω", "字"}, {"Ω", "a"}, {"b"}]))
def test_antipode_matches_alternating_sum(h):
    faces = antipode(h)
    expected = antipode_by_compositions(h)
    assert faces == expected
    assert list(faces) == list(expected)
    for coefficient, term in faces:
        assert coefficient == (-1) ** component_count(term), term


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(max_vertices=6, max_edges=5))
@example(Hypergraph("ab", [{"a", "b"}, {"a", "b"}, {"a"}]))
@example(Hypergraph("abc", [{"a", "b"}]))
def test_antipode_vertex_terms_are_acyclic_orientations(h):
    # the vertices of the hypergraphic polytope, the terms whose edges are
    # all single vertices, correspond to the acyclic orientations
    # (Benedetti-Bergeron-Machacek, arXiv:1712.08848): the face recursion
    # against the orientation walk, which share no code
    vertices = [c for c, term in antipode(h) if term.is_discrete()]
    assert len(vertices) == sum(1 for _ in acyclic_orientations(h)), h
    assert all(c == (-1) ** len(h.vertices) for c in vertices), h


def test_hopf_antipode_identity():
    # sum over ordered splits (S, T) of merge(antipode(left piece), right piece)
    # annihilates every hypergraph with vertices
    for h in list(random_hypergraphs(6, 3, 3, seed=13)) + [
        Hypergraph("abc", [{"a", "b", "c"}])
    ]:
        total = FormalSum({}, h.vertices)
        labels = sorted(h.vertices)
        for mask in range(1 << len(labels)):
            s = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
            left = h.restrict(s)
            right = h.contract(s)
            for coeff, term in antipode(left):
                total = total + FormalSum(
                    {disjoint_union(term, right): coeff}, h.vertices
                )
        assert not total, h


def test_formal_sum_basics():
    h = Hypergraph("a", [{"a"}])
    zero = FormalSum({h: 1}) + FormalSum({h: -1})
    assert not zero and len(zero) == 0
    assert 3 * FormalSum.of(h) == FormalSum({h: 3})
    with pytest.raises(ValueError):
        FormalSum({h: 1, Hypergraph("b"): 1})


def test_antipode_collapses_terms():
    # every split of an edgeless hypergraph merges back to it, so the
    # ordered-Bell-many terms collapse to a single one
    h = Hypergraph("abc")
    s = antipode(h)
    assert len(s) == 1 and s.coefficient(h) == -1
    # and the coefficient is the signed count of compositions
    signed = sum((-1) ** len(c) for c in enumerate_set_compositions(h.vertices))
    assert signed == -1


def test_json_roundtrip_and_canonical_form():
    d = serialize(EXAMPLE_H)
    assert d == {
        "vertices": ["1", "2", "3", "4"],
        "edges": [["1", "2", "3"], ["2", "3", "4"]],
    }
    assert parse_object(d) == EXAMPLE_H
    # edges come out sorted by (size, labels) with duplicates adjacent
    h = Hypergraph("ab", [{"a", "b"}, {"a"}, {"a", "b"}])
    assert serialize(h)["edges"] == [["a"], ["a", "b"], ["a", "b"]]


@settings(max_examples=200, deadline=None)
@given(small_hypergraphs())
@example(Hypergraph("ab", [{"a", "b"}, {"a"}, {"a", "b"}, {"b"}]))
def test_json_roundtrip_over_small_hypergraphs(h):
    d = serialize(h)
    assert parse_object(d) == h
    assert parse_object(json.dumps(d)) == h
    assert d["edges"] == [sorted(e) for e in h._canon]


def test_json_rejects_malformed():
    with pytest.raises(SchemaError, match="unknown"):
        parse_object({"vertices": ["a"], "edges": [["a", "b"]]})
    with pytest.raises(SchemaError, match="empty"):
        parse_object({"vertices": ["a", "b"], "edges": [[]]})
    with pytest.raises(SchemaError, match="duplicate"):
        parse_object({"vertices": ["a", "a"], "edges": []})
    with pytest.raises(SchemaError, match="duplicate"):
        parse_object({"vertices": ["a", "b"], "edges": [["a", "a"]]})
    with pytest.raises(SchemaError):
        parse_object(json.loads('{"vertices": ["a"]}'))


def test_exhaustive_family_shape():
    family = list(exhaustive_hypergraphs(2, 2))
    # m=0: 1; m=1: 3 multisets of <=2 edges over {{a}}; m=2: 1+3+6=10
    assert len(family) == 1 + 3 + 10
    assert len(set(family)) == len(family)
