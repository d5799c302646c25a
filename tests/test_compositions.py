from itertools import permutations

import pytest
from conftest import all_digraphs
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperchi
from hyperchi import (
    SetComposition,
    SetDecomposition,
    enumerate_decompositions,
    enumerate_set_compositions,
    refinements,
    shuffles,
    signed_constrained_sum,
    orientations,
    surjection_count,
)
from hyperchi.compositions import _allowed_blocks, colorings, from_coloring, is_acyclic_arcs

ORDERED_BELL = [1, 1, 3, 13, 75]


def test_decomposition_validation():
    d = SetDecomposition([{"a"}, set(), {"b"}])
    assert len(d) == 3 and d.index_of("b") == 2
    with pytest.raises(ValueError):
        SetDecomposition([{"a"}, {"a"}])
    with pytest.raises(ValueError):
        SetDecomposition([{"a"}], ground={"a", "b"})
    with pytest.raises(ValueError):
        SetComposition([{"a"}, set()])


def test_cano_and_coloring_roundtrip():
    d = SetDecomposition([{"b"}, set(), {"a", "c"}])
    assert d.cano().blocks == (frozenset("b"), frozenset({"a", "c"}))
    back = from_coloring(d.coloring(), 3)
    assert back == d


def test_enumerate_set_compositions_counts():
    assert [c.blocks for c in enumerate_set_compositions({"a"})] == [(frozenset("a"),)]
    two = {tuple(c.blocks) for c in enumerate_set_compositions({"a", "b"})}
    assert two == {
        (frozenset({"a", "b"}),),
        (frozenset({"a"}), frozenset({"b"})),
        (frozenset({"b"}), frozenset({"a"})),
    }
    for m, expected in enumerate(ORDERED_BELL):
        ground = [f"x{i}" for i in range(m)]
        comps = list(enumerate_set_compositions(ground))
        assert len(comps) == expected
        assert len(set(comps)) == expected  # no duplicates
        assert expected == sum(surjection_count(k, m) for k in range(m + 1))


def test_enumerate_decompositions_counts():
    assert sum(1 for _ in enumerate_decompositions({"a", "b"}, 2)) == 4
    empties = list(enumerate_decompositions(set(), 3))
    assert len(empties) == 1 and empties[0].blocks == (frozenset(),) * 3
    assert sum(1 for _ in enumerate_decompositions({"a", "b", "c"}, 2)) == 8
    assert sum(1 for _ in enumerate_decompositions({"a"}, 0)) == 0


def test_decompositions_come_in_coloring_order():
    for m in range(4):
        ground = [f"g{i}" for i in range(m)]
        for n in range(4):
            decomps = [d.coloring() for d in enumerate_decompositions(ground, n)]
            assert decomps == list(colorings(ground, n)), (m, n)
    assert hyperchi.colorings is orientations.colorings is colorings


def _forward_in_some_order(labels, arcs) -> bool:
    for order in permutations(labels):
        position = {v: i for i, v in enumerate(order)}
        if all(position[u] < position[w] for u, w in arcs):
            return True
    return False


def test_is_acyclic_arcs_matches_bruteforce():
    for m in range(5):
        labels = [f"g{i}" for i in range(m)]
        for arcs in all_digraphs(labels):
            assert is_acyclic_arcs(labels, arcs) == _forward_in_some_order(labels, arcs), arcs
    assert not is_acyclic_arcs({"a", "b"}, [("a", "a")])
    assert not is_acyclic_arcs({"a", "b"}, [("a", "b"), ("b", "b")])
    assert is_acyclic_arcs({"a", "b"}, [("a", "b"), ("a", "b")])
    with pytest.raises(ValueError, match="leaves the vertex set"):
        is_acyclic_arcs({"a"}, [("a", "b")])
    with pytest.raises(ValueError, match="leaves the vertex set"):
        is_acyclic_arcs({"a"}, [("a", "a"), ("c", "a")])


def test_refinements_match_filter():
    ground = ["a", "b", "c", "d"]
    comps = list(enumerate_set_compositions(ground))

    def refines(q, p):
        try:
            idx = [
                {p.index_of(v) for v in block}.pop() if len({p.index_of(v) for v in block}) == 1 else None
                for block in q.blocks
            ]
        except KeyError:
            return False
        if None in idx:
            return False
        return all(idx[i] <= idx[i + 1] for i in range(len(idx) - 1))

    for p in [SetComposition([{"a", "b"}, {"c", "d"}]), SetComposition([{"a", "b", "c", "d"}]),
              SetComposition([{"c"}, {"a", "b", "d"}])]:
        got = {q.blocks for q in refinements(p)}
        want = {q.blocks for q in comps if refines(q, p)}
        assert got == want


def test_shuffles_match_restriction_filter():
    p = SetComposition([{"a"}, {"b"}])
    q = SetComposition([{"x", "y"}])
    got = {r.blocks for r in shuffles(p, q)}
    want = {
        r.blocks
        for r in enumerate_set_compositions({"a", "b", "x", "y"})
        if r.restrict(p.ground).cano() == p and r.restrict(q.ground).cano() == q
    }
    assert got == want
    with pytest.raises(ValueError):
        list(shuffles(p, SetComposition([{"a"}])))


def test_shuffles_signed_sum():
    # interleavings of two chains carry the product sign
    cases = [
        (SetComposition([{"a"}, {"b"}]), SetComposition([{"x"}])),
        (SetComposition([{"a", "b"}]), SetComposition([{"x"}, {"y"}, {"z"}])),
        (SetComposition([{"a"}, {"b"}]), SetComposition([{"x", "y"}, {"z"}])),
    ]
    for p, q in cases:
        signed = sum((-1) ** len(r) for r in shuffles(p, q))
        assert signed == (-1) ** (len(p) + len(q))


def test_signed_constrained_sum_examples():
    p2 = SetComposition([{"a", "b"}])
    assert signed_constrained_sum({"a", "b"}, [], p2) == 1
    assert signed_constrained_sum({"a", "b"}, [("a", "b")], SetComposition([{"b"}, {"a"}])) == 0
    p3 = SetComposition([{"a", "b", "c"}])
    assert signed_constrained_sum({"a", "b", "c"}, [("a", "c"), ("b", "c")], p3) == -1


def test_signed_constrained_sum_rejects_cycles():
    p = SetComposition([{"a", "b"}])
    with pytest.raises(ValueError):
        signed_constrained_sum({"a", "b"}, [("a", "b"), ("b", "a")], p)
    with pytest.raises(ValueError):
        signed_constrained_sum({"a", "b"}, [("a", "a")], p)


def _bruteforce(ground, arcs, p):
    total = 0
    comps = enumerate_set_compositions(ground)
    for q in comps:
        ok = True
        for block in q.blocks:
            owners = {p.index_of(v) for v in block}
            if len(owners) != 1:
                ok = False
                break
        if not ok:
            continue
        idx = [p.index_of(next(iter(block))) for block in q.blocks]
        if any(idx[i] > idx[i + 1] for i in range(len(idx) - 1)):
            continue
        if all(q.index_of(u) < q.index_of(w) for u, w in arcs):
            total += (-1) ** len(q)
    return total


def test_signed_constrained_sum_vs_bruteforce_small():
    ground = ["a", "b", "c"]
    for arcs in all_digraphs(ground):
        if not is_acyclic_arcs(ground, arcs):
            continue
        for p in enumerate_set_compositions(ground):
            got = signed_constrained_sum(ground, arcs, p)
            assert got == _bruteforce(ground, arcs, p)
            violated = any(p.index_of(w) < p.index_of(u) for u, w in arcs)
            assert got == (0 if violated else (-1) ** len(ground))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=127),
       st.lists(st.integers(min_value=1, max_value=127), max_size=6))
def test_allowed_blocks_are_the_blocks_meeting_each_set_at_most_once(ground, sets):
    blocks = _allowed_blocks(ground, sets)
    expected = [t for t in range(1, ground + 1) if not t & ~ground
                and all((t & s).bit_count() <= 1 for s in sets)]
    assert sorted(blocks) == expected
