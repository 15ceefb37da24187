"""Intransitive trees and their correspondence with decorated permutations."""

import itertools

import pytest

from ewtab.diagrams import enumerate_diagrams
from ewtab.errors import DomainError
from ewtab import oracles, permutations, sandpile, trees

REF_WORD = (6, 9, 5, 4, 2, 1, 3, 7, 8)
REF_DECO = (1, 0, 1, 1, 1, 0, 2, 1, 0)
REF_TREE = (None, 6, 9, 2, 6, 6, 0, 4, 2, 0)


def test_check_tree_accepts(d321):
    trees.check_tree(REF_TREE)
    trees.check_tree((None, 0))


def test_check_tree_rejects():
    with pytest.raises(DomainError):
        trees.check_tree(())
    with pytest.raises(DomainError):
        trees.check_tree((None,))  # needs at least one non-root vertex
    with pytest.raises(DomainError):
        trees.check_tree((0,))  # root must carry None
    with pytest.raises(DomainError):
        trees.check_tree((None, 2, 1))  # cycle
    with pytest.raises(DomainError):
        trees.check_tree((None, 1))  # self loop
    with pytest.raises(DomainError):
        trees.check_tree((None, 5))  # out of range


def test_is_intransitive():
    assert trees.is_intransitive(REF_TREE)
    assert trees.is_intransitive((None, 0))
    # vertex 1 is above 0 and below 2
    assert not trees.is_intransitive((None, 0, 1))


def test_bfs_levels():
    assert trees.bfs_levels(REF_TREE) == (
        (0,), (6, 9), (1, 2, 4, 5), (3, 7, 8))


def test_perm_to_tree_worked_example():
    parents = trees.perm_to_tree(REF_WORD, REF_DECO)
    assert parents == REF_TREE
    # parent/child relations spelled out
    children = {}
    for v, p in enumerate(parents):
        if p is not None:
            children.setdefault(p, set()).add(v)
    assert children[0] == {6, 9}
    assert children[9] == {2}
    assert children[6] == {1, 4, 5}
    assert children[2] == {3, 8}
    assert children[4] == {7}


def test_tree_to_perm_worked_example():
    assert trees.tree_to_perm(REF_TREE) == (REF_WORD, REF_DECO)


def test_perm_to_tree_requires_canonical():
    # letter 6 has exactly one possible parent, so decoration 1 is too big
    assert permutations.canonical_bounds(REF_WORD)[5] == 1
    with pytest.raises(DomainError):
        trees.perm_to_tree(REF_WORD, (1, 0, 1, 1, 1, 1, 2, 1, 0))


def test_tree_to_perm_requires_intransitive():
    with pytest.raises(DomainError):
        trees.tree_to_perm((None, 0, 1))


def test_round_trip_exhaustive():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_recurrent(d):
                w, a = permutations.decorated_from_config(d, c)
                parents = trees.perm_to_tree(w, a)
                assert trees.is_intransitive(parents)
                assert trees.tree_to_perm(parents) == (w, a)
                assert trees.bfs_levels(parents) == (
                    sandpile.canonical_toppling(d, c))


def test_tree_count_identity():
    # canonical decorated permutations on all shapes of semiperimeter n+1
    # hit every intransitive tree on [0, n] exactly once
    for n in range(1, 6):
        produced = set()
        for d in enumerate_diagrams(n + 1):
            for c in oracles.enumerate_recurrent(d):
                w, a = permutations.decorated_from_config(d, c)
                parents = trees.perm_to_tree(w, a)
                assert parents not in produced
                produced.add(parents)
        naive = [
            p for p in oracles._all_prufer_trees(n)
            if oracles._is_intransitive_naive(p)
        ]
        assert len(naive) == len(set(naive))
        assert produced == set(naive)


def test_to_dot():
    text = trees.to_dot(REF_TREE)
    assert text.startswith("digraph tree {")
    assert "0 -> 9" in text
    assert "2 -> 8" in text
    assert text.rstrip().endswith("}")


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 7), (4, 36), (5, 246)])
def test_is_intransitive_matches_naive_on_every_tree(n, count):
    # count: intransitive trees on n + 1 labeled vertices (OEIS A007889)
    found = 0
    for parents in oracles._all_prufer_trees(n):
        fast = trees.is_intransitive(parents)
        assert fast == oracles._is_intransitive_naive(parents)
        found += fast
    assert found == count


def test_bfs_levels_on_a_long_path():
    # 0 - 20000 - 19999 - ... - 1: every vertex hangs below the next larger
    n = 20_000
    path = (None,) + tuple(range(2, n + 1)) + (0,)
    assert trees.bfs_levels(path) == ((0,),) + tuple((v,) for v in range(n, 0, -1))
    closed = path[:n] + (1,)  # the far end points back into the path
    with pytest.raises(DomainError):
        trees.bfs_levels(closed)
