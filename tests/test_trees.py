"""Intransitive trees and their correspondence with decorated permutations."""

import itertools
import random

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


@pytest.mark.parametrize("parent", [True, 1.0])
def test_check_tree_rejects_a_parent_that_is_not_an_int(parent):
    # bool is a subclass of int, but True is no more a vertex than 1.0
    with pytest.raises(DomainError) as e:
        trees.check_tree((None, 0, parent))
    assert str(e.value) == "vertex 2 has invalid parent %r" % (parent,)


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
    blocks = permutations.run_blocks(REF_WORD)
    assert sandpile.canonical_bounds_from_blocks(blocks)[5] == 1
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
            p for p in oracles._all_trees(n)
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
    for parents in oracles._all_trees(n):
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


def reference_depths(parents):
    """Depth of every vertex of a parent array, validating it on the way."""
    n = len(parents) - 1
    if n < 1:
        raise DomainError("a tree needs at least one non-root vertex")
    if parents[0] is not None:
        raise DomainError("the root 0 must have parent None")
    for v in range(1, n + 1):
        p = parents[v]
        if not isinstance(p, int) or not 0 <= p <= n or p == v:
            raise DomainError("vertex %d has invalid parent %r" % (v, p))
    depth = [None] * (n + 1)
    depth[0] = 0
    for v in range(1, n + 1):
        path = []
        u = v
        while depth[u] is None:
            path.append(u)
            depth[u] = -1  # on the current path
            u = parents[u]
        if depth[u] == -1:
            raise DomainError("parent array contains a cycle through %d" % u)
        for w in reversed(path):
            depth[w] = depth[parents[w]] + 1
    return depth


def reference_levels(parents):
    """The levels as a depth walk that marks paths, then buckets."""
    depth = reference_depths(tuple(parents))
    levels = [[] for _ in range(max(depth) + 1)]
    for v, k in enumerate(depth):
        levels[k].append(v)
    return tuple(tuple(level) for level in levels)


def levels_or_error(levels, parents):
    try:
        return levels(parents)
    except DomainError as e:
        return "error: %s" % e


def assert_levels_match_reference(parents):
    """Same levels or the same error text; True when parents is a tree."""
    expected = levels_or_error(reference_levels, parents)
    assert levels_or_error(trees.bfs_levels, parents) == expected, parents
    is_tree = not isinstance(expected, str)
    checked = levels_or_error(trees.check_tree, parents)
    assert checked == (tuple(parents) if is_tree else expected)
    return is_tree


def test_levels_match_reference_on_every_small_array():
    seen = found = 0
    for n in range(6):
        for rest in itertools.product(range(n + 1), repeat=n):
            found += assert_levels_match_reference((None,) + rest)
            seen += 1
    # Cayley: (n + 1)^(n - 1) trees among the (n + 1)^n arrays for n >= 1
    assert (seen, found) == (1 + 2 + 9 + 64 + 625 + 7776, 1 + 3 + 16 + 125 + 1296)


def test_levels_match_reference_on_bad_entries():
    assert_levels_match_reference(())
    for n in range(1, 4):
        for rest in itertools.product(range(n + 1), repeat=n):
            base = (None,) + rest
            for v in range(n + 1):
                for bad in (None, -1, n + 1, "1", v):
                    assert_levels_match_reference(base[:v] + (bad,) + base[v + 1:])


def test_levels_match_reference_on_random_arrays():
    rng = random.Random(14)
    found = 0
    for k in range(2000):
        n = rng.randint(1, 300)
        if k % 2:
            # a random tree: each vertex hangs below one placed before it
            order = [0] + rng.sample(range(1, n + 1), n)
            parents = [None] * (n + 1)
            for i in range(1, n + 1):
                parents[order[i]] = order[rng.randrange(i)]
        else:
            # any parent but the vertex itself: mostly cycles
            parents = [None]
            for v in range(1, n + 1):
                p = rng.randrange(n)
                parents.append(p + (p >= v))
        found += assert_levels_match_reference(tuple(parents))
    assert found >= 1000


@pytest.mark.parametrize("n", range(1, 7))
def test_all_trees_is_cayleys_count(n):
    found = list(oracles._all_trees(n))
    assert len(found) == len(set(found)) == (n + 1) ** (n - 1)
    for parents in found:
        assert trees.check_tree(parents) == parents
