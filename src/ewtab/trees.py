"""Labeled intransitive trees and their decorated-word encoding.

A tree on {0..n} rooted at 0 is intransitive when every vertex is either
smaller than all of its neighbors or greater than all of them. Such trees
correspond exactly to canonically decorated words: the breadth-first levels
of the tree are the blocks of the word, and the decoration of a letter is
the rank of its parent inside the previous level (counting from the
smallest for a letter of an ascending block, from the largest for a letter
of a descending block).

Trees are passed around as parent arrays: a tuple of length n+1 whose entry
at v is the parent of v, with None at the root.
"""

from .errors import DomainError
from . import permutations
from . import sandpile

__all__ = [
    "is_intransitive",
    "check_tree",
    "bfs_levels",
    "perm_to_tree",
    "tree_to_perm",
    "to_dot",
]


def check_tree(parents):
    """Normalize and validate a parent array: entry 0 is None, every other
    entry is a vertex, every vertex reaches the root. Returns the tuple."""
    parents = tuple(parents)
    _levels(parents)
    return parents


def _levels(parents):
    """Vertices of a parent array grouped by depth, each level a sorted
    tuple, validating the array on the way: one breadth-first walk from
    the root over the children lists. A vertex it never reaches lies on or
    below a cycle, named by its first repeated vertex on the parent walk
    from the smallest such vertex."""
    n = len(parents) - 1
    if n < 1:
        raise DomainError("a tree needs at least one non-root vertex")
    if parents[0] is not None:
        raise DomainError("the root 0 must have parent None")
    children = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        p = parents[v]
        if type(p) is not int or not 0 <= p <= n or p == v:
            raise DomainError("vertex %d has invalid parent %r" % (v, p))
        children[p].append(v)
    levels = [(0,)]
    while True:
        level = sorted([v for u in levels[-1] for v in children[u]])
        if not level:
            break
        levels.append(tuple(level))
    if sum(map(len, levels)) <= n:
        seen = {v for level in levels for v in level}
        u = min(v for v in range(n + 1) if v not in seen)
        path = set()
        while u not in path:
            path.add(u)
            u = parents[u]
        raise DomainError("parent array contains a cycle through %d" % u)
    return tuple(levels)


def is_intransitive(parents):
    """True when every vertex compares the same way with all its neighbors:
    no vertex is the smaller end of one edge and the larger end of another."""
    return _intransitive(check_tree(parents))


def _intransitive(parents):
    edges = [(v, p) if v < p else (p, v) for v, p in enumerate(parents) if p is not None]
    return not {lo for lo, _ in edges} & {hi for _, hi in edges}


def bfs_levels(parents):
    """Vertices grouped by depth, each level a sorted tuple; level 0 is
    always (0,)."""
    return _levels(tuple(parents))


def perm_to_tree(word, decorations):
    """Attach each letter of block k to the vertex of block k-1 selected by
    its decoration. Requires a canonical decoration; the result is an
    intransitive tree whose levels are the blocks."""
    word = tuple(int(x) for x in word)
    decorations = tuple(int(a) for a in decorations)
    blocks = permutations.run_blocks(word)
    sandpile.require_canonical(blocks, decorations)
    parents = [None] * (len(word) + 1)
    for k in range(1, len(blocks)):
        prev = permutations.in_block_order(blocks[k - 1], k)
        for x in blocks[k]:
            parents[x] = prev[decorations[x - 1]]
    parents = tuple(parents)  # a tree: each parent is a letter of the previous block
    if not _intransitive(parents):
        raise RuntimeError("tree built from %r is not intransitive" % (word,))
    return parents


def tree_to_perm(parents):
    """Read the word and decorations back off an intransitive tree."""
    parents = tuple(parents)
    levels = _levels(parents)
    if not _intransitive(parents):
        raise DomainError("tree is not intransitive")
    word = permutations.word_from_blocks(levels)
    deco = [0] * len(word)
    for k in range(1, len(levels)):
        prev = permutations.in_block_order(levels[k - 1], k)
        rank = {v: r for r, v in enumerate(prev)}
        for x in levels[k]:
            deco[x - 1] = rank[parents[x]]
    deco = tuple(deco)
    if sandpile.classify_decoration(levels, deco) != "canonical":
        raise RuntimeError("decoration read off the tree is not canonical")
    return word, deco


def to_dot(parents):
    """Graphviz source for the tree, edges pointing away from the root."""
    parents = check_tree(parents)
    n = len(parents) - 1
    lines = ["digraph tree {"]
    for v in range(n + 1):
        lines.append("  %d;" % v)
    for v in range(1, n + 1):
        lines.append("  %d -> %d;" % (parents[v], v))
    lines.append("}")
    return "\n".join(lines) + "\n"
