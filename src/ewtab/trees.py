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
    _depths(parents)
    return parents


def _depths(parents):
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


def is_intransitive(parents):
    """True when every vertex compares the same way with all its neighbors:
    no vertex is the smaller end of one edge and the larger end of another."""
    return _intransitive(check_tree(parents))


def _intransitive(parents):
    edges = [sorted((v, p)) for v, p in enumerate(parents) if p is not None]
    return not {lo for lo, _ in edges} & {hi for _, hi in edges}


def bfs_levels(parents):
    """Vertices grouped by depth, each level a sorted tuple; level 0 is
    always (0,)."""
    return _levels(_depths(tuple(parents)))


def _levels(depth):
    levels = [[] for _ in range(max(depth) + 1)]
    for v, k in enumerate(depth):
        levels[k].append(v)
    return tuple(tuple(level) for level in levels)


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
    parents = tuple(parents)
    if not is_intransitive(parents):
        raise RuntimeError("tree built from %r is not intransitive" % (word,))
    return parents


def tree_to_perm(parents):
    """Read the word and decorations back off an intransitive tree."""
    parents = tuple(parents)
    depth = _depths(parents)
    if not _intransitive(parents):
        raise DomainError("tree is not intransitive")
    levels = _levels(depth)
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
