"""Sandpile dynamics on the graph of a Ferrers diagram.

Configurations assign a non-negative grain count to every non-sink vertex
1..n and are stored as tuples of length n, entry v-1 for vertex v. Vertex 0
(the top row) is the sink: it has no height and absorbs grain.

A vertex is unstable when its height reaches its degree; toppling sends one
grain along every incident edge. Stabilization topples until stable, and the
result does not depend on the order (the model is abelian); the implementation
always picks the smallest unstable vertex so runs are reproducible.

A stable configuration is recurrent when toppling the sink starts an avalanche
in which every vertex topples exactly once, returning to the start (the
burning test). Canonical toppling refines this: after the sink, all currently
unstable vertices are toppled together as one block, and the resulting ordered
partition of 0..n is what the tableau and permutation encodings are built on.
"""

from .errors import DomainError

__all__ = [
    "is_stable",
    "topple",
    "stabilize",
    "is_recurrent",
    "burning_order",
    "canonical_toppling",
    "level",
    "minimal_recurrent",
    "canonical_bounds",
]


def _check_config(diagram, heights):
    heights = tuple(int(h) for h in heights)
    if len(heights) != diagram.n:
        raise DomainError(
            "expected %d heights for %r, got %d" % (diagram.n, diagram.parts, len(heights))
        )
    if any(h < 0 for h in heights):
        raise DomainError("heights must be non-negative: %r" % (heights,))
    return heights


def is_stable(diagram, heights):
    heights = _check_config(diagram, heights)
    return all(h < g for h, g in zip(heights, diagram.degrees))


def topple(diagram, heights, v):
    """Topple vertex v once. v may be the sink (0), which topples
    unconditionally; any other vertex must be unstable."""
    heights = _check_config(diagram, heights)
    nbrs = diagram.neighbors(v)  # raises DomainError for a non-vertex
    new = list(heights)
    if v != 0:
        if heights[v - 1] < diagram.degrees[v - 1]:
            raise DomainError("vertex %d is stable, cannot topple" % v)
        new[v - 1] -= diagram.degrees[v - 1]
    for u in nbrs:
        if u != 0:
            new[u - 1] += 1
    return tuple(new)


def stabilize(diagram, heights):
    """Topple unstable vertices (smallest first) until none remain.

    Returns (stable_heights, topple_counts) where topple_counts maps every
    vertex 1..n to how many times it toppled.
    """
    heights = list(_check_config(diagram, heights))
    n = diagram.n
    degs = diagram.degrees
    counts = {v: 0 for v in range(1, n + 1)}
    while True:
        for v in range(1, n + 1):
            if heights[v - 1] >= degs[v - 1]:
                heights[v - 1] -= degs[v - 1]
                for u in diagram.neighbors(v):
                    if u != 0:
                        heights[u - 1] += 1
                counts[v] += 1
                break
        else:
            return tuple(heights), counts


def burning_order(diagram, heights):
    """Order in which vertices burn after the sink topples, or None if the
    avalanche stalls (the configuration is not recurrent). Input must be
    stable. Vertices are scanned in ascending order in every round."""
    heights = _check_config(diagram, heights)
    if not is_stable(diagram, heights):
        raise DomainError("burning test needs a stable configuration")
    n = diagram.n
    degs = diagram.degrees
    work = list(heights)
    for u in diagram.neighbors(0):
        work[u - 1] += 1
    burned = [False] * (n + 1)
    burned[0] = True
    order = []
    progress = True
    while progress:
        progress = False
        for v in range(1, n + 1):
            if not burned[v] and work[v - 1] >= degs[v - 1]:
                burned[v] = True
                order.append(v)
                work[v - 1] -= degs[v - 1]
                for u in diagram.neighbors(v):
                    if u != 0:
                        work[u - 1] += 1
                progress = True
    if len(order) == n and tuple(work) == heights:
        return order
    return None


def is_recurrent(diagram, heights):
    return burning_order(diagram, heights) is not None


def canonical_toppling(diagram, heights):
    """Block structure of the canonical avalanche of a recurrent
    configuration.

    The sink topples first, then repeatedly every currently-unstable vertex
    topples simultaneously as one block. Because the graph is bipartite the
    blocks alternate between column-side and row-side vertices. Returns a
    tuple of sorted tuples starting with (0,).
    """
    heights = _check_config(diagram, heights)
    if not is_stable(diagram, heights):
        raise DomainError("canonical toppling needs a stable configuration")
    n = diagram.n
    degs = diagram.degrees
    work = list(heights)
    for u in diagram.neighbors(0):
        work[u - 1] += 1
    toppled = [False] * (n + 1)
    toppled[0] = True
    blocks = [(0,)]
    done = 1
    while done < n + 1:
        block = [
            v
            for v in range(1, n + 1)
            if not toppled[v] and work[v - 1] >= degs[v - 1]
        ]
        if not block:
            raise DomainError("configuration is not recurrent: avalanche stalls")
        for v in block:
            toppled[v] = True
            work[v - 1] -= degs[v - 1]
            for u in diagram.neighbors(v):
                if u != 0:
                    work[u - 1] += 1
        blocks.append(tuple(block))
        done += len(block)
    if tuple(work) != heights:
        raise RuntimeError("avalanche of %r did not return to the start" % (heights,))
    return tuple(blocks)


def level(diagram, heights):
    """sum(heights) + deg(sink) - #edges; zero exactly on the minimal
    recurrent configurations."""
    heights = _check_config(diagram, heights)
    return sum(heights) + diagram.degree(0) - diagram.edge_count


def _side_blocks(diagram, blocks):
    """Split canonical blocks into (col_blocks, row_blocks), keeping order.

    col_blocks[k] is the k-th block of column-side vertices (1-indexed in the
    math, 0-indexed here); row_blocks likewise, with the sink block dropped.
    """
    col_blocks = []
    row_blocks = []
    for b in blocks[1:]:
        if diagram.is_col(b[0]):
            col_blocks.append(b)
        else:
            row_blocks.append(b)
    return col_blocks, row_blocks


def minimal_recurrent(diagram, heights):
    """The least recurrent configuration sharing the canonical toppling of
    `heights`. Idempotent: minimal inputs come back unchanged."""
    blocks = canonical_toppling(diagram, heights)
    return _config_from_blocks(diagram, blocks)


def _config_from_blocks(diagram, blocks):
    col_blocks, row_blocks = _side_blocks(diagram, blocks)
    out = [0] * diagram.n
    for bi, block in enumerate(row_blocks):
        for v in block:
            # columns toppling after v's block, larger than v
            out[v - 1] = sum(
                1 for later in col_blocks[bi + 1 :] for u in later if u > v
            )
    for bi, block in enumerate(col_blocks):
        for v in block:
            # rows toppling in v's round or later, smaller than v
            out[v - 1] = sum(
                1 for blk in row_blocks[bi:] for u in blk if u < v
            )
    return tuple(out)


def canonical_bounds(diagram, heights):
    """For each vertex, its number of neighbors in the immediately preceding
    canonical block. Decorations strictly below these bounds are exactly the
    ones that leave the canonical toppling unchanged."""
    blocks = canonical_toppling(diagram, heights)
    col_blocks, row_blocks = _side_blocks(diagram, blocks)
    out = [0] * diagram.n
    for bi, block in enumerate(row_blocks):
        for v in block:
            out[v - 1] = sum(1 for u in col_blocks[bi] if u > v)
    for bi, block in enumerate(col_blocks):
        prev = (0,) if bi == 0 else row_blocks[bi - 1]
        for v in block:
            out[v - 1] = sum(1 for u in prev if u < v)
    return tuple(out)
