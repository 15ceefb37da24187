"""Sandpile dynamics on the graph of a Ferrers diagram.

Configurations assign a non-negative grain count to every non-sink vertex
1..n and are stored as tuples of length n, entry v-1 for vertex v. Vertex 0
(the top row) is the sink: it has no height and absorbs grain.

A vertex is unstable when its height reaches its degree; toppling sends one
grain along every incident edge. Stabilization topples until stable. The
model is abelian: the stable result and each vertex's topple count do not
depend on the order of the topples (Dhar, PRL 64, 1990), so stabilization
promises those two and no order.

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
    "check_counts",
    "minimal_from_blocks",
    "canonical_bounds_from_blocks",
    "stable_bounds_from_blocks",
    "classify_decoration",
    "require_canonical",
    "decompose",
]


def check_counts(values, n, what):
    """values as a tuple of n non-negative ints; DomainError otherwise."""
    values = tuple(map(int, values))
    if len(values) != n:
        raise DomainError("expected %d %s, got %d" % (n, what, len(values)))
    if values and min(values) < 0:
        raise DomainError("%s must be non-negative: %r" % (what, values))
    return values


def _check_config(diagram, heights):
    return check_counts(heights, diagram.n, "heights")


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
    """Topple unstable vertices until none remain.

    The unstable vertices wait in a plain list, which the loop reads from
    the front while vertices join at the back; no topple order is
    promised. A vertex read from it topples q = h // deg times at once,
    which is legal because incoming grains only add: a vertex holding
    q * deg grains can topple q times whatever else topples. A neighbour
    joins when that carries it from below its degree to at least its
    degree. So the vertices not yet read are exactly the unstable ones,
    each once, and every vertex read leaves stable.

    Read first in, first out, the reads grew with the number of digits of
    the heights rather than with the heights in every case measured:
    10**20 grains on one vertex of staircase 32 take 43,427 reads. Read
    last in, first out (a stack), grain shuttled between neighbours and
    the reads grew about as fast as the heights. The list keeps one entry
    per read, so its size is bounded by the work done.

    Heights are kept by label, with a slot at 0 that soaks up the sink's
    grain, and the sink gets degree -1, which its slot never reaches: a
    topple walks the diagram's neighbour table with no sink test and no
    shift.

    Returns (stable_heights, topple_counts) where topple_counts maps every
    vertex 1..n to how many times it toppled. The model is abelian, so
    both are those of any order of single topples.
    """
    heights = [0, *_check_config(diagram, heights)]
    n = diagram.n
    degs = (-1, *diagram.degrees)
    neighbors = diagram._neighbors_of
    counts = [0] * (n + 1)
    unstable = [v for v in range(1, n + 1) if heights[v] >= degs[v]]
    for v in unstable:  # which also reaches the vertices appended below
        q, heights[v] = divmod(heights[v], degs[v])
        counts[v] += q
        for u in neighbors[v]:
            h = heights[u]
            heights[u] = h + q
            if h < degs[u] <= h + q:
                unstable.append(u)
    return tuple(heights[1:]), dict(zip(range(1, n + 1), counts[1:]))


def _avalanche(diagram, heights, what):
    """(blocks, got) for stable heights: the canonical blocks (see
    canonical_toppling) and, per vertex label, its neighbors in the earlier
    blocks; None when the avalanche stalls. `what` names the caller's test
    in the error raised for unstable heights, which come checked by the
    caller.

    This is the block core's own count: a vertex topples once its
    neighbors in the earlier blocks number at least its degree minus its
    height. The blocks alternate sides, so each round counts, for the
    waiting vertices of one side, the toppled labels of the other side,
    and the next block is the waiting vertices that have what they need.
    No neighbor tuple is read; every edge is counted once, at its later
    end, which the final check holds against the diagram's edge count.
    """
    need = [0]
    for h, g in zip(heights, diagram.degrees):
        if h >= g:
            raise DomainError("%s needs a stable configuration" % what)
        need.append(g - h)
    got = [0] * len(need)
    # ascending, so that every block comes out sorted
    waiting = [diagram.row_labels[1:], diagram.col_labels[::-1]]
    toppled = [1, 0]  # masks of the toppled rows (the sink) and columns
    blocks = [(0,)]
    column = 1
    while waiting[0] or waiting[1]:
        wait = waiting[column]
        _count_neighbors(got, toppled[1 - column], wait, column)
        block = [v for v in wait if got[v] >= need[v]]
        if not block:
            return None
        waiting[column] = [v for v in wait if got[v] < need[v]]
        toppled[column] |= _mask(block)
        blocks.append(tuple(block))
        column = 1 - column
    if sum(got) != diagram.edge_count:
        raise RuntimeError("avalanche of %r did not count every edge once" % (heights,))
    return tuple(blocks), got


def burning_order(diagram, heights):
    """Order in which vertices burn after the sink topples, or None if the
    avalanche stalls (the configuration is not recurrent). Input must be
    stable. The order is the canonical blocks after the sink, in turn."""
    done = _avalanche(diagram, _check_config(diagram, heights), "burning test")
    return None if done is None else [v for block in done[0][1:] for v in block]


def is_recurrent(diagram, heights):
    return _avalanche(diagram, _check_config(diagram, heights), "burning test") is not None


def canonical_toppling(diagram, heights):
    """Block structure of the canonical avalanche of a recurrent
    configuration.

    The sink topples first, then repeatedly every currently-unstable vertex
    topples simultaneously as one block. Because the graph is bipartite the
    blocks alternate between column-side and row-side vertices. Returns a
    tuple of sorted tuples starting with (0,).
    """
    return _recurrent_avalanche(diagram, _check_config(diagram, heights))[0]


def _recurrent_avalanche(diagram, heights):
    done = _avalanche(diagram, heights, "canonical toppling")
    if done is None:
        raise DomainError("configuration is not recurrent: avalanche stalls")
    return done


def level(diagram, heights):
    """sum(heights) + deg(sink) - #edges; zero exactly on the minimal
    recurrent configurations."""
    heights = _check_config(diagram, heights)
    return sum(heights) + diagram.degree(0) - diagram.edge_count


def minimal_recurrent(diagram, heights):
    """The least recurrent configuration sharing the canonical toppling of
    `heights`. Idempotent: minimal inputs come back unchanged. Each vertex
    holds its degree minus its neighbors in the earlier blocks."""
    got = _recurrent_avalanche(diagram, _check_config(diagram, heights))[1]
    return tuple(g - s for g, s in zip(diagram.degrees, got[1:]))


# The block core, shared by every encoding: functions of the canonical blocks
# alone. Blocks at odd positions hold columns and blocks at even positions
# hold rows (the sink block (0,) is a row block), so no diagram is needed: a
# column's neighbors are the smaller row labels, a row's the larger columns.


def _mask(labels):
    mask = 0
    for v in labels:
        mask |= 1 << v
    return mask


def _bits(mask):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _count_neighbors(out, mask, block, column):
    """out[v] = how many labels of mask are neighbors of v, for every v of
    the block: the smaller labels for a column block, the larger ones for a
    row block."""
    if column:
        for v in block:
            out[v] = (mask & ((1 << v) - 1)).bit_count()
    else:
        for v in block:
            out[v] = (mask >> v).bit_count()


def _neighbors_seen(blocks, order):
    """Per vertex, its neighbors in the blocks visited before its own when
    the blocks are visited in the given order of positions."""
    out = [0] * sum(map(len, blocks))
    seen = [0, 0]  # labels of the visited row blocks, column blocks
    for k in order:
        column = k % 2
        _count_neighbors(out, seen[1 - column], blocks[k], column)
        seen[column] |= _mask(blocks[k])
    return tuple(out[1:])


def minimal_from_blocks(blocks):
    """The minimal recurrent configuration with these canonical blocks: each
    vertex holds as many grains as it has neighbors in the later blocks,
    so that it becomes unstable just as its last earlier neighbor topples."""
    return _neighbors_seen(blocks, range(len(blocks) - 1, -1, -1))


def stable_bounds_from_blocks(blocks):
    """Degree minus minimal height, per vertex: its neighbors in the earlier
    blocks. Decorations strictly below these bounds keep the configuration
    stable."""
    return _neighbors_seen(blocks, range(len(blocks)))


def canonical_bounds_from_blocks(blocks):
    """Each vertex's neighbors in the block just before its own. Decorations
    strictly below these bounds are exactly the ones that leave the
    canonical toppling unchanged."""
    out = [0] * sum(map(len, blocks))
    for k in range(1, len(blocks)):
        _count_neighbors(out, _mask(blocks[k - 1]), blocks[k], k % 2)
    return tuple(out[1:])


def classify_decoration(blocks, decorations):
    """'canonical' when every decoration is below its canonical bound,
    'stable' when below its stable bound only, 'invalid' otherwise. The
    decorations must be one per vertex and non-negative."""
    canonical = canonical_bounds_from_blocks(blocks)
    decorations = check_counts(decorations, len(canonical), "decorations")
    if all(a < b for a, b in zip(decorations, canonical)):
        return "canonical"
    if all(a < b for a, b in zip(decorations, stable_bounds_from_blocks(blocks))):
        return "stable"
    return "invalid"


def require_canonical(blocks, decorations):
    """DomainError unless classify_decoration calls the decorations
    canonical for these blocks."""
    kind = classify_decoration(blocks, decorations)
    if kind != "canonical":
        raise DomainError("decoration is %s, not canonical" % kind)


def decompose(diagram, heights):
    """(blocks, decorations) of a recurrent configuration: its canonical
    blocks and its surplus over the minimal configuration of those blocks,
    read off the avalanche's own count (the minimal height is the degree
    minus the neighbors in the earlier blocks). The decorations are
    canonical."""
    heights = _check_config(diagram, heights)
    blocks, got = _recurrent_avalanche(diagram, heights)
    deco = tuple(h + s - g for h, s, g in zip(heights, got[1:], diagram.degrees))
    if any(a < 0 for a in deco):
        raise RuntimeError("%r lies below its minimal configuration" % (heights,))
    return blocks, deco
