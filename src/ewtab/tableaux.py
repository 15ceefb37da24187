"""0/1 tableaux on Ferrers shapes and their sandpile meaning.

An EW-tableau is a 0/1 filling where the top row is all 1s, every other row
has at least one 0, and no rectangle of four cells carries 0s on one diagonal
and 1s on the other. These fillings are in bijection with the minimal
recurrent configurations of the diagram's graph: the configuration reads off
as the number of 1s in each non-top row and the number of 0s in each column.

The cell in row i and column j records which of the two vertices topples
first in the canonical avalanche (1 when the row precedes the column). The
supplementary tableau extends that comparison to every row/column pair,
including pairs without a cell, as a full rectangular 0/1 grid whose
restriction to the shape is the tableau itself.
"""

from functools import cached_property
from itertools import zip_longest

from .errors import DomainError
from . import sandpile
from .sandpile import _bits

__all__ = [
    "EWTableau",
    "Supplementary",
    "validate",
    "ensure_valid",
    "minimal_config",
    "from_blocks",
    "from_minimal_config",
    "canonical_toppling",
    "supplementary",
    "supplementary_entry",
    "corner_support",
    "canonical_bounds",
    "decorated_from_config",
    "config_from_decorated",
]


def _digits(row):
    """A sequence of 0/1 ints as a string of 0s and 1s."""
    row = tuple(map(int, row))
    if not {0, 1}.issuperset(row):
        raise DomainError("entries must be 0 or 1")
    return "".join(map(str, row))


def _row_string(mask, width):
    """Positions 0..width-1 of mask as a string of 0s and 1s, left to right
    (a 1 above them keeps the leading 0s)."""
    return bin(mask | 1 << width)[:2:-1]


class EWTableau:
    """A 0/1 filling of a Ferrers shape.

    `rows[i][x]` is the entry of the i-th row (top to bottom) at column
    position x (left to right). Each row is given as a string of 0s and 1s
    or as a sequence of 0/1 ints, and is read in base 2 once its entries
    are checked, since int() would also read "1_0" or " +10 ". Construction
    checks only that the filling fits the shape; use
    validate()/ensure_valid() for the EW conditions. The filling never
    changes: each tableau keeps one mask per row (bit x for column position
    x) and, once first needed, the rows and its toppling scan.
    """

    def __init__(self, diagram, rows):
        rows = [row if isinstance(row, str) else _digits(row) for row in rows]
        parts = diagram.parts
        if len(rows) != len(parts):
            raise DomainError("expected %d rows, got %d" % (len(parts), len(rows)))
        for i, (row, p) in enumerate(zip(rows, parts)):
            if len(row) != p:
                raise DomainError("row %d must have %d entries, got %d" % (i, p, len(row)))
        text = "".join(rows)
        if not text.isascii() or text.encode().translate(None, b"01"):
            raise DomainError("entries must be 0 or 1")
        self.diagram = diagram
        self._masks = tuple(int(row[::-1], 2) for row in rows)

    @cached_property
    def rows(self):
        return tuple(tuple(map(int, row)) for row in self.row_strings())

    def entry(self, i, j):
        """Entry at row label i, column label j (the labels, not positions)."""
        d = self.diagram
        ri, x = d.row_index(i), d.col_index(j)
        if x >= d.parts[ri]:
            raise DomainError("no cell at row %d, column %d" % (i, j))
        return self._masks[ri] >> x & 1

    def row_strings(self):
        return tuple(map(_row_string, self._masks, self.diagram.parts))

    @cached_property
    def _blocks(self):
        return _toppling_scan(self)

    def __eq__(self, other):
        return isinstance(other, EWTableau) and (self.diagram, self._masks) == (
            other.diagram, other._masks)

    def __hash__(self):
        return hash((self.diagram, self._masks))

    def __repr__(self):
        return "EWTableau(%r, %r)" % (self.diagram.parts, "/".join(self.row_strings()))


def _scan_completes(t):
    """Whether the toppling scan of t completes, which it does exactly on
    EW-tableaux (see ensure_valid)."""
    try:
        t._blocks
    except DomainError:
        return False
    return True


def validate(t):
    """Structured report of every EW-condition violation; empty means valid.

    Three rules are checked separately:
      top-row-ones     the top row contains only 1s
      row-has-zero     every non-top row contains a 0
      rectangle        no four-cell rectangle has 0s on one diagonal and 1s
                       on the other

    The toppling scan decides (see ensure_valid), so an EW-tableau checks
    no rule; only a refused filling is run through the rules. There the
    rectangles alone can number about width**4; ensure_valid stops at the
    first entry instead.
    """
    return [] if _scan_completes(t) else list(_violations(t))


def _violations(t):
    """The entries of validate(t), in the same order, one at a time."""
    masks = t._masks
    cells = t.diagram._cells
    for x in _bits(cells[0] & ~masks[0]):
        yield {"rule": "top-row-ones", "row": 0, "x": x}
    for i in range(1, len(masks)):
        if masks[i] == cells[i]:
            yield {"rule": "row-has-zero", "row": i}
    for i, top in enumerate(masks):
        for i2 in range(i + 1, len(masks)):
            lower = masks[i2]
            upper = top & cells[i2]  # the lower row is never longer
            # A bad rectangle pairs a column where only row i has a 1 with
            # one where only row i2 does, so it exists exactly when neither
            # row's 1-set contains the other's.
            both = upper | lower
            if both == upper or both == lower:
                continue
            only_upper, only_lower = both & ~lower, both & ~upper
            for x in _bits(only_upper | only_lower):
                other = only_lower if only_upper >> x & 1 else only_upper
                for x2 in _bits(other >> x + 1):
                    yield {"rule": "rectangle", "rows": (i, i2), "cols": (x, x + 1 + x2)}


def ensure_valid(t):
    """Return t if it is an EW-tableau; otherwise raise DomainError naming
    its first violation, validate(t)[0].

    The toppling scan decides, once per tableau; the rules run only to name
    the problem of a refused filling. The scan completes exactly on
    EW-tableaux. If it completes, every cell matches its blocks: a 1 at
    (i, j) keeps column j waiting until row i is recorded and a 0 keeps row
    i waiting until column j is, so the cell is 1 exactly when the row's
    block comes first, and the filling is from_blocks of the scan's blocks,
    which has no bad rectangle (see from_blocks). blocks[0] == (0,) then
    puts the top row before every column, so it is all 1s, and keeps every
    other row out of the first round, so it has a 0. Conversely, if the
    first block is not (0,), the top row has a 0 or another row is all 1s.
    If the scan stalls, each waiting row has a 0 in a waiting column and
    each waiting column a 1 in a waiting row, so those cells close a cycle
    of rows and columns. The longest row on a shortest such cycle has a
    cell in each of its columns, and a cell in a third column would close a
    shorter cycle, so the cycle has two rows and two columns: a bad
    rectangle.
    """
    if not _scan_completes(t):
        problem = next(_violations(t), None)
        if problem is None:
            raise RuntimeError("the toppling scan refused a filling that breaks no EW rule")
        raise DomainError("not an EW-tableau: %r" % (problem,))
    return t


def minimal_config(t):
    """The minimal recurrent configuration encoded by the tableau: row
    vertices get their count of 1s, column vertices their count of 0s."""
    d = t.diagram
    out = [0] * d.n
    for label, m in zip(d.row_labels, t._masks):
        if label:
            out[label - 1] = m.bit_count()
    for label, col in zip(d.col_labels, zip_longest(*t.row_strings(), fillvalue="")):
        out[label - 1] = d.degrees[label - 1] - col.count("1")
    return tuple(out)


def _suffix_unions(diagram, blocks):
    """Per row position, the mask of the column positions whose block comes
    after the row's block: one pass over the blocks from the last."""
    col_index, row_index = diagram._col_index, diagram._row_index
    out = [None] * len(diagram.parts)
    later = 0
    for block in reversed(blocks):
        for v in block:
            if v in row_index:
                out[row_index[v]] = later
        later |= sum(1 << col_index[v] for v in block if v in col_index)
    return out


def from_blocks(diagram, blocks):
    """The EW-tableau of an ordered partition of the labels 0..n: cell (i, j)
    is 1 exactly when row i's block precedes column j's block. Raises
    DomainError when the blocks do not partition the labels or the filling
    breaks an EW condition.

    No ordered partition gives a bad rectangle. With b(v) the block of v,
    one on rows i, i2 and columns x, x2 would need b(i) < b(x) <= b(i2) <
    b(x2) <= b(i) or b(x) <= b(i) < b(x2) <= b(i2) < b(x), both cycles. So
    only top-row-ones and row-has-zero can fail, each a compare of a row's
    mask with its cells. A refused filling goes to ensure_valid, whose scan
    refuses it too; the problem it names, validate's first entry, is one of
    those two, since validate lists them before any rectangle.
    """
    labels = [v for block in blocks for v in block]
    if len(labels) != diagram.n + 1 or set(labels) != set(range(diagram.n + 1)):
        raise DomainError("blocks do not partition the labels 0..%d" % diagram.n)
    cells = diagram._cells
    masks = map(int.__and__, _suffix_unions(diagram, blocks), cells)
    t = EWTableau(diagram, list(map(_row_string, masks, diagram.parts)))
    if t._masks[0] != cells[0] or any(map(int.__eq__, t._masks[1:], cells[1:])):
        ensure_valid(t)  # which refuses it too, and names the first problem
    return t


def from_minimal_config(diagram, heights):
    """Inverse of minimal_config; the input must be a minimal recurrent
    configuration (it is checked to reproduce itself)."""
    t = from_blocks(diagram, sandpile.canonical_toppling(diagram, heights))
    if minimal_config(t) != tuple(heights):
        raise DomainError("configuration is not minimal recurrent")
    return t


def canonical_toppling(t):
    """Canonical avalanche blocks computed from the tableau alone.

    Record the all-1s rows (the top row first), zero them out; record the
    columns that became all 0s, set them to 1; repeat until every label is
    recorded. Already-recorded rows and columns are ignored by the scans.
    Equals the sandpile canonical toppling of minimal_config(t). Each
    tableau runs the scan once and keeps its blocks.
    """
    return t._blocks


def _toppling_scan(t):
    # On the kept row masks, with the filling never rewritten:
    # an unrecorded row is ready once its 0s lie in recorded columns, an
    # unrecorded column once no unrecorded row has a 1 in it.
    d = t.diagram
    masks = t._masks
    zeros = [c & ~r for c, r in zip(d._cells, masks)]
    rows, todo_cols = list(range(len(masks))), d._cells[0]
    blocks = []
    while rows or todo_cols:
        ready_rows = [i for i in rows if not zeros[i] & todo_cols]
        if ready_rows:
            blocks.append(tuple(sorted(d.row_labels[i] for i in ready_rows)))
            rows = [i for i in rows if zeros[i] & todo_cols]
        live = 0
        for i in rows:
            live |= masks[i]
        ready_cols = todo_cols & ~live
        if ready_cols:
            blocks.append(tuple(sorted(d.col_labels[x] for x in _bits(ready_cols))))
            todo_cols ^= ready_cols
        if not ready_rows and not ready_cols:
            raise DomainError("not an EW-tableau: toppling scan stalls")
    if 0 not in blocks[0]:  # the top row is all 1s exactly when 0 is
        raise DomainError("not an EW-tableau: the top row holds a 0")
    if blocks[0] != (0,):
        raise DomainError("not an EW-tableau: a non-top row starts all 1s")
    return tuple(blocks)


class Supplementary:
    """Full rectangular 0/1 comparison grid over all row/column label pairs.

    entry(i, j) is 1 exactly when row i topples before column j in the
    canonical avalanche. Restricted to cells of the shape it coincides with
    the tableau it was built from.
    """

    def __init__(self, diagram, grid):
        self.diagram = diagram
        self.grid = tuple(tuple(row) for row in grid)

    def entry(self, i, j):
        return self.grid[self.diagram.row_index(i)][self.diagram.col_index(j)]

    def row_strings(self):
        return tuple("".join(str(b) for b in row) for row in self.grid)

    def __eq__(self, other):
        return isinstance(other, Supplementary) and (self.diagram, self.grid) == (
            other.diagram, other.grid)

    def __repr__(self):
        return "Supplementary(%r, %r)" % (self.diagram.parts, "/".join(self.row_strings()))


def supplementary(t):
    """Build the supplementary grid from the canonical toppling blocks."""
    d = t.diagram
    grid = _suffix_unions(d, t._blocks)
    return Supplementary(d, [map(int, _row_string(g, d.parts[0])) for g in grid])


def supplementary_entry(t, i, j):
    """Entry of the supplementary grid at row i, column j with i > j,
    computed locally from the tableau without any toppling.

    The entry is 0 exactly when some column k' > i has a 0 in row i and
    every row above column j that has a 0 in column k' also has a 0 in
    column j; otherwise it is 1.
    """
    d = t.diagram
    if not d.is_row(i) or not d.is_col(j):
        raise DomainError("(%r, %r) is not a row/column pair" % (i, j))
    if i < j:
        raise DomainError("cell (%d, %d) lies inside the shape" % (i, j))
    for kp in d.col_labels:
        if kp > i and t.entry(i, kp) == 0:
            zeros_at_kp = (jp for jp in d.row_labels if jp < j and t.entry(jp, kp) == 0)
            if all(t.entry(jp, j) == 0 for jp in zeros_at_kp):
                return 0
    return 1


def corner_support(t, method="blocks"):
    """Cells of the shape whose entry is witnessed by a complementary entry
    at the opposite corner of some rectangle in the supplementary grid (the
    two remaining corners matching the cell's value). Returns the set of
    (row label, column label) pairs.

    method="blocks" reads the support off the canonical blocks: a cell is
    in it exactly when its row's block and its column's block are not
    adjacent. The toppling scan completes exactly on EW-tableaux, and its
    blocks give back the tableau cell by cell (1 exactly when the row's
    block comes first). A row in block k has as its supplementary row S_k,
    the columns of the blocks after k, and S_k strictly shrinks as k grows.
    A 1 at column j is witnessed by a row of a later row block whose S
    still holds j, which exists exactly when j's block is k + 3 or later; a
    0 by a row of an earlier row block whose S misses j, which exists
    exactly when j's block is k - 3 or earlier. method="local" uses only
    tableau entries plus the local rule of supplementary_entry, never
    toppling anything. The two agree.
    """
    d = t.diagram
    if method == "blocks":
        block_of = {v: k for k, block in enumerate(t._blocks) for v in block}
        return {(i, j) for i, j in d.edges() if abs(block_of[i] - block_of[j]) != 1}
    if method != "local":
        raise ValueError("method must be 'blocks' or 'local'")

    def witnessed(i, j):
        if t.entry(i, j) == 0:
            # witness: a 1-cell at (i2, j2) with a 0 at (i, j2), and the
            # fourth corner (i2, j) reading 0 (in the shape or by the rule)
            return any(
                t.entry(i2, j2) == 1 and t.entry(i, j2) == 0
                and (t.entry(i2, j) if j > i2 else supplementary_entry(t, i2, j)) == 0
                for i2 in d.row_labels if i2 != i
                for j2 in d.col_labels if j2 != j and j2 > i2 and j2 > i
            )
        # witness: a 0-cell at (i2, j2) with a 1 at (i2, j), and the fourth
        # corner (i, j2) reading 1
        return any(
            t.entry(i2, j2) == 0 and t.entry(i2, j) == 1
            and (t.entry(i, j2) if j2 > i else supplementary_entry(t, i, j2)) == 1
            for i2 in d.row_labels if i2 != i and j > i2
            for j2 in d.col_labels if j2 != j and j2 > i2
        )

    cells = ((i, j) for i in d.row_labels for j in d.col_labels if j > i)
    return {cell for cell in cells if witnessed(*cell)}


def canonical_bounds(t):
    """Per-vertex decoration bounds that keep the canonical toppling intact:
    for a row, its count of 0s not in corner_support; for a column, its
    count of 1s not in corner_support. Those are the cells between adjacent
    blocks (see corner_support), so each bound is the vertex's count of
    neighbours in the block just before its own, which is
    sandpile.canonical_bounds_from_blocks of the tableau's blocks. Entry
    v-1 for vertex v."""
    return sandpile.canonical_bounds_from_blocks(t._blocks)


def decorated_from_config(diagram, heights):
    """Encode a recurrent configuration as (tableau, decorations): the
    tableau of its canonical blocks plus the grain surplus over their
    minimal configuration."""
    blocks, deco = sandpile.decompose(diagram, heights)
    return from_blocks(diagram, blocks), deco


def config_from_decorated(t, decorations):
    """Inverse of decorated_from_config; requires a canonical decoration."""
    ensure_valid(t)
    sandpile.require_canonical(canonical_toppling(t), decorations)
    return tuple(b + a for b, a in zip(minimal_config(t), decorations))
