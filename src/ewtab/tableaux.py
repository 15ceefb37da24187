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
    "stable_bounds",
    "classify_decoration",
    "decorated_from_config",
    "config_from_decorated",
]

class EWTableau:
    """A 0/1 filling of a Ferrers shape.

    `rows[i][x]` is the entry of the i-th row (top to bottom) at column
    position x (left to right). Construction checks only that the filling
    fits the shape; use validate()/ensure_valid() for the EW conditions.
    """

    def __init__(self, diagram, rows):
        rows = tuple(tuple(int(b) for b in row) for row in rows)
        if len(rows) != len(diagram.parts):
            raise DomainError(
                "expected %d rows, got %d" % (len(diagram.parts), len(rows))
            )
        for i, row in enumerate(rows):
            if len(row) != diagram.parts[i]:
                raise DomainError(
                    "row %d must have %d entries, got %d"
                    % (i, diagram.parts[i], len(row))
                )
            if any(b not in (0, 1) for b in row):
                raise DomainError("entries must be 0 or 1")
        self.diagram = diagram
        self.rows = rows

    def entry(self, i, j):
        """Entry at row label i, column label j (the labels, not positions)."""
        d = self.diagram
        ri = d.row_index(i)
        x = d.col_index(j)
        if x >= d.parts[ri]:
            raise DomainError("no cell at row %d, column %d" % (i, j))
        return self.rows[ri][x]

    def row_strings(self):
        return tuple("".join(str(b) for b in row) for row in self.rows)

    @cached_property
    def _blocks(self):  # the filling never changes, so this scans once
        return _toppling_scan(self)

    def __eq__(self, other):
        return (
            isinstance(other, EWTableau)
            and self.diagram == other.diagram
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.diagram, self.rows))

    def __repr__(self):
        return "EWTableau(%r, %r)" % (self.diagram.parts, "/".join(self.row_strings()))


def validate(t):
    """Structured report of EW-condition violations; empty means valid.

    Three rules are checked separately:
      top-row-ones     the top row contains only 1s
      row-has-zero     every non-top row contains a 0
      rectangle        no four-cell rectangle has 0s on one diagonal and 1s
                       on the other
    """
    problems = []
    rows = t.rows
    for x, b in enumerate(rows[0]):
        if b != 1:
            problems.append({"rule": "top-row-ones", "row": 0, "x": x})
    for i in range(1, len(rows)):
        if 0 not in rows[i]:
            problems.append({"rule": "row-has-zero", "row": i})
    masks = [_mask(row) for row in rows]
    for i in range(len(rows)):
        for i2 in range(i + 1, len(rows)):
            width = len(rows[i2])  # the lower row is never longer
            upper = masks[i] & ((1 << width) - 1)
            lower = masks[i2]
            # A bad rectangle pairs a column where only row i has a 1 with
            # one where only row i2 does, so it exists exactly when neither
            # row's 1-set contains the other's; only such pairs are scanned.
            if not (upper & ~lower and lower & ~upper):
                continue
            for x in range(width):
                for x2 in range(x + 1, width):
                    a, b = rows[i][x], rows[i][x2]
                    c, d = rows[i2][x], rows[i2][x2]
                    if a == d and b == c and a != b:
                        problems.append(
                            {
                                "rule": "rectangle",
                                "rows": (i, i2),
                                "cols": (x, x2),
                            }
                        )
    return problems


def ensure_valid(t):
    problems = validate(t)
    if problems:
        raise DomainError("not an EW-tableau: %r" % (problems[0],))
    return t


def minimal_config(t):
    """The minimal recurrent configuration encoded by the tableau: row
    vertices get their count of 1s, column vertices their count of 0s."""
    d = t.diagram
    out = [0] * d.n
    for i, label in enumerate(d.row_labels):
        if label == 0:
            continue
        out[label - 1] = sum(t.rows[i])
    for x, label in enumerate(d.col_labels):
        height = d.degrees[label - 1]
        ones = sum(t.rows[i][x] for i in range(height))
        out[label - 1] = height - ones
    return tuple(out)


def _comparison_grid(diagram, blocks):
    """Full rectangular grid over every row/column label pair: 1 exactly
    when the row's block precedes the column's block."""
    pos = {v: k for k, block in enumerate(blocks) for v in block}
    return [
        [1 if pos[i] < pos[j] else 0 for j in diagram.col_labels]
        for i in diagram.row_labels
    ]


def from_blocks(diagram, blocks):
    """The EW-tableau of an ordered partition of the labels: cell (i, j) is
    1 exactly when row i's block precedes column j's block. Raises
    DomainError when the filling breaks an EW condition."""
    grid = _comparison_grid(diagram, blocks)
    rows = [row[:p] for row, p in zip(grid, diagram.parts)]
    return ensure_valid(EWTableau(diagram, rows))


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
    # On bitmasks, with the filling never rewritten: an unrecorded row is
    # ready once its 0s lie in recorded columns, an unrecorded column once
    # its 1s lie in recorded rows.
    d = t.diagram
    rows = [_mask(row) for row in t.rows]
    zeros = [((1 << p) - 1) & ~r for p, r in zip(d.parts, rows)]
    cols = [_mask((r >> x) & 1 for r in rows) for x in range(d.parts[0])]
    todo_rows, todo_cols = (1 << len(rows)) - 1, (1 << d.parts[0]) - 1
    blocks = []
    while todo_rows or todo_cols:
        ready_rows = [i for i in _bits(todo_rows) if not zeros[i] & todo_cols]
        if ready_rows:
            blocks.append(tuple(sorted(d.row_labels[i] for i in ready_rows)))
            todo_rows &= ~sum(1 << i for i in ready_rows)
        ready_cols = [x for x in _bits(todo_cols) if not cols[x] & todo_rows]
        if ready_cols:
            blocks.append(tuple(sorted(d.col_labels[x] for x in ready_cols)))
            todo_cols &= ~sum(1 << x for x in ready_cols)
        if not ready_rows and not ready_cols:
            raise DomainError("not an EW-tableau: toppling scan stalls")
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
        return (
            isinstance(other, Supplementary)
            and self.diagram == other.diagram
            and self.grid == other.grid
        )

    def __repr__(self):
        return "Supplementary(%r, %r)" % (
            self.diagram.parts,
            "/".join(self.row_strings()),
        )


def supplementary(t):
    """Build the supplementary grid from the canonical toppling blocks."""
    return Supplementary(t.diagram, _comparison_grid(t.diagram, canonical_toppling(t)))


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
            if all(
                t.entry(jp, j) == 0
                for jp in d.row_labels
                if jp < j and t.entry(jp, kp) == 0
            ):
                return 0
    return 1


def _mask(bits):
    """Int with bit x set exactly where bits[x] is 1."""
    return sum(1 << x for x, b in enumerate(bits) if b)


def _corner_masks(t):
    """(row masks, witnessed masks) per row position, bit x for column
    position x: the tableau's 1s, and its cells in corner support.

    A cell (i, j) holding 1 is witnessed by a row i2 with a 1 at j and a
    column j2 where row i has 1 and row i2 has 0; a cell holding 0 by a row
    i2 with a 0 at j and a column j2 where row i2 has 1 and row i has 0.
    Such a j2 differs from j by construction, so with one 1-mask per row
    of the supplementary grid each ordered row pair costs a few word
    operations. The pair of a row with itself, or with an identical row,
    witnesses nothing.
    """
    d = t.diagram
    rows = [_mask(row) for row in t.rows]
    shape = [(1 << p) - 1 for p in d.parts]
    full = shape[0]
    # Cells of the shape read the tableau, the rest the grid built from
    # the avalanche; on an EW-tableau the grid restricts to the tableau.
    grid = supplementary(t).grid
    ones = [r | (_mask(g) & ~m) for r, g, m in zip(rows, grid, shape)]
    witnessed = []
    for a, m in zip(ones, shape):
        zeros = full & ~a
        w = 0
        for b in ones:
            if a & ~b:
                w |= a & b
            if b & ~a:
                w |= zeros & ~b
        witnessed.append(w & m)
    return rows, witnessed


def corner_support(t, method="blocks"):
    """Cells of the shape whose entry is witnessed by a complementary entry
    at the opposite corner of some rectangle in the supplementary grid (the
    two remaining corners matching the cell's value). Returns the set of
    (row label, column label) pairs.

    method="blocks" compares whole rows of the supplementary grid built
    from the canonical toppling, as bitmasks; method="local" uses only
    tableau entries plus the local rule of supplementary_entry, never
    toppling anything. The two agree.
    """
    d = t.diagram
    if method == "blocks":
        _, witnessed = _corner_masks(t)
        return {
            (i, d.col_labels[x])
            for i, w in zip(d.row_labels, witnessed)
            for x in _bits(w)
        }
    if method != "local":
        raise ValueError("method must be 'blocks' or 'local'")
    cells = [(i, j) for i in d.row_labels for j in d.col_labels if j > i]
    out = set()
    for i, j in cells:
        x = t.entry(i, j)
        found = False
        if x == 0:
            # witness: a 1-cell at (i2, j2) with a 0 at (i, j2), and the
            # fourth corner (i2, j) reading 0 (in the shape or by the rule)
            for i2 in d.row_labels:
                if i2 == i or found:
                    continue
                for j2 in d.col_labels:
                    if j2 == j or j2 <= i2 or j2 <= i:
                        continue
                    if t.entry(i2, j2) != 1 or t.entry(i, j2) != 0:
                        continue
                    corner = (
                        t.entry(i2, j) if j > i2 else supplementary_entry(t, i2, j)
                    )
                    if corner == 0:
                        found = True
                        break
        else:
            # witness: a 0-cell at (i2, j2) with a 1 at (i2, j), and the
            # fourth corner (i, j2) reading 1
            for i2 in d.row_labels:
                if i2 == i or found or j <= i2:
                    continue
                for j2 in d.col_labels:
                    if j2 == j or j2 <= i2:
                        continue
                    if t.entry(i2, j2) != 0 or t.entry(i2, j) != 1:
                        continue
                    corner = (
                        t.entry(i, j2) if j2 > i else supplementary_entry(t, i, j2)
                    )
                    if corner == 1:
                        found = True
                        break
        if found:
            out.add((i, j))
    return out


def canonical_bounds(t):
    """Per-vertex decoration bounds that keep the canonical toppling intact:
    for a row, its count of 0s not in corner_support; for a column, its
    count of 1s not in corner_support. Entry v-1 for vertex v."""
    d = t.diagram
    rows, witnessed = _corner_masks(t)
    out = [0] * d.n
    unwitnessed_ones = [0] * d.parts[0]
    for i, r, w, p in zip(d.row_labels, rows, witnessed, d.parts):
        if i:
            out[i - 1] = (((1 << p) - 1) & ~r & ~w).bit_count()
        for x in _bits(r & ~w):
            unwitnessed_ones[x] += 1
    for j, count in zip(d.col_labels, unwitnessed_ones):
        out[j - 1] = count
    return tuple(out)


def stable_bounds(t):
    """Per-vertex decoration bounds below which the decorated configuration
    stays stable: total 0s in the row, total 1s in the column, read off the
    blocks of the tableau's own toppling scan."""
    return sandpile.stable_bounds_from_blocks(canonical_toppling(t))


def classify_decoration(t, decorations):
    """'canonical' when every decoration is below the canonical bound,
    'stable' when below the stable bound only, 'invalid' otherwise; the
    bounds come from the blocks of the tableau's own toppling scan."""
    return sandpile.classify_decoration(canonical_toppling(t), decorations)


def decorated_from_config(diagram, heights):
    """Encode a recurrent configuration as (tableau, decorations): the
    tableau of its canonical blocks plus the grain surplus over their
    minimal configuration."""
    blocks, deco = sandpile.decompose(diagram, heights)
    return from_blocks(diagram, blocks), deco


def config_from_decorated(t, decorations):
    """Inverse of decorated_from_config; requires a canonical decoration."""
    ensure_valid(t)
    kind = classify_decoration(t, decorations)
    if kind != "canonical":
        raise DomainError("decoration is %s, not canonical" % kind)
    base = minimal_config(t)
    return tuple(b + a for b, a in zip(base, decorations))
