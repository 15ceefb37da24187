"""Ferrers diagrams, their border labeling and the bipartite graphs they span.

A Ferrers diagram with parts (p_0 >= p_1 >= ... >= p_{r-1}) is drawn with the
longest row on top (English style). Walking its south-east border from the
top-right corner to the bottom-left corner and numbering the steps 0..n
(n = semiperimeter - 1) gives every row and every column a label: a vertical
step is the east edge of a row and contributes that row's label, a horizontal
step is the bottom edge of a column and contributes that column's label.
The top row always gets label 0 and acts as the sink of the sandpile model.

The graph of the diagram has the row and column labels as vertices, with an
edge between row i and column j exactly when the cell in row i and column j
belongs to the diagram, which happens exactly when i < j.
"""

import bisect
import math
from functools import cached_property

from .errors import DomainError

__all__ = ["FerrersDiagram", "enumerate_diagrams"]


class FerrersDiagram:
    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise DomainError("a Ferrers diagram needs at least one cell")
        if any(p <= 0 for p in parts):
            raise DomainError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError("parts must be weakly decreasing: %r" % (parts,))
        self.parts = parts

    @property
    def semiperimeter(self):
        return len(self.parts) + self.parts[0]

    @cached_property
    def n(self):
        """Largest label; vertices are 0..n with 0 the sink."""
        return self.semiperimeter - 1

    @cached_property
    def _labels(self):
        # Walk the border top-right to bottom-left. A vertical step closes a
        # row, a horizontal step closes the column currently at position x-1.
        rows = []
        cols_by_x = {}
        nxt = 0
        x = self.parts[0]
        for i in range(len(self.parts)):
            rows.append(nxt)
            nxt += 1
            floor = self.parts[i + 1] if i + 1 < len(self.parts) else 0
            while x > floor:
                x -= 1
                cols_by_x[x] = nxt
                nxt += 1
        if nxt != self.semiperimeter:
            raise RuntimeError("border walk of %r gave %d labels" % (self.parts, nxt))
        return tuple(rows), tuple(cols_by_x[x] for x in range(self.parts[0]))

    @property
    def row_labels(self):
        """Row labels from the top row down; always starts with 0."""
        return self._labels[0]

    @property
    def col_labels(self):
        """Column labels left to right; strictly decreasing."""
        return self._labels[1]

    @cached_property
    def _row_index(self):
        return {v: i for i, v in enumerate(self.row_labels)}

    @cached_property
    def _col_index(self):
        return {v: x for x, v in enumerate(self.col_labels)}

    @cached_property
    def _cells(self):
        # Entry ri is the mask of the column positions of row position ri.
        return tuple((1 << p) - 1 for p in self.parts)

    def is_row(self, v):
        return v in self._row_index

    def is_col(self, v):
        return v in self._col_index

    def row_index(self, v):
        try:
            return self._row_index[v]
        except KeyError:
            raise DomainError("%r is not a row label of %r" % (v, self.parts)) from None

    def col_index(self, v):
        """Left-to-right position of the column labeled v."""
        try:
            return self._col_index[v]
        except KeyError:
            raise DomainError("%r is not a column label of %r" % (v, self.parts)) from None

    def col_height(self, x):
        """Number of rows long enough to reach column position x: the row
        labels below the column's label, which are all its smaller labels
        except the parts[0] - 1 - x columns to its right."""
        return self.col_labels[x] + x + 1 - self.parts[0]

    def cell_exists(self, i, j):
        """True when row label i and column label j share a cell.

        Equivalent to i < j for a row label i and column label j; both
        characterizations are used interchangeably.
        """
        return self.is_row(i) and self.is_col(j) and j > i

    @cached_property
    def _neighbors_of(self):
        # Entry v is the sorted neighbor tuple of vertex v. A row reaches
        # the first parts[ri] columns, whose labels decrease left to right;
        # a column reaches the top col_height(x) rows.
        out = [()] * (self.n + 1)
        cols = self.col_labels
        for ri, v in enumerate(self.row_labels):
            out[v] = tuple(reversed(cols[: self.parts[ri]]))
        for x, v in enumerate(cols):
            out[v] = self.row_labels[: self.col_height(x)]
        return tuple(out)

    @cached_property
    def _degree_of(self):
        # Entry v is the degree of vertex v, the sink included: a row's
        # part or a column's height.
        out = [0] * (self.n + 1)
        for v, p in zip(self.row_labels, self.parts):
            out[v] = p
        for x, v in enumerate(self.col_labels):
            out[v] = self.col_height(x)
        return tuple(out)

    def _vertex(self, v):
        if isinstance(v, int) and 0 <= v <= self.n:
            return v
        raise DomainError("%r is not a vertex of %r" % (v, self.parts))

    def degree(self, v):
        return self._degree_of[self._vertex(v)]

    @cached_property
    def degrees(self):
        """Degrees of the non-sink vertices, index v-1 for vertex v."""
        return self._degree_of[1:]

    def neighbors(self, v):
        """Sorted neighbor labels of v (rows neighbor larger columns and
        columns neighbor smaller rows, the sink included)."""
        return self._neighbors_of[self._vertex(v)]

    @property
    def edge_count(self):
        return sum(self.parts)

    def edges(self):
        """All (row, column) label pairs of cells, row-major."""
        out = []
        for i in self.row_labels:
            for j in self.col_labels:
                if j > i:
                    out.append((i, j))
        return out

    def spanning_tree_count(self):
        """Number of spanning trees, by Ehrenborg and van Willigenburg's
        product over the parts and the column heights,
        prod(parts) * prod(heights) / (parts[0] * heights[0])."""
        heights = map(self.col_height, range(1, self.parts[0]))
        return math.prod(self.parts[1:]) * math.prod(heights)

    @classmethod
    def from_row_labels(cls, rows, n):
        """Rebuild the diagram whose row-label set is `rows` inside 0..n.

        The part of the row labeled r is the number of column labels above r,
        so the shape is determined by which labels are rows. Label 0 must be
        a row and label n must be a column.
        """
        row_set = set(rows)
        rows = sorted(row_set)
        if not rows or rows[0] != 0:
            raise DomainError("label 0 must be a row")
        if rows[-1] > n or n in row_set:
            raise DomainError("label %d must be a column" % n)
        cols = [v for v in range(n + 1) if v not in row_set]
        parts = [len(cols) - bisect.bisect_right(cols, r) for r in rows]
        diagram = cls(parts)
        if diagram.row_labels != tuple(rows):
            raise DomainError("rows %r do not label the rows of %r" % (rows, diagram.parts))
        return diagram

    def __eq__(self, other):
        return isinstance(other, FerrersDiagram) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "FerrersDiagram(%r)" % (self.parts,)


def enumerate_diagrams(semiperimeter):
    """All shapes with the given semiperimeter, in lexicographic order.

    There are 2**(semiperimeter-2) of them for semiperimeter >= 2.
    """
    if semiperimeter < 2:
        return []
    out = []
    # The first part p together with its own row costs p + 1 of the
    # semiperimeter; every further row costs 1.
    for first in range(1, semiperimeter):
        stack = [([first], semiperimeter - first - 1)]
        while stack:
            prefix, left = stack.pop()
            if left == 0:
                out.append(FerrersDiagram(prefix))
                continue
            for p in range(prefix[-1], 0, -1):
                stack.append((prefix + [p], left - 1))
    out.sort(key=lambda d: d.parts)
    return out
