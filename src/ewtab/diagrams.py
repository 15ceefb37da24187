"""Ferrers diagrams, their border labeling and the bipartite graphs they span.

A Ferrers diagram with parts (p_0 >= p_1 >= ... >= p_{r-1}) is drawn with the
longest row on top (English style). Walking its south-east border from the
top-right corner to the bottom-left corner and numbering the steps 0..n
(n = semiperimeter - 1) gives every row and every column a label: a vertical
step is the east edge of a row and contributes that row's label, a horizontal
step is the bottom edge of a column and contributes that column's label.
The top row always gets label 0 and acts as the sink of the sandpile model.

In closed form: before the east edge of row i the walk has made i vertical
steps (the rows above it) and parts[0] - parts[i] horizontal ones (the
columns beyond its end), so row i gets label i + parts[0] - parts[i], and the
columns get the other labels, decreasing left to right. Conversely, the rows
labeled r_0 < r_1 < ... < r_{k-1} have parts n - r_i - (k - 1 - i): the
labels above r_i less the rows among them. A shape is thus its set of row
labels, 0 together with any subset of 1..n-1.

The graph of the diagram has the row and column labels as vertices, with an
edge between row i and column j exactly when the cell in row i and column j
belongs to the diagram, which happens exactly when i < j.
"""

import itertools
import math
import operator
from functools import cached_property

from .errors import DomainError

__all__ = ["FerrersDiagram", "enumerate_diagrams"]


class FerrersDiagram:
    def __init__(self, parts):
        parts = tuple(map(int, parts))
        if not parts:
            raise DomainError("a Ferrers diagram needs at least one cell")
        if min(parts) <= 0:
            raise DomainError("parts must be positive: %r" % (parts,))
        if list(parts) != sorted(parts, reverse=True):
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
        first = self.parts[0]
        rows = tuple([i + first - p for i, p in enumerate(self.parts)])
        cols = sorted(set(range(self.semiperimeter)).difference(rows), reverse=True)
        return rows, tuple(cols)

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
        if type(v) is int and 0 <= v <= self.n:
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
        cols = self.col_labels
        return [(i, j) for i, p in zip(self.row_labels, self.parts) for j in cols[:p]]

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
        diagram = cls(_parts_of_rows(rows, n))
        if diagram.row_labels != tuple(rows):
            raise DomainError("rows %r do not label the rows of %r" % (rows, diagram.parts))
        return diagram

    def __eq__(self, other):
        return isinstance(other, FerrersDiagram) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "FerrersDiagram(%r)" % (self.parts,)


def _parts_of_rows(rows, n):
    """Parts of the shape whose row labels are the increasing sequence
    `rows` inside 0..n. Of the k rows, the one labeled r_i has the n - r_i
    labels above it less the k - 1 - i rows among them as its part."""
    return list(map(operator.sub, range(n - len(rows) + 1, n + 1), rows))


def enumerate_diagrams(semiperimeter):
    """All shapes with the given semiperimeter, in lexicographic order.

    There are 2**(semiperimeter-2) of them for semiperimeter >= 2, one for
    each set of row labels besides 0 among the interior labels.
    """
    if semiperimeter < 2:
        return []
    n = semiperimeter - 1
    out = [
        FerrersDiagram(_parts_of_rows((0,) + rows, n))
        for k in range(n)
        for rows in itertools.combinations(range(1, n), k)
    ]
    out.sort(key=lambda d: d.parts)
    return out
