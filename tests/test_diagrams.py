"""Ferrers diagrams: border labels, degrees, enumeration, spanning trees."""

import pytest
from hypothesis import given, strategies as st

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import DomainError

partitions = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.integers(1, 6), min_size=1, max_size=k).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
)


def test_border_labels_5332():
    d = FerrersDiagram((5, 3, 3, 2))
    assert d.semiperimeter == 9
    assert d.n == 8
    assert d.row_labels == (0, 3, 4, 6)
    assert d.col_labels == (8, 7, 5, 2, 1)
    assert d.degrees == (1, 1, 3, 3, 3, 2, 4, 4)
    assert d.edge_count == 13
    assert d.degree(0) == 5


def test_border_labels_321():
    d = FerrersDiagram((3, 2, 1))
    assert d.row_labels == (0, 2, 4)
    assert d.col_labels == (5, 3, 1)
    assert d.degrees == (1, 2, 2, 1, 3)
    assert d.edge_count == 6


def test_labels_follow_the_cells():
    # Rows increasing, columns decreasing, together 0..n, and a row label
    # below a column label exactly where the row reaches the column: these
    # fix the labelling without any formula for it.
    for m in range(2, 13):
        for d in enumerate_diagrams(m):
            rows, cols = d.row_labels, d.col_labels
            assert list(rows) == sorted(rows)
            assert list(cols) == sorted(cols, reverse=True)
            assert sorted(rows + cols) == list(range(d.n + 1))
            for i, r in enumerate(rows):
                for x, c in enumerate(cols):
                    assert (r < c) == (x < d.parts[i]), (d.parts, i, x)


def test_label_n_is_column():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            assert d.is_col(d.n)
            assert d.is_row(0)


def test_cell_existence_and_neighbors():
    d = FerrersDiagram((3, 2, 1))
    # row 2 has cells in columns 5 and 3 only
    assert d.cell_exists(2, 5)
    assert d.cell_exists(2, 3)
    assert not d.cell_exists(2, 1)
    assert d.neighbors(2) == (3, 5)
    assert d.neighbors(5) == (0, 2, 4)
    assert d.neighbors(1) == (0,)


def test_degree_counts_match_cells():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for v in range(1, d.n + 1):
                assert d.degree(v) == len(d.neighbors(v))
            assert sum(d.degrees) + d.degree(0) == 2 * d.edge_count


def test_adjacency_is_lazy_and_follows_cells():
    d = FerrersDiagram((4, 4, 3, 1))
    assert "_degree_of" not in vars(d) and "_neighbors_of" not in vars(d)
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for v in range(d.n + 1):
                nbrs = tuple(u for u in range(d.n + 1)
                             if d.cell_exists(v, u) or d.cell_exists(u, v))
                assert d.neighbors(v) == nbrs
                assert d.degree(v) == len(nbrs)


@pytest.mark.parametrize("v", [-1, 9, "1", None, 1.5, True, False, 1.0])
def test_non_vertices_raise(v):
    d = FerrersDiagram((5, 3, 3, 2))
    with pytest.raises(DomainError):
        d.degree(v)
    with pytest.raises(DomainError):
        d.neighbors(v)
    # nor are they labels, although True, False and 1.0 equal labels 1 and 0
    assert not d.is_row(v) and not d.is_col(v)
    assert not d.cell_exists(v, 8) and not d.cell_exists(0, v)
    with pytest.raises(DomainError, match="is not a row label of "):
        d.row_index(v)
    with pytest.raises(DomainError, match="is not a column label of "):
        d.col_index(v)


def test_edges_listing():
    d = FerrersDiagram((2, 2))
    assert sorted(d.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_from_row_labels_round_trip():
    for m in range(2, 9):
        for d in enumerate_diagrams(m):
            assert FerrersDiagram.from_row_labels(d.row_labels, d.n) == d


def test_from_row_labels_rejects_bad_sets():
    with pytest.raises(DomainError):
        FerrersDiagram.from_row_labels((1, 2), 3)  # must include 0
    with pytest.raises(DomainError):
        FerrersDiagram.from_row_labels((0, 3), 3)  # 3 = n must be a column
    with pytest.raises(DomainError, match="^label 3 must be a column$"):
        FerrersDiagram.from_row_labels((0, 5), 3)  # above n
    with pytest.raises(DomainError, match="^label 0 must be a row$"):
        FerrersDiagram.from_row_labels((-1, 0, 2), 3)


def test_rejects_non_partition():
    cases = [
        ((2, 3), "parts must be weakly decreasing: (2, 3)"),
        ((2, 0), "parts must be positive: (2, 0)"),
        ((), "a Ferrers diagram needs at least one cell"),
        ((2, 3, 0), "parts must be positive: (2, 3, 0)"),  # positivity first
    ]
    for parts, text in cases:
        with pytest.raises(DomainError) as err:
            FerrersDiagram(parts)
        assert str(err.value) == text


def test_enumerate_diagrams_4():
    assert [d.parts for d in enumerate_diagrams(4)] == [
        (1, 1, 1),
        (2, 1),
        (2, 2),
        (3,),
    ]


def test_enumerate_diagrams_counts():
    for m in range(2, 13):
        ds = enumerate_diagrams(m)
        assert [d.parts for d in ds] == sorted(d.parts for d in ds)
        assert len(ds) == 2 ** (m - 2)
        assert all(d.semiperimeter == m for d in ds)
        assert len(set(ds)) == len(ds)


def test_spanning_tree_counts():
    assert FerrersDiagram((3, 2, 1)).spanning_tree_count() == 4
    assert FerrersDiagram((5, 3, 3, 2)).spanning_tree_count() == 216
    # complete bipartite K_{r,k} from the rectangular shape: r^(k-1) * k^(r-1)
    assert FerrersDiagram((2, 2)).spanning_tree_count() == 4
    assert FerrersDiagram((3, 3, 3)).spanning_tree_count() == 81
    assert FerrersDiagram((4, 4, 4)).spanning_tree_count() == 432
    # path-like staircase
    assert FerrersDiagram((1,)).spanning_tree_count() == 1


@given(partitions)
def test_labels_partition_0_to_n(parts):
    d = FerrersDiagram(parts)
    assert sorted(d.row_labels + d.col_labels) == list(range(d.n + 1))


@given(partitions)
def test_row_label_round_trip(parts):
    d = FerrersDiagram(parts)
    assert FerrersDiagram.from_row_labels(d.row_labels, d.n).parts == parts
