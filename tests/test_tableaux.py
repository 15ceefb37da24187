"""Tableaux: EW conditions, minimal configurations, supplementary grid,
cornersupport, decorations, and the configuration correspondence."""

import itertools
import random
import time

import pytest

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import DomainError
from ewtab import oracles, permutations, sandpile, tableaux
from ewtab.tableaux import EWTableau


def tab(parts, *rows):
    d = FerrersDiagram(parts)
    return EWTableau(d, tuple(tuple(int(c) for c in r) for r in rows))


def staircase(k):
    return FerrersDiagram(range(k, 0, -1))


def recurrent_configs(d, seed, count):
    """Seeded recurrent configurations: the maximal stable one plus a
    random number of grains, stabilized."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        h = [g - 1 for g in d.degrees]
        for _ in range(rng.randint(1, 2 * d.n)):
            h[rng.randrange(d.n)] += 1
        out.append(sandpile.stabilize(d, h)[0])
    return out


def reference_corner_support(t):
    """Literal four-corner scan of the supplementary grid: cell (i, j) is
    in support when some (i2, j2) has the complementary value while (i2, j)
    and (i, j2) carry the cell's own value."""
    d = t.diagram
    s = tableaux.supplementary(t)
    out = set()
    for i in d.row_labels:
        for j in d.col_labels:
            if j < i:
                continue
            x = t.entry(i, j)
            if any(
                s.entry(i2, j) == x and s.entry(i2, j2) == 1 - x
                and s.entry(i, j2) == x
                for i2 in d.row_labels if i2 != i
                for j2 in d.col_labels if j2 != j
            ):
                out.add((i, j))
    return out


def reference_toppling(t):
    """The toppling scan on a list copy of the filling: record the all-1s
    rows and zero them, then the all-0s columns and fill them with 1s,
    until every label is recorded."""
    d = t.diagram
    work = [list(row) for row in t.rows]
    rec_rows, rec_cols, blocks = set(), set(), []
    while len(rec_rows) + len(rec_cols) < d.n + 1:
        ready_rows = [v for i, v in enumerate(d.row_labels)
                      if v not in rec_rows and all(work[i])]
        if ready_rows:
            blocks.append(tuple(sorted(ready_rows)))
            for v in ready_rows:
                rec_rows.add(v)
                i = d.row_index(v)
                work[i] = [0] * len(work[i])
        ready_cols = [v for x, v in enumerate(d.col_labels)
                      if v not in rec_cols
                      and not any(work[i][x] for i in range(d.col_height(x)))]
        if ready_cols:
            blocks.append(tuple(sorted(ready_cols)))
            for v in ready_cols:
                rec_cols.add(v)
                x = d.col_index(v)
                for i in range(d.col_height(x)):
                    work[i][x] = 1
        if not ready_rows and not ready_cols:
            raise DomainError("not an EW-tableau: toppling scan stalls")
    if not all(t.rows[0]):
        raise DomainError("not an EW-tableau: the top row holds a 0")
    if blocks[0] != (0,):
        raise DomainError("not an EW-tableau: a non-top row starts all 1s")
    return tuple(blocks)


def toppling_or_error(toppling, t):
    try:
        return toppling(t)
    except DomainError as e:
        return str(e)


def reference_rectangles(t):
    """The rectangle entries of validate, by the literal scan of every
    pair of rows and every pair of columns."""
    rows = t.rows
    return [
        {"rule": "rectangle", "rows": (i, i2), "cols": (x, x2)}
        for i in range(len(rows))
        for i2 in range(i + 1, len(rows))
        for x in range(len(rows[i2]))
        for x2 in range(x + 1, len(rows[i2]))
        if rows[i][x] == rows[i2][x2] != rows[i][x2] == rows[i2][x]
    ]


@pytest.fixture
def t_ex(d5332):
    # the running worked example on (5,3,3,2)
    return EWTableau(d5332, ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 1)))


def test_constructor_checks_shape(d5332):
    with pytest.raises(DomainError):
        EWTableau(d5332, ((1, 1, 1, 1, 1), (0, 1), (0, 1, 1), (0, 1)))
    with pytest.raises(DomainError):
        EWTableau(d5332, ((1, 1, 1, 1, 1), (0, 1, 2), (0, 1, 1), (0, 1)))
    with pytest.raises(DomainError):
        EWTableau(d5332, ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1)))


def test_constructor_reads_rows_as_strings_or_ints(t_ex, d5332):
    assert EWTableau(d5332, ["11111", "010", "011", "01"]) == t_ex
    assert EWTableau(d5332, [[1, 1, 1, 1, True], (0, 1, 0), "011", (0, 1)]) == t_ex
    assert t_ex.rows == ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 1))
    d = FerrersDiagram((3,))
    # int(text, 2) reads each of these; the constructor refuses them first
    for row in ["1_0", "+10", " 10", "1\u00b20", "1\u06630", "10\x00", (1, 0, 2), (1, 0, -1)]:
        with pytest.raises(DomainError, match="^entries must be 0 or 1$"):
            EWTableau(d, [row])


def test_entry_by_labels(t_ex, d5332):
    # row 3 is the second row; columns run 8,7,5 left to right there
    assert t_ex.entry(3, 8) == 0
    assert t_ex.entry(3, 7) == 1
    assert t_ex.entry(3, 5) == 0
    assert t_ex.entry(0, 1) == 1
    # labels are ints: False and True equal the labels 0 and 1 of a cell
    with pytest.raises(DomainError, match="is not a row label of "):
        t_ex.entry(False, True)
    with pytest.raises(DomainError, match="is not a column label of "):
        t_ex.entry(0, 1.0)


def test_validate_top_row():
    t = tab((2, 1), "10", "0")
    assert validate_rules(t) == {"top-row-ones"}


def test_validate_row_has_zero():
    t = tab((2, 2), "11", "11")
    assert validate_rules(t) == {"row-has-zero"}


def test_validate_rectangle():
    t = tab((2, 2, 2), "11", "01", "10")
    assert validate_rules(t) == {"rectangle"}
    v = [p for p in tableaux.validate(t) if p["rule"] == "rectangle"]
    assert v[0]["rows"] == (1, 2)
    assert v[0]["cols"] == (0, 1)


def validate_rules(t):
    return {p["rule"] for p in tableaux.validate(t)}


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_literal_scan_on_random_fillings(seed):
    rng = random.Random(seed)
    clashing = 0
    for _ in range(300):
        k = rng.randint(1, 9)
        parts = sorted((rng.randint(1, 9) for _ in range(k)), reverse=True)
        d = FerrersDiagram(parts)
        density = rng.random()
        rows = [[int(rng.random() < density) for _ in range(p)] for p in parts]
        if rng.random() < 0.5:
            rows[0] = [1] * parts[0]
        t = EWTableau(d, rows)
        expected = reference_rectangles(t)
        assert [p for p in tableaux.validate(t) if p["rule"] == "rectangle"] == (
            expected)
        clashing += bool(expected)
    assert 0 < clashing < 300


def test_ensure_valid_passes_and_raises(t_ex):
    assert tableaux.ensure_valid(t_ex) is t_ex
    with pytest.raises(DomainError):
        tableaux.ensure_valid(tab((2, 2), "11", "11"))


def test_minimal_config_example(t_ex):
    assert tableaux.minimal_config(t_ex) == (0, 0, 1, 2, 1, 1, 0, 3)


def test_minimal_config_small(d321, d22):
    assert tableaux.minimal_config(tab((3, 2, 1), "111", "00", "0")) == (
        0, 0, 1, 0, 2)
    assert tableaux.minimal_config(tab((3, 2, 1), "111", "01", "0")) == (
        0, 1, 0, 0, 2)
    assert tableaux.minimal_config(tab((3, 2, 1), "111", "10", "0")) == (
        0, 1, 1, 0, 1)
    assert tableaux.minimal_config(tab((2, 2), "11", "01")) == (1, 0, 1)
    assert tableaux.minimal_config(tab((2, 2), "11", "10")) == (1, 1, 0)
    assert tableaux.minimal_config(tab((2, 2), "11", "00")) == (0, 1, 1)


def test_from_minimal_config(d5332):
    t = tableaux.from_minimal_config(d5332, (0, 0, 2, 1, 0, 0, 3, 2))
    assert t.rows == ((1, 1, 1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0))


def test_from_minimal_config_rejects_non_minimal(d321):
    # recurrent but not minimal
    with pytest.raises(DomainError):
        tableaux.from_minimal_config(d321, (0, 1, 1, 0, 2))
    # not recurrent at all
    with pytest.raises(DomainError):
        tableaux.from_minimal_config(d321, (0, 0, 0, 0, 0))


def test_minimal_config_round_trip():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                c = tableaux.minimal_config(t)
                assert sandpile.minimal_recurrent(d, c) == c
                assert tableaux.from_minimal_config(d, c) == t


def test_canonical_toppling_example(t_ex):
    assert tableaux.canonical_toppling(t_ex) == (
        (0,), (1, 2, 8), (4, 6), (5,), (3,), (7,))


def test_canonical_toppling_single_cell_rows():
    # both labels of a 1x1 cell topple in separate later blocks
    t = tab((2, 1), "11", "0")
    assert tableaux.canonical_toppling(t) == ((0,), (1, 3), (2,))


def test_canonical_toppling_matches_graph():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                assert tableaux.canonical_toppling(t) == (
                    sandpile.canonical_toppling(d, tableaux.minimal_config(t)))


def test_canonical_toppling_rejects_invalid():
    with pytest.raises(DomainError):
        tableaux.canonical_toppling(tab((2, 2), "11", "11"))
    with pytest.raises(DomainError):
        tableaux.canonical_toppling(tab((2, 2, 2), "11", "01", "10"))


def test_canonical_toppling_matches_list_scan_on_random_fillings():
    rng = random.Random(5)
    for m in range(2, 10):
        shapes = enumerate_diagrams(m)
        for _ in range(150):
            d = rng.choice(shapes)
            density = rng.random()
            rows = [[int(rng.random() < density) for _ in range(p)]
                    for p in d.parts]
            if rng.random() < 0.5:
                rows[0] = [1] * d.parts[0]
            t = EWTableau(d, rows)
            assert toppling_or_error(tableaux.canonical_toppling, t) == (
                toppling_or_error(reference_toppling, t)), (d.parts, rows)


FIRST_BLOCK_RULES = {
    "not an EW-tableau: the top row holds a 0": "top-row-ones",
    "not an EW-tableau: a non-top row starts all 1s": "row-has-zero",
}


def test_first_block_refusal_names_the_first_violation():
    # every filling of semiperimeter <= 6 whose scan completes but refuses
    # its first block
    named = dict.fromkeys(FIRST_BLOCK_RULES.values(), 0)
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            starts = list(itertools.accumulate(d.parts, initial=0))
            for bits in itertools.product("01", repeat=sum(d.parts)):
                t = EWTableau(d, ["".join(bits[a:b]) for a, b in zip(starts, starts[1:])])
                text = toppling_or_error(tableaux.canonical_toppling, t)
                if text in FIRST_BLOCK_RULES:
                    rule = tableaux.validate(t)[0]["rule"]
                    assert FIRST_BLOCK_RULES[text] == rule, t
                    named[rule] += 1
    assert all(named.values()), named
    assert toppling_or_error(permutations.from_tableau, tab((2,), "10")) == (
        "not an EW-tableau: the top row holds a 0")
    assert toppling_or_error(permutations.from_tableau, tab((3, 2), "110", "01")) == (
        "not an EW-tableau: the top row holds a 0")


@pytest.mark.parametrize("d", [staircase(32), FerrersDiagram((20,) * 20)],
                         ids=["staircase-32", "rectangle-20x20"])
def test_canonical_toppling_beyond_enumeration(d):
    for c in recurrent_configs(d, seed=d.n, count=6):
        t, _ = tableaux.decorated_from_config(d, c)
        blocks = sandpile.canonical_toppling(d, c)
        assert tableaux.canonical_toppling(t) == blocks
        assert reference_toppling(t) == blocks


def test_toppling_scan_runs_once_per_tableau(monkeypatch, d5332):
    scan = tableaux._toppling_scan
    calls = []

    def counting_scan(t):
        calls.append(t)
        return scan(t)

    monkeypatch.setattr(tableaux, "_toppling_scan", counting_scan)
    t = EWTableau(d5332, ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 1)))
    tableaux.canonical_bounds(t)
    tableaux.supplementary(t)
    sandpile.stable_bounds_from_blocks(tableaux.canonical_toppling(t))
    sandpile.classify_decoration(tableaux.canonical_toppling(t), (0,) * d5332.n)
    permutations.from_tableau(t)
    assert tableaux.canonical_toppling(t) == (
        (0,), (1, 2, 8), (4, 6), (5,), (3,), (7,))
    assert calls == [t]


def test_supplementary_example():
    t = tab((5, 3, 3, 2), "11111", "101", "001", "00")
    s = tableaux.supplementary(t)
    assert s.row_strings() == ("11111", "10100", "00100", "00100")


def test_supplementary_restricts_to_tableau(t_ex):
    s = tableaux.supplementary(t_ex)
    assert s.row_strings() == ("11111", "01000", "01100", "01100")
    d = t_ex.diagram
    for i in d.row_labels:
        for j in d.col_labels:
            if d.cell_exists(i, j):
                assert s.entry(i, j) == t_ex.entry(i, j)


def test_supplementary_4332():
    t = tab((4, 3, 3, 2), "1111", "010", "110", "01")
    s = tableaux.supplementary(t)
    assert s.row_strings() == ("1111", "0100", "1100", "0100")


def test_supplementary_direct_rule():
    # off-shape cells decided without building the avalanche
    t = tab((4, 4, 4, 2), "1111", "0100", "0110", "01")
    d = t.diagram
    assert d.row_labels == (0, 1, 2, 5)
    assert tableaux.supplementary_entry(t, 5, 4) == 1
    assert tableaux.supplementary_entry(t, 5, 3) == 0


def test_supplementary_entry_requires_off_diagonal(t_ex):
    with pytest.raises(DomainError):
        tableaux.supplementary_entry(t_ex, 3, 5)  # 3 < 5 is an actual cell
    for i, j in ((4.0, 1), (4, True)):  # equal to the labels 4 and 1
        with pytest.raises(DomainError, match="is not a row/column pair"):
            tableaux.supplementary_entry(t_ex, i, j)


def test_supplementary_direct_matches_blocks():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                s = tableaux.supplementary(t)
                for i in d.row_labels:
                    for j in d.col_labels:
                        if i > j:
                            assert s.entry(i, j) == (
                                tableaux.supplementary_entry(t, i, j))


def test_large_worked_example():
    t = tab(
        (13, 11, 11, 6, 4, 3, 3),
        "1111111111111",
        "00111000000",
        "10111101110",
        "101110",
        "1011",
        "001",
        "101",
    )
    assert tableaux.canonical_toppling(t) == (
        (0,),
        (1, 2, 5, 9, 18),
        (4, 13, 16),
        (6, 7, 8, 11),
        (10,),
        (19,),
        (3, 15),
        (12, 14, 17),
    )
    s = tableaux.supplementary(t)
    assert s.row_strings() == (
        "1111111111111",
        "0011100000000",
        "1011110111000",
        "1011100000000",
        "1011110111000",
        "0011100000000",
        "1011110111000",
    )
    assert tableaux.canonical_bounds(t) == (
        1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1)


def test_corner_support_exact_mask():
    t = tab((4, 4, 3, 2), "1111", "0000", "010", "01")
    expected = {(0, 6), (1, 7), (1, 4), (1, 2)}
    assert tableaux.corner_support(t, method="blocks") == expected
    assert tableaux.corner_support(t, method="local") == expected
    assert tableaux.canonical_bounds(t) == (1, 1, 2, 1, 1, 2, 1)


def test_corner_support_contains(t_ex):
    t = tab((4, 3, 3, 2), "1111", "010", "110", "01")
    assert (0, 6) in tableaux.corner_support(t)


def test_corner_support_methods_agree():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                blocks = tableaux.corner_support(t, method="blocks")
                assert blocks == tableaux.corner_support(t, method="local")
                assert blocks == reference_corner_support(t)


@pytest.mark.parametrize("d", [staircase(12), FerrersDiagram((8,) * 8)],
                         ids=["staircase-12", "rectangle-8x8"])
def test_corner_support_matches_literal_scan_beyond_enumeration(d):
    for c in recurrent_configs(d, seed=len(d.parts), count=12):
        t, _ = tableaux.decorated_from_config(d, c)
        assert tableaux.corner_support(t, method="blocks") == (
            reference_corner_support(t))


@pytest.mark.parametrize("d", [staircase(16), staircase(32),
                               FerrersDiagram((20,) * 20)],
                         ids=["staircase-16", "staircase-32", "rectangle-20x20"])
def test_canonical_bounds_three_carriers_beyond_enumeration(d):
    for c in recurrent_configs(d, seed=d.n, count=8):
        t, deco = tableaux.decorated_from_config(d, c)
        nu = tableaux.canonical_bounds(t)
        assert nu == sandpile.canonical_bounds_from_blocks(sandpile.canonical_toppling(d, c))
        runs = permutations.run_blocks(permutations.from_tableau(t))
        assert nu == sandpile.canonical_bounds_from_blocks(runs)
        assert all(a < b for a, b in zip(deco, nu))


def test_corner_support_rejects_unknown_method(t_ex):
    with pytest.raises(ValueError):
        tableaux.corner_support(t_ex, method="fast")


def test_bounds_properties():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                nu = tableaux.canonical_bounds(t)
                sb = sandpile.stable_bounds_from_blocks(tableaux.canonical_toppling(t))
                assert all(v >= 1 for v in nu)
                assert all(a <= b for a, b in zip(nu, sb))
                # minimal config plus stable headroom fills every degree
                r = tableaux.minimal_config(t)
                assert tuple(x + y for x, y in zip(r, sb)) == d.degrees


def test_classify_decoration(d321):
    b = tab((3, 2, 1), "111", "01", "0")
    blocks = tableaux.canonical_toppling(b)
    assert tableaux.canonical_bounds(b) == (1, 1, 1, 1, 1)
    assert sandpile.stable_bounds_from_blocks(blocks) == (1, 1, 2, 1, 1)
    assert sandpile.classify_decoration(blocks, (0, 0, 0, 0, 0)) == "canonical"
    assert sandpile.classify_decoration(blocks, (0, 0, 1, 0, 0)) == "stable"
    assert sandpile.classify_decoration(blocks, (0, 0, 2, 0, 0)) == "invalid"
    assert sandpile.classify_decoration(blocks, (1, 0, 0, 0, 0)) == "invalid"


def test_decorated_from_config(d321):
    t, a = tableaux.decorated_from_config(d321, (0, 1, 1, 0, 2))
    assert t.rows == ((1, 1, 1), (0, 0), (0,))
    assert a == (0, 1, 0, 0, 0)
    assert sandpile.classify_decoration(tableaux.canonical_toppling(t), a) == "canonical"


def test_config_from_decorated_round_trip():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_recurrent(d):
                t, a = tableaux.decorated_from_config(d, c)
                blocks = tableaux.canonical_toppling(t)
                assert sandpile.classify_decoration(blocks, a) == "canonical"
                assert tableaux.config_from_decorated(t, a) == c


def test_config_from_decorated_strict(d321):
    b = tab((3, 2, 1), "111", "01", "0")
    with pytest.raises(DomainError):
        tableaux.config_from_decorated(b, (0, 0, 1, 0, 0))  # stable, not canonical
    with pytest.raises(DomainError):
        tableaux.config_from_decorated(b, (0, 0, 9, 0, 0))


def test_decorated_from_config_requires_recurrent(d321):
    with pytest.raises(DomainError):
        tableaux.decorated_from_config(d321, (0, 0, 0, 0, 0))


# References for the tableau layer, reading only the public rows: the grid
# through a label-position dict, validation and the toppling scan with
# every mask rebuilt per call, and the witness loop over every pair of rows.

def reference_mask(bits):
    return sum(1 << x for x, b in enumerate(bits) if b)


def reference_comparison_grid(diagram, blocks):
    """Full grid over every row/column label pair: 1 exactly when the
    row's block precedes the column's block."""
    pos = {v: k for k, block in enumerate(blocks) for v in block}
    return [
        [1 if pos[i] < pos[j] else 0 for j in diagram.col_labels]
        for i in diagram.row_labels
    ]


def reference_validate(t):
    problems = []
    rows = t.rows
    for x, b in enumerate(rows[0]):
        if b != 1:
            problems.append({"rule": "top-row-ones", "row": 0, "x": x})
    for i in range(1, len(rows)):
        if 0 not in rows[i]:
            problems.append({"rule": "row-has-zero", "row": i})
    masks = [reference_mask(row) for row in rows]
    for i in range(len(rows)):
        for i2 in range(i + 1, len(rows)):
            width = len(rows[i2])
            upper = masks[i] & ((1 << width) - 1)
            lower = masks[i2]
            if not (upper & ~lower and lower & ~upper):
                continue
            for x in range(width):
                for x2 in range(x + 1, width):
                    a, b = rows[i][x], rows[i][x2]
                    c, d = rows[i2][x], rows[i2][x2]
                    if a == d and b == c and a != b:
                        problems.append(
                            {"rule": "rectangle", "rows": (i, i2), "cols": (x, x2)})
    return problems


def reference_toppling_scan(t):
    d = t.diagram
    rows = [reference_mask(row) for row in t.rows]
    zeros = [((1 << p) - 1) & ~r for p, r in zip(d.parts, rows)]
    cols = [reference_mask((r >> x) & 1 for r in rows) for x in range(d.parts[0])]
    todo_rows, todo_cols = (1 << len(rows)) - 1, (1 << d.parts[0]) - 1
    blocks = []
    while todo_rows or todo_cols:
        ready_rows = [i for i in sandpile._bits(todo_rows) if not zeros[i] & todo_cols]
        if ready_rows:
            blocks.append(tuple(sorted(d.row_labels[i] for i in ready_rows)))
            todo_rows &= ~sum(1 << i for i in ready_rows)
        ready_cols = [x for x in sandpile._bits(todo_cols) if not cols[x] & todo_rows]
        if ready_cols:
            blocks.append(tuple(sorted(d.col_labels[x] for x in ready_cols)))
            todo_cols &= ~sum(1 << x for x in ready_cols)
        if not ready_rows and not ready_cols:
            raise DomainError("not an EW-tableau: toppling scan stalls")
    if rows[0] != (1 << d.parts[0]) - 1:
        raise DomainError("not an EW-tableau: the top row holds a 0")
    if blocks[0] != (0,):
        raise DomainError("not an EW-tableau: a non-top row starts all 1s")
    return tuple(blocks)


def reference_corner_masks(t):
    """(row masks, witnessed masks), every pair of rows compared."""
    d = t.diagram
    rows = [reference_mask(row) for row in t.rows]
    shape = [(1 << p) - 1 for p in d.parts]
    full = shape[0]
    grid = reference_comparison_grid(d, reference_toppling_scan(t))
    ones = [r | (reference_mask(g) & ~m) for r, g, m in zip(rows, grid, shape)]
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


def reference_canonical_bounds(t):
    d = t.diagram
    rows, witnessed = reference_corner_masks(t)
    out = [0] * d.n
    unwitnessed_ones = [0] * d.parts[0]
    for i, r, w, p in zip(d.row_labels, rows, witnessed, d.parts):
        if i:
            out[i - 1] = (((1 << p) - 1) & ~r & ~w).bit_count()
        for x in sandpile._bits(r & ~w):
            unwitnessed_ones[x] += 1
    for j, count in zip(d.col_labels, unwitnessed_ones):
        out[j - 1] = count
    return tuple(out)


def reference_from_blocks(diagram, blocks):
    """(rows, validate's problems) of the filling the blocks give."""
    grid = reference_comparison_grid(diagram, blocks)
    t = EWTableau(diagram, [row[:p] for row, p in zip(grid, diagram.parts)])
    return t.rows, reference_validate(t)


def assert_layer_matches_reference(d, rows):
    """The tableau layer on a fresh tableau of these rows against the
    references: validate's problems in order, the scan's blocks or error
    text, and where the scan succeeds the bounds, the blocks corner
    support, the supplementary grid and the tableau of the blocks. The
    blocks route of corner support and the bounds read the scan's blocks,
    which is exact only because the scan refuses exactly the fillings
    validate does, and they refuse them with its text."""
    t = EWTableau(d, rows)
    assert tableaux.validate(t) == reference_validate(t), (d.parts, rows)
    blocks = toppling_or_error(tableaux.canonical_toppling, t)
    assert blocks == toppling_or_error(reference_toppling_scan, t), (d.parts, rows)
    assert EWTableau(d, rows) == t and hash(EWTableau(d, rows)) == hash(t)
    assert isinstance(blocks, str) == bool(tableaux.validate(t)), (d.parts, rows)
    if isinstance(blocks, str):
        for read in (tableaux.canonical_bounds, tableaux.corner_support):
            assert toppling_or_error(read, EWTableau(d, rows)) == blocks, (d.parts, rows)
        return
    t = EWTableau(d, rows)  # nothing kept from the scan above
    assert tableaux.canonical_bounds(t) == reference_canonical_bounds(t)
    _, witnessed = reference_corner_masks(t)
    assert tableaux.corner_support(t, "blocks") == {
        (i, d.col_labels[x])
        for i, w in zip(d.row_labels, witnessed) for x in sandpile._bits(w)}
    grid = reference_comparison_grid(d, blocks)
    s = tableaux.supplementary(t)
    assert s.grid == tuple(map(tuple, grid))
    assert s.row_strings() == tuple("".join(map(str, row)) for row in grid)
    ref_rows, problems = reference_from_blocks(d, blocks)
    if problems:
        with pytest.raises(DomainError) as e:
            tableaux.from_blocks(d, blocks)
        assert str(e.value) == "not an EW-tableau: %r" % (problems[0],)
        return
    built = tableaux.from_blocks(d, blocks)
    ref = EWTableau(d, ref_rows)
    assert built.rows == ref_rows and built.row_strings() == ref.row_strings()
    assert built == ref and hash(built) == hash(ref)
    if not tableaux.validate(t):
        assert built == t and hash(built) == hash(t)


def test_layer_matches_reference_on_every_ew_tableau():
    count = 0
    for m in range(2, 9):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                assert_layer_matches_reference(d, t.rows)
                count += 1
    assert count == 5913


def test_layer_matches_reference_on_every_filling():
    fillings = invalid = 0
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            for bits in itertools.product((0, 1), repeat=sum(d.parts)):
                starts = list(itertools.accumulate(d.parts, initial=0))
                rows = [bits[a:b] for a, b in zip(starts, starts[1:])]
                assert_layer_matches_reference(d, rows)
                fillings += 1
                invalid += bool(reference_validate(EWTableau(d, rows)))
    assert fillings == 2450 and 0 < invalid < fillings


@pytest.mark.parametrize("n", [100, 250, 500])
def test_layer_matches_reference_on_random_words(n):
    rng = random.Random(n)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    t = permutations.to_tableau(word)
    assert t.rows == reference_from_blocks(t.diagram, permutations.run_blocks(word))[0]
    assert_layer_matches_reference(t.diagram, t.rows)


def test_validate_runs_once_per_tableau(monkeypatch, d5332):
    # The toppling scan decides, once per tableau; the rules run only to
    # name the problem of a refused filling, once per refusal.
    scan, check = tableaux._toppling_scan, tableaux._violations
    scans, calls = [], []

    def counting_scan(t):
        scans.append(t)
        return scan(t)

    def counting_validate(t):
        calls.append(t)
        return check(t)

    monkeypatch.setattr(tableaux, "_toppling_scan", counting_scan)
    monkeypatch.setattr(tableaux, "_violations", counting_validate)
    c = (0, 0, 2, 1, 0, 0, 3, 2)
    t, deco = tableaux.decorated_from_config(d5332, c)
    assert (scans, calls) == ([], [])
    for _ in range(5):
        assert tableaux.config_from_decorated(t, deco) == c
        assert tableaux.ensure_valid(t) is t
        assert tableaux.validate(t) == []
    assert (scans, calls) == ([t], [])
    fresh = EWTableau(d5332, t.rows)
    for _ in range(5):
        assert tableaux.config_from_decorated(fresh, deco) == c
    assert (scans, calls) == ([t, fresh], [])
    bad = EWTableau(d5332, ("11111", "101", "010", "00"))
    for k in range(1, 4):
        with pytest.raises(DomainError, match="rectangle"):
            tableaux.ensure_valid(bad)
        assert calls == [bad] * k
    assert tableaux.validate(bad) == reference_validate(bad)
    assert calls == [bad] * 4


def test_refusal_without_a_problem_is_a_self_check_error(monkeypatch, d5332):
    monkeypatch.setattr(tableaux, "_violations", lambda t: iter(()))
    bad = EWTableau(d5332, ("11111", "101", "010", "00"))
    with pytest.raises(RuntimeError, match="breaks no EW rule"):
        tableaux.ensure_valid(bad)


def ordered_partitions(d, alternating):
    """Every ordered partition of the labels 0..n of d into nonempty sorted
    blocks; the alternating ones hold only rows or only columns per block,
    the two kinds taking turns."""
    def extend(left, last):
        if not left:
            yield ()
        for kind in (True, False) if alternating else (None,):
            if alternating and kind == last:
                continue
            pool = [v for v in left if kind is None or d.is_row(v) == kind]
            for size in range(1, len(pool) + 1):
                for block in itertools.combinations(pool, size):
                    rest = [v for v in left if v not in block]
                    for tail in extend(rest, kind):
                        yield (block,) + tail

    return extend(list(range(d.n + 1)), None)


@pytest.mark.parametrize("alternating, largest", [(False, 5), (True, 7)],
                         ids=["every-partition", "alternating"])
def test_from_blocks_breaks_only_the_row_rules(alternating, largest):
    # No ordered partition gives a bad rectangle, so from_blocks refuses
    # exactly the fillings that break top-row-ones or row-has-zero, and
    # names the first of them.
    count = refused = 0
    for m in range(2, largest + 1):
        for d in enumerate_diagrams(m):
            for blocks in ordered_partitions(d, alternating):
                rows, problems = reference_from_blocks(d, blocks)
                assert all(p["rule"] != "rectangle" for p in problems), blocks
                count += 1
                if problems:
                    refused += 1
                    with pytest.raises(DomainError) as e:
                        tableaux.from_blocks(d, blocks)
                    assert str(e.value) == "not an EW-tableau: %r" % (problems[0],)
                    continue
                t = tableaux.from_blocks(d, blocks)
                assert t.rows == rows and t._masks == tuple(map(reference_mask, rows))
                assert tableaux.validate(t) == []
                assert tableaux.canonical_toppling(t) == reference_toppling_scan(t)
    assert 0 < refused < count


@pytest.mark.parametrize("blocks", [
    ((0,), (1, 3, 5)),  # row 2 is missing
    ((0,), (2, 4, 5), (1, 3), (9,)),  # 9 is not a label
    ((0,), (2, 4, 5), (1, 3), (1,)),  # 1 comes twice
    ((0,), (2, 4, 5), (1, 3, "x")),
])
def test_from_blocks_refuses_a_non_partition(d321, blocks):
    with pytest.raises(DomainError, match=r"^blocks do not partition the labels 0\.\.5$"):
        tableaux.from_blocks(d321, blocks)


def test_tableau_route_at_n_2000_within_its_budget():
    # A random word of 1..2000 through its tableau and back, with the
    # tableau's corner-support bounds against the word's block core. The
    # budget is this test's own and leaves a wide margin.
    rng = random.Random(1)
    word = list(range(1, 2001))
    rng.shuffle(word)
    start = time.perf_counter()
    t = permutations.to_tableau(word)
    bounds = tableaux.canonical_bounds(t)
    elapsed = time.perf_counter() - start
    assert bounds == sandpile.canonical_bounds_from_blocks(permutations.run_blocks(word))
    assert permutations.from_tableau(t) == tuple(word)
    assert elapsed < 20, "to_tableau plus canonical_bounds took %.2fs" % elapsed
