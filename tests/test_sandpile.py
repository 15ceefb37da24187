"""Graph-side sandpile dynamics: toppling, burning, canonical avalanches."""

import random
import time

import pytest
from hypothesis import given, strategies as st

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import DomainError
from ewtab import cli, oracles, permutations, sandpile, tableaux


def test_is_stable(d321):
    assert sandpile.is_stable(d321, (0, 1, 1, 0, 2))
    assert not sandpile.is_stable(d321, (0, 1, 2, 0, 2))


def test_topple_moves_grains(d321):
    # vertex 5 has neighbors 0, 2, 4
    h = sandpile.topple(d321, (0, 1, 1, 0, 3), 5)
    assert h == (0, 2, 1, 1, 0)


def test_topple_sink_unconditional(d321):
    # sink neighbors are the columns 1, 3, 5
    h = sandpile.topple(d321, (0, 1, 1, 0, 2), 0)
    assert h == (1, 1, 2, 0, 3)


def test_stabilize_counts(d321):
    h, counts = sandpile.stabilize(d321, (0, 1, 1, 0, 3))
    assert sandpile.is_stable(d321, h)
    assert sum(counts.values()) >= 1
    # abelian: grain count conservation modulo sink absorption
    assert sum(h) <= 0 + 1 + 1 + 0 + 3


def test_stabilize_already_stable(d321):
    h, counts = sandpile.stabilize(d321, (0, 1, 1, 0, 2))
    assert h == (0, 1, 1, 0, 2)
    assert counts == {v: 0 for v in range(1, 6)}


def reference_graph_stabilize(diagram, heights):
    """The stabilizer as a rescan: after every topple, look for the smallest
    unstable vertex from vertex 1 again."""
    heights = list(heights)
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


# The benchmark's shape families: staircases 8, 16, 32 and rectangles 10, 20.
FAMILIES = [tuple(range(8, 0, -1)), (10,) * 10, tuple(range(16, 0, -1)),
            (20,) * 20, tuple(range(32, 0, -1))]


def stabilize_against_reference(parts, heights):
    d = FerrersDiagram(parts)
    expected = reference_graph_stabilize(d, heights)
    assert sandpile.stabilize(d, heights) == expected, (parts, heights)
    return expected


def test_stabilize_matches_rescan_on_bursts():
    rng = random.Random(5)
    topples = 0
    for parts in FAMILIES:
        d = FerrersDiagram(parts)
        for _ in range(4):
            heights = [g - 1 for g in d.degrees]
            for _ in range(rng.randint(1, 3 * d.n)):
                heights[rng.randrange(d.n)] += 1
            _, counts = stabilize_against_reference(parts, heights)
            topples += sum(counts.values())
    assert topples > 5_000


def test_stabilize_matches_rescan_on_every_small_shape():
    # every shape of semiperimeter 2..6, the one-row and one-column ones
    # among them, from empty heights to heights far above the degrees
    rng = random.Random(21)
    shapes = [d.parts for m in range(2, 7) for d in enumerate_diagrams(m)]
    assert len(shapes) == 31 and (5,) in shapes and (1,) * 5 in shapes
    topples = 0
    for parts in shapes:
        degs = FerrersDiagram(parts).degrees
        cases = [[0] * len(degs), [g - 1 for g in degs], list(degs),
                 [50 * g + 7 for g in degs]]
        cases += [[rng.randint(0, 10 * g) for g in degs] for _ in range(4)]
        for heights in cases:
            _, counts = stabilize_against_reference(parts, heights)
            topples += sum(counts.values())
    assert topples > 10_000


def test_stabilize_matches_rescan_on_one_heavy_vertex():
    heights = [0] * 15
    heights[7] = 10_000
    stable, counts = stabilize_against_reference((8,) * 8, heights)
    assert sandpile.is_stable(FerrersDiagram((8,) * 8), stable)
    assert counts[8] > 1_000


def odometer_holds(d, start, stable, counts):
    """The exact odometer identity: each vertex ends with its start, less
    its degree per topple of its own, plus one per topple of a non-sink
    neighbour."""
    return all(
        stable[v - 1] == start[v - 1] - d.degree(v) * counts[v]
        + sum(counts[u] for u in d.neighbors(v) if u != 0)
        for v in range(1, d.n + 1))


def test_stabilize_takes_any_height():
    # one vertex, then every vertex, raised by a burst: on the small shapes
    # a burst of 10**3 is also checked against the rescan, and the larger
    # ones everywhere by the odometer identity alone. Every shape takes a
    # burst before any shape takes a larger one, and each call has its own
    # time bound, so that a stabilizer whose work grows with the heights
    # fails at 10**6 instead of running on at 10**20.
    started = time.perf_counter()
    small = [d.parts for m in range(2, 7) for d in enumerate_diagrams(m)]
    checked = 0
    for burst in (10 ** 3, 10 ** 6, 10 ** 20):
        for parts in small + FAMILIES:
            d = FerrersDiagram(parts)
            base = [g - 1 for g in d.degrees]
            single = list(base)
            single[d.n // 2] += burst
            for start in (single, [h + burst for h in base]):
                began = time.perf_counter()
                stable, counts = sandpile.stabilize(d, start)
                assert time.perf_counter() - began < 0.5, (parts, burst)
                assert sandpile.is_stable(d, stable), (parts, burst)
                assert odometer_holds(d, start, stable, counts), (parts, burst)
                if burst == 10 ** 3 and parts in small:
                    assert (stable, counts) == reference_graph_stabilize(d, start)
                checked += 1
    assert checked == 6 * (len(small) + len(FAMILIES))
    assert time.perf_counter() - started < 5


GROUP_SHAPES = [tuple(range(16, 0, -1)), (16,) * 16, tuple(range(64, 0, -1)),
                (64,) * 64, (40,) * 10]


@pytest.mark.parametrize("parts", GROUP_SHAPES,
                         ids=["staircase-16", "square-16", "staircase-64",
                              "square-64", "rectangle-10x40"])
def test_sandpile_group_laws_past_enumeration(parts):
    # The recurrent configurations form a group under addition followed by
    # stabilization (Dhar 1990), with identity stab(2m - stab(2m)) for the
    # maximal stable m (Holroyd et al. 2008).
    d = FerrersDiagram(parts)

    def plus(a, b):
        return sandpile.stabilize(d, [x + y for x, y in zip(a, b)])[0]

    top = [g - 1 for g in d.degrees]
    twice = [2 * h for h in top]
    e = sandpile.stabilize(d, [a - b for a, b in zip(twice, plus(top, top))])[0]
    assert sandpile.is_recurrent(d, e)
    assert plus(e, e) == e
    rng = random.Random(d.n)
    a, b, c = (plus(top, [rng.randrange(g) for g in d.degrees]) for _ in range(3))
    for x in (a, b, c):
        assert sandpile.is_recurrent(d, x) and plus(x, e) == x
    assert plus(plus(a, b), c) == plus(a, plus(b, c))
    if parts in GROUP_SHAPES[:2]:  # the two 16s: the word route too
        word, deco = cli._perm_representation(d, [x + y for x, y in zip(a, b)])
        word2, deco2 = permutations.stabilize(word, deco)[:2]
        assert permutations.config_from_decorated(word2, deco2) == (d, plus(a, b))


def test_burning_order_recurrent(d321):
    order = sandpile.burning_order(d321, (0, 1, 1, 0, 2))
    assert order is not None
    assert sorted(order) == [1, 2, 3, 4, 5]


def test_burning_order_non_recurrent(d321):
    assert sandpile.burning_order(d321, (0, 0, 0, 0, 0)) is None


def test_burning_order_requires_stable(d321):
    with pytest.raises(DomainError):
        sandpile.burning_order(d321, (0, 1, 1, 0, 3))


def test_is_recurrent(d321):
    assert sandpile.is_recurrent(d321, (0, 1, 1, 0, 2))
    assert sandpile.is_recurrent(d321, (0, 0, 1, 0, 2))
    assert not sandpile.is_recurrent(d321, (0, 0, 1, 0, 1))


def test_burning_order_is_the_canonical_blocks_in_turn():
    # every shape of semiperimeter <= 6; recurrence decided independently
    seen = 0
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_recurrent(d):
                seen += 1
                order = sandpile.burning_order(d, c)
                blocks = sandpile.canonical_toppling(d, c)
                assert order == [v for block in blocks[1:] for v in block]
                work = sandpile.topple(d, c, 0)
                for v in order:
                    work = sandpile.topple(d, work, v)
                assert work == c, (d.parts, c)
    assert seen == 292


def test_is_recurrent_agrees_with_independent_burning():
    seen = 0
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_stable(d):
                seen += 1
                assert sandpile.is_recurrent(d, c) == (
                    oracles._burner(d)(c)), (d.parts, c)
    assert seen == 846


def test_canonical_toppling_5332(d5332):
    blocks = sandpile.canonical_toppling(d5332, (0, 0, 1, 2, 1, 1, 0, 3))
    assert blocks == ((0,), (1, 2, 8), (4, 6), (5,), (3,), (7,))
    blocks = sandpile.canonical_toppling(d5332, (0, 0, 2, 1, 0, 0, 3, 2))
    assert blocks == ((0,), (1, 2, 7), (3,), (8,), (4, 6), (5,))


def test_canonical_toppling_321(d321):
    assert sandpile.canonical_toppling(d321, (0, 0, 1, 0, 2)) == (
        (0,),
        (1, 3, 5),
        (2, 4),
    )
    assert sandpile.canonical_toppling(d321, (0, 1, 1, 0, 2)) == (
        (0,),
        (1, 3, 5),
        (2, 4),
    )
    assert sandpile.canonical_toppling(d321, (0, 1, 0, 0, 2)) == (
        (0,),
        (1, 5),
        (2, 4),
        (3,),
    )
    assert sandpile.canonical_toppling(d321, (0, 1, 1, 0, 1)) == (
        (0,),
        (1, 3),
        (2,),
        (5,),
        (4,),
    )


def test_canonical_toppling_after_sink_topple(d5332):
    # first block after the sink contains the vertices made unstable by it
    h = sandpile.topple(d5332, (0, 0, 1, 2, 1, 1, 0, 3), 0)
    assert h == (1, 1, 1, 2, 2, 1, 1, 4)


def test_canonical_toppling_rejects_non_recurrent(d321):
    with pytest.raises(DomainError):
        sandpile.canonical_toppling(d321, (0, 0, 0, 0, 0))


def test_canonical_blocks_alternate_sides():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            from ewtab import oracles

            for c in oracles.enumerate_recurrent(d):
                blocks = sandpile.canonical_toppling(d, c)
                assert blocks[0] == (0,)
                for k, block in enumerate(blocks[1:], start=1):
                    side = d.is_col if k % 2 == 1 else d.is_row
                    assert all(side(v) for v in block)
                assert sorted(v for b in blocks for v in b) == list(
                    range(d.n + 1)
                )


def test_level(d321):
    # level(c) = sum(c) + deg(sink) - |E|; minimal recurrent sits at level 0
    assert sandpile.level(d321, (0, 0, 1, 0, 2)) == 0
    assert sandpile.level(d321, (0, 1, 1, 0, 2)) == 1


def test_minimal_recurrent(d321):
    assert sandpile.minimal_recurrent(d321, (0, 1, 1, 0, 2)) == (0, 0, 1, 0, 2)
    assert sandpile.minimal_recurrent(d321, (0, 0, 1, 0, 2)) == (0, 0, 1, 0, 2)


def test_minimal_recurrent_requires_recurrent(d321):
    with pytest.raises(DomainError):
        sandpile.minimal_recurrent(d321, (0, 0, 0, 0, 1))


def test_canonical_bounds(d321):
    # nu of the minimal recurrent (0,0,1,0,2); vertex 2 can carry one extra
    # grain and stay in the same avalanche class, the rest cannot
    blocks = sandpile.canonical_toppling(d321, (0, 0, 1, 0, 2))
    assert sandpile.canonical_bounds_from_blocks(blocks) == (1, 2, 1, 1, 1)


@given(st.integers(0, 2 ** 30))
def test_stabilize_terminates_and_conserves(seed):
    import random

    rng = random.Random(seed)
    d = FerrersDiagram((3, 2, 1))
    h = tuple(rng.randrange(0, d.degree(v) + 3) for v in range(1, d.n + 1))
    g, counts = sandpile.stabilize(d, h)
    assert sandpile.is_stable(d, g)
    # every toppling of v sends deg(v) grains out and keeps the rest
    shed = sum(counts.get(v, 0) * len([u for u in d.neighbors(v) if u == 0])
               for v in range(1, d.n + 1))
    assert sum(g) == sum(h) - shed


HEIGHT_ENTRIES = [
    (sandpile, "is_stable"),
    (sandpile, "stabilize"),
    (sandpile, "is_recurrent"),
    (sandpile, "burning_order"),
    (sandpile, "canonical_toppling"),
    (sandpile, "level"),
    (sandpile, "minimal_recurrent"),
    (sandpile, "decompose"),
    (tableaux, "decorated_from_config"),
    (permutations, "decorated_from_config"),
]
STABILITY_NEEDED = {
    "is_recurrent": "burning test needs a stable configuration",
    "burning_order": "burning test needs a stable configuration",
    "canonical_toppling": "canonical toppling needs a stable configuration",
    "minimal_recurrent": "canonical toppling needs a stable configuration",
    "decompose": "canonical toppling needs a stable configuration",
    "decorated_from_config": "canonical toppling needs a stable configuration",
}


@pytest.mark.parametrize("module, name", HEIGHT_ENTRIES,
                         ids=["%s.%s" % (m.__name__.split(".")[-1], f)
                              for m, f in HEIGHT_ENTRIES])
def test_every_entry_rejects_bad_heights_with_the_same_text(d321, module, name):
    entry = getattr(module, name)
    with pytest.raises(DomainError, match=r"^expected 5 heights, got 4$"):
        entry(d321, (0, 0, 0, 0))
    with pytest.raises(DomainError) as e:
        entry(d321, (0, -1, 1, 0, 2))
    assert str(e.value) == "heights must be non-negative: (0, -1, 1, 0, 2)"
    unstable = (0, 1, 1, 0, 9)
    if name in STABILITY_NEEDED:
        with pytest.raises(DomainError) as e:
            entry(d321, unstable)
        assert str(e.value) == STABILITY_NEEDED[name]
    else:
        entry(d321, unstable)


def counting_checks(monkeypatch):
    calls = []
    check = sandpile.check_counts

    def counting_check(values, n, what):
        calls.append(what)
        return check(values, n, what)

    monkeypatch.setattr(sandpile, "check_counts", counting_check)
    return calls


@pytest.mark.parametrize("name", ["decompose", "canonical_toppling",
                                  "burning_order", "is_recurrent"])
def test_heights_are_checked_once_per_entry(monkeypatch, d5332, name):
    calls = counting_checks(monkeypatch)
    c = (0, 0, 2, 1, 0, 0, 3, 2)
    for _ in range(3):
        getattr(sandpile, name)(d5332, c)
    assert calls == ["heights"] * 3


def test_decorated_from_config_checks_heights_once(monkeypatch, d5332):
    calls = counting_checks(monkeypatch)
    tableaux.decorated_from_config(d5332, (0, 0, 2, 1, 0, 0, 3, 2))
    permutations.decorated_from_config(d5332, (0, 0, 2, 1, 0, 0, 3, 2))
    assert calls == ["heights"] * 2


def test_decompose_reads_the_avalanche_count(monkeypatch, capsys):
    # the surplus comes from the avalanche's own neighbour count, so no
    # second pass over the blocks builds the minimal configuration
    def no_second_pass(blocks):
        raise RuntimeError("minimal_from_blocks was called")

    monkeypatch.setattr(sandpile, "minimal_from_blocks", no_second_pass)
    d = FerrersDiagram((5, 5, 5, 4, 4))
    c = (4, 3, 1, 3, 3, 4, 2, 1, 4)
    word = (6, 9, 5, 4, 2, 1, 3, 7, 8)
    deco = (1, 0, 1, 1, 1, 0, 2, 1, 0)
    assert sandpile.decompose(d, c) == (((0,), (6, 9), (1, 2, 4, 5), (3, 7, 8)), deco)
    assert sandpile.minimal_recurrent(d, c) == (3, 3, 0, 2, 2, 4, 0, 0, 4)
    assert permutations.decorated_from_config(d, c) == (word, deco)
    t, a = tableaux.decorated_from_config(d, c)
    assert (t.row_strings(), a) == (("11111", "01101", "01101", "0110", "0110"), deco)
    argv = ["convert", "--from", "config", "--shape", "5,5,5,4,4", "--data", "4,3,1,3,3,4,2,1,4"]
    expected = {
        "tableau": "11111/01101/01101/0110/0110^1,0,1,1,1,0,2,1,0\n",
        "perm": "6^0 9^0 - 5^1 4^1 2^0 1^1 - 3^1 7^2 8^1\n",
        "tree": ".,6,9,2,6,6,0,4,2,0\n",
    }
    for dst, text in expected.items():
        assert cli.main(argv + ["--to", dst]) == 0
        assert capsys.readouterr() == (text, "")


def reference_avalanche(diagram, heights, what):
    """The avalanche as a loop over the edges: every block rescans the
    vertices 1..n and sends one grain along every edge of its members."""
    n = diagram.n
    degs = diagram.degrees
    if not all(h < g for h, g in zip(heights, degs)):
        raise DomainError("%s needs a stable configuration" % what)
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
            return None
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


def avalanche_against_reference(d, heights):
    heights = tuple(heights)
    expected = reference_avalanche(d, heights, "test")
    result = sandpile._avalanche(d, heights, "test")
    if expected is None:
        assert result is None, (d.parts, heights)
        return None
    blocks, got = result
    assert blocks == expected, (d.parts, heights)
    assert tuple(got[1:]) == sandpile.stable_bounds_from_blocks(blocks), (d.parts, heights)
    return expected


def test_avalanche_matches_edge_loop_on_every_stable_configuration():
    seen = stalls = 0
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_stable(d):
                seen += 1
                stalls += avalanche_against_reference(d, c) is None
    assert (seen, stalls) == (8210, 5814)


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_avalanche_matches_edge_loop_on_random_words(n):
    rng = random.Random(n)
    for _ in range(3):
        word = tuple(rng.sample(range(1, n + 1), n))
        blocks = permutations.run_blocks(word)
        deco = tuple(rng.randrange(b) for b in sandpile.canonical_bounds_from_blocks(blocks))
        d, heights = permutations.config_from_decorated(word, deco)
        assert avalanche_against_reference(d, heights) == blocks
        # below a minimal configuration the avalanche stalls
        low = list(sandpile.minimal_from_blocks(blocks))
        low[rng.choice([v for v, h in enumerate(low) if h])] -= 1
        assert avalanche_against_reference(d, low) is None
        # random grains taken away: a stall or not, both loops must agree
        thin = [h - rng.randint(0, h) if rng.random() < 0.02 else h for h in heights]
        avalanche_against_reference(d, thin)


def test_config_paths_walk_no_edges(monkeypatch, capsys):
    fresh = FerrersDiagram((5, 3, 3, 2))
    assert fresh.degrees == (1, 1, 3, 3, 3, 2, 4, 4)
    assert "_neighbors_of" not in vars(fresh)

    c = (0, 0, 2, 1, 0, 0, 3, 2)
    argv = ["convert", "--from", "config", "--shape", "5,3,3,2", "--data", "0,0,2,1,0,0,3,2"]

    def run_all(d):
        out = [
            sandpile.canonical_toppling(d, c),
            sandpile.decompose(d, c),
            sandpile.burning_order(d, c),
            sandpile.is_recurrent(d, c),
            sandpile.is_recurrent(d, (0,) * 8),
            permutations.decorated_from_config(d, c),
            tableaux.decorated_from_config(d, c),
        ]
        for dst in ("config", "tableau", "perm", "tree"):
            for fmt in ("text", "json"):
                out.append((cli.main(argv + ["--to", dst, "--format", fmt]),
                            capsys.readouterr()))
        return out

    expected = run_all(FerrersDiagram((5, 3, 3, 2)))

    def no_edge_walk(*args):
        raise RuntimeError("an edge was walked")

    monkeypatch.setattr(FerrersDiagram, "neighbors", no_edge_walk)
    monkeypatch.setattr(FerrersDiagram, "_neighbors_of", property(no_edge_walk))
    assert run_all(FerrersDiagram((5, 3, 3, 2))) == expected
    assert expected[0] == ((0,), (1, 2, 7), (3,), (8,), (4, 6), (5,))
    assert [code for code, _ in expected[7:]] == [0] * 8
