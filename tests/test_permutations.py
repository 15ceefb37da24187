"""Decorated permutations: run blocks, decoration bounds, the letter-level
stabilization, and agreement with the graph dynamics."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import DomainError
from ewtab import oracles, permutations, sandpile, tableaux
from ewtab.tableaux import EWTableau


def test_run_blocks():
    assert permutations.run_blocks((1, 2, 7, 3, 8, 6, 4, 5)) == (
        (0,), (1, 2, 7), (3,), (8,), (4, 6), (5,))
    assert permutations.run_blocks((3, 5, 8, 7, 1, 4, 9, 6, 2)) == (
        (0,), (3, 5, 8), (1, 7), (4, 9), (2, 6))
    assert permutations.run_blocks((6, 9, 5, 4, 2, 1, 3, 7, 8)) == (
        (0,), (6, 9), (1, 2, 4, 5), (3, 7, 8))
    assert permutations.run_blocks((2, 1)) == ((0,), (2,), (1,))
    assert permutations.run_blocks((1,)) == ((0,), (1,))


def test_run_blocks_rejects_bad_words():
    with pytest.raises(DomainError):
        permutations.run_blocks(())
    with pytest.raises(DomainError):
        permutations.run_blocks((1, 1))
    with pytest.raises(DomainError):
        permutations.run_blocks((2, 3))


def sorted_runs(word):
    """The run blocks, each run sorted outright."""
    blocks = [(0,)]
    i = 0
    ascending = True
    while i < len(word):
        j = i + 1
        while j < len(word) and (word[j] > word[j - 1]) == ascending:
            j += 1
        blocks.append(tuple(sorted(word[i:j])))
        i = j
        ascending = not ascending
    return tuple(blocks)


def test_runs_match_the_sorted_runs():
    words = [w for n in range(1, 8) for w in itertools.permutations(range(1, n + 1))]
    rng = random.Random(16)
    for _ in range(500):
        word = list(range(1, rng.randint(1, 300) + 1))
        rng.shuffle(word)
        words.append(tuple(word))
    for word in words:
        assert permutations._runs(word) == sorted_runs(word)


def test_word_from_blocks_round_trip():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            blocks = permutations.run_blocks(word)
            assert permutations.word_from_blocks(blocks) == word


def test_word_from_blocks_rejects_non_canonical():
    # (1)(2) renders as the word 12, which parses as a single ascending run
    with pytest.raises(DomainError):
        permutations.word_from_blocks(((0,), (1,), (2,)))
    with pytest.raises(DomainError):
        permutations.word_from_blocks(((1,), (2,)))


def test_shape_of_word():
    assert permutations.shape_of_word((1, 2, 7, 3, 8, 6, 4, 5)).parts == (
        5, 3, 3, 2)
    assert permutations.shape_of_word((3, 5, 8, 7, 1, 4, 9, 6, 2)).parts == (
        5, 5, 5, 2, 2)
    assert permutations.shape_of_word((1,)).parts == (1,)


def test_from_tableau():
    d = FerrersDiagram((5, 3, 3, 2))
    t = EWTableau(d, ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 1)))
    assert permutations.from_tableau(t) == (1, 2, 8, 6, 4, 5, 3, 7)
    t2 = EWTableau(d, ((1, 1, 1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0)))
    assert permutations.from_tableau(t2) == (1, 2, 7, 3, 8, 6, 4, 5)


def test_to_tableau_inverts_from_tableau():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                w = permutations.from_tableau(t)
                assert permutations.shape_of_word(w) == d
                assert permutations.to_tableau(w) == t


def test_to_tableau_total_on_symmetric_group():
    # every permutation of [1,n] is the word of exactly one tableau
    for n in range(1, 7):
        seen = set()
        for word in itertools.permutations(range(1, n + 1)):
            t = permutations.to_tableau(word)
            assert permutations.from_tableau(t) == word
            seen.add((t.diagram.parts, t.rows))
        assert len(seen) == len(list(itertools.permutations(range(1, n + 1))))


def test_word_from_config():
    d = FerrersDiagram((3, 2, 1))
    assert permutations.word_from_config(d, (0, 1, 1, 0, 2)) == (1, 3, 5, 4, 2)
    assert permutations.word_from_config(d, (0, 0, 1, 0, 2)) == (1, 3, 5, 4, 2)
    assert permutations.word_from_config(d, (0, 1, 0, 0, 2)) == (1, 5, 4, 2, 3)
    d = FerrersDiagram((5, 3, 3, 2))
    assert permutations.word_from_config(d, (0, 0, 2, 1, 0, 0, 3, 2)) == (
        1, 2, 7, 3, 8, 6, 4, 5)


def test_minimal_config():
    runs = permutations.run_blocks
    assert sandpile.minimal_from_blocks(runs((1, 2, 7, 3, 8, 6, 4, 5))) == (
        0, 0, 2, 1, 0, 0, 3, 2)
    assert sandpile.minimal_from_blocks(runs((1, 3, 5, 4, 2))) == (0, 0, 1, 0, 2)
    assert sandpile.minimal_from_blocks(runs((2, 3, 1))) == (0, 1, 1)


def test_minimal_config_matches_tableau_route():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                blocks = permutations.run_blocks(permutations.from_tableau(t))
                assert sandpile.minimal_from_blocks(blocks) == (
                    tableaux.minimal_config(t))


def test_canonical_bounds_worked_example():
    blocks = permutations.run_blocks((3, 5, 8, 7, 1, 4, 9, 6, 2))
    assert sandpile.canonical_bounds_from_blocks(blocks) == (3, 2, 1, 1, 1, 1, 1, 1, 2)
    assert sandpile.stable_bounds_from_blocks(blocks) == (3, 5, 1, 2, 1, 2, 1, 1, 3)


def test_bounds_mid_stabilization():
    runs = permutations.run_blocks
    assert sandpile.canonical_bounds_from_blocks(runs((6, 7, 2, 3, 5, 4, 1))) == (
        2, 2, 1, 1, 1, 1, 1)
    assert sandpile.canonical_bounds_from_blocks(runs((3, 5, 7, 4, 1, 6, 2))) == (
        3, 1, 1, 2, 1, 2, 1)


def test_bounds_match_tableau_route():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for t in oracles.enumerate_tableaux(d):
                blocks = permutations.run_blocks(permutations.from_tableau(t))
                assert sandpile.canonical_bounds_from_blocks(blocks) == (
                    tableaux.canonical_bounds(t))
                assert sandpile.stable_bounds_from_blocks(blocks) == (
                    sandpile.stable_bounds_from_blocks(tableaux.canonical_toppling(t)))


def test_minimal_plus_stable_is_degrees():
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            d = permutations.shape_of_word(word)
            blocks = permutations.run_blocks(word)
            r = sandpile.minimal_from_blocks(blocks)
            sb = sandpile.stable_bounds_from_blocks(blocks)
            assert tuple(x + y for x, y in zip(r, sb)) == d.degrees


def test_classify_decoration():
    blocks = permutations.run_blocks((3, 5, 8, 7, 1, 4, 9, 6, 2))
    top_canonical = (2, 1, 0, 0, 0, 0, 0, 0, 1)
    top_stable = (2, 4, 0, 1, 0, 1, 0, 0, 2)
    assert sandpile.classify_decoration(blocks, top_canonical) == "canonical"
    assert sandpile.classify_decoration(blocks, top_stable) == "stable"
    assert sandpile.classify_decoration(blocks, (0,) * 9) == "canonical"
    over = (2, 5, 0, 1, 0, 1, 0, 0, 2)
    assert sandpile.classify_decoration(blocks, over) == "invalid"
    with pytest.raises(DomainError):
        sandpile.classify_decoration(blocks, (0,) * 8)
    with pytest.raises(DomainError):
        sandpile.classify_decoration(blocks, (-1,) + (0,) * 8)


def test_decorated_from_config():
    d = FerrersDiagram((3, 2, 1))
    w, a = permutations.decorated_from_config(d, (0, 1, 1, 0, 2))
    assert w == (1, 3, 5, 4, 2)
    assert a == (0, 1, 0, 0, 0)


def test_config_from_decorated_is_permissive():
    # any nonnegative decoration maps back to minimal config plus decoration
    d, h = permutations.config_from_decorated((2, 3, 1), (5, 0, 0))
    assert d.parts == (2, 2)
    assert h == (5, 1, 1)


def test_config_round_trip():
    for m in range(2, 8):
        for d in enumerate_diagrams(m):
            for c in oracles.enumerate_recurrent(d):
                w, a = permutations.decorated_from_config(d, c)
                blocks = permutations.run_blocks(w)
                assert sandpile.classify_decoration(blocks, a) == "canonical"
                d2, c2 = permutations.config_from_decorated(w, a)
                assert (d2, c2) == (d, c)


def reference_stabilize(word, decorations, trace=False):
    """The stabilizer on a block index per letter: after every settle or
    topple it regroups all letters into blocks, takes every bound from the
    block core and rewrites the word."""
    word = permutations._check_word(word)
    n = len(word)
    deco = list(sandpile.check_counts(decorations, n, "decorations"))
    pos = [0] * (n + 1)
    for k, block in enumerate(permutations._runs(word)):
        for x in block:
            pos[x] = k
    events = []
    cap = 10_000 + 40 * (n + 2) ** 3 * (sum(deco) + n + 2)
    steps = 0

    def layout():
        blocks = [[] for _ in range(max(pos) + 1)]
        for x, k in enumerate(pos):
            blocks[k].append(x)
        return (blocks, sandpile.canonical_bounds_from_blocks(blocks),
                permutations._write(blocks))

    def pay(blocks, x, bound):
        if deco[x - 1] < bound:
            raise RuntimeError(
                "letter %d cannot pay its %d witnesses" % (x, bound))
        deco[x - 1] -= bound
        previous = blocks[pos[x] - 1]
        for w in permutations.in_block_order(previous, pos[x])[:bound]:
            if w:
                deco[w - 1] += 1

    def record(action, letter, word):
        if trace:
            events.append({"action": action, "letter": letter, "word": word,
                           "decorations": tuple(deco)})

    blocks, bound, out = layout()
    while True:
        steps += 1
        if steps >= cap:
            raise RuntimeError("stabilization exceeded its iteration budget")
        x = next((x for x in out if pos[x] >= 3 and deco[x - 1] >= bound[x - 1]),
                 None)
        if x is not None:
            pay(blocks, x, bound[x - 1])
            pos[x] -= 2
            blocks, bound, out = layout()
            record("settle", x, out)
            continue
        unstable = {x for x in out
                    if pos[x] <= 2 and deco[x - 1] >= bound[x - 1]}
        if not unstable:
            break
        while unstable:
            x = next(l for l in out if l in unstable)
            unstable.discard(x)
            pay(blocks, x, bound[x - 1])
            k = pos[x]
            beaten = range(x) if k == 1 else range(x + 1, n + 1)
            pos[x] = max(pos[j] for j in beaten if pos[j] % 2 != k % 2) + 1
            if 2 not in pos:
                pos[:] = [p - 2 if p >= 3 else p for p in pos]
            blocks, bound, out = layout()
            record("topple", x, out)
    if permutations._runs(out) != tuple(map(tuple, blocks)):
        raise RuntimeError("stabilized blocks are not the runs of %r" % (out,))
    if sandpile.classify_decoration(blocks, deco) != "canonical":
        raise RuntimeError(
            "stabilized decoration of %r is not canonical" % (out,))
    if trace:
        return out, tuple(deco), events
    return out, tuple(deco)


def stabilize_or_error(stabilize, word, decorations):
    try:
        return stabilize(word, decorations, trace=True)
    except (RuntimeError, ValueError) as e:
        return type(e).__name__, str(e)


def test_stabilize_matches_reference():
    rng = random.Random(11)
    cases = []
    for _ in range(1500):
        n = rng.randint(1, 12)
        word = tuple(rng.sample(range(1, n + 1), n))
        cases.append((word, tuple(rng.randint(0, 4) for _ in range(n))))
    for parts in [tuple(range(16, 0, -1)), (8,) * 8, tuple(range(32, 0, -1)), (20,) * 20]:
        d = FerrersDiagram(parts)
        top = tuple(g - 1 for g in d.degrees)
        word, deco = permutations.decorated_from_config(d, top)
        for _ in range(4):
            burst = list(deco)
            for _ in range(rng.randint(1, 2 * d.n)):
                burst[rng.randrange(d.n)] += 1
            cases.append((word, tuple(burst)))
    events = 0
    for word, deco in cases:
        ours = stabilize_or_error(permutations.stabilize, word, deco)
        assert ours == stabilize_or_error(reference_stabilize, word, deco), (
            word, deco)
        events += len(ours[2]) if len(ours) == 3 else 0
    assert events > 10_000


def test_stabilize_matches_reference_at_larger_sizes():
    # long words, where a settle search restarted from block 3 and one
    # restarted near the last settle differ most
    rng = random.Random(40)
    events = 0
    for _ in range(20):
        n = rng.randint(40, 80)
        word = tuple(rng.sample(range(1, n + 1), n))
        nu = sandpile.canonical_bounds_from_blocks(permutations.run_blocks(word))
        deco = [rng.randrange(b) for b in nu]
        for _ in range(rng.randint(1, 2 * n)):
            deco[rng.randrange(n)] += 1
        ours = stabilize_or_error(permutations.stabilize, word, deco)
        assert ours == stabilize_or_error(reference_stabilize, word, deco), (
            word, deco)
        events += len(ours[2]) if len(ours) == 3 else 0
    assert events > 2_000


def test_stabilize_trace_off_matches_trace_on():
    # the untraced run makes the same moves as the traced one, and the
    # traced one matches the old stabilizer move by move
    rng = random.Random(15)
    cases = []
    for _ in range(1000):
        n = rng.randint(1, 14)
        word = tuple(rng.sample(range(1, n + 1), n))
        cases.append((word, tuple(rng.randint(0, 4) for _ in range(n))))
    families = [tuple(range(k, 0, -1)) for k in (8, 16, 32)] + [(10,) * 10, (20,) * 20]
    for parts in families:
        d = FerrersDiagram(parts)
        top = tuple(g - 1 for g in d.degrees)
        word, deco = permutations.decorated_from_config(d, top)
        for _ in range(3):
            burst = list(deco)
            for _ in range(rng.randint(1, d.n)):
                burst[rng.randrange(d.n)] += 1
            cases.append((word, tuple(burst)))
    events = 0
    for word, deco in cases:
        traced = stabilize_or_error(permutations.stabilize, word, deco)
        assert traced == stabilize_or_error(reference_stabilize, word, deco), (
            word, deco)
        try:
            untraced = permutations.stabilize(word, deco)
        except (RuntimeError, ValueError) as e:
            untraced = type(e).__name__, str(e)
        assert untraced == traced[:2], (word, deco)
        events += len(traced[2]) if len(traced) == 3 else 0
    assert events > 10_000


def test_stabilize_noop_on_canonical():
    out = permutations.stabilize((2, 3, 1), (1, 0, 0), trace=True)
    assert out == ((2, 3, 1), (1, 0, 0), [])


def test_stabilize_single_settle():
    w, a, events = permutations.stabilize((2, 1, 3), (0, 0, 1), trace=True)
    assert (w, a) == ((2, 3, 1), (1, 0, 0))
    assert len(events) == 1
    assert events[0]["action"] == "settle"
    assert events[0]["letter"] == 3
    assert events[0]["word"] == (2, 3, 1)
    assert events[0]["decorations"] == (1, 0, 0)


def test_stabilize_full_trace():
    w, a, events = permutations.stabilize(
        (6, 7, 2, 3, 5, 4, 1), (1, 1, 0, 0, 0, 1, 0), trace=True)
    assert (w, a) == ((3, 5, 4, 1, 6, 2, 7), (1, 0, 0, 0, 0, 0, 0))
    assert [(e["action"], e["letter"]) for e in events] == [
        ("topple", 6), ("topple", 2), ("topple", 7)]
    assert events[0]["word"] == (7, 2, 3, 5, 4, 1, 6)
    assert events[0]["decorations"] == (1, 1, 0, 0, 0, 0, 0)
    assert events[1]["word"] == (3, 5, 7, 4, 1, 6, 2)
    assert events[1]["decorations"] == (1, 0, 0, 0, 0, 0, 1)
    assert events[2]["word"] == (3, 5, 4, 1, 6, 2, 7)
    assert events[2]["decorations"] == (1, 0, 0, 0, 0, 0, 0)


def test_stabilize_without_trace():
    out = permutations.stabilize((6, 7, 2, 3, 5, 4, 1), (1, 1, 0, 0, 0, 1, 0))
    assert out == ((3, 5, 4, 1, 6, 2, 7), (1, 0, 0, 0, 0, 0, 0))


def test_stabilize_preserves_shape_and_config():
    import random

    rng = random.Random(7)
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            rec = sorted(oracles.enumerate_recurrent(d))
            for c in rec:
                w, a = permutations.decorated_from_config(d, c)
                for _ in range(3):
                    v = rng.randrange(1, d.n + 1)
                    bumped = list(a)
                    bumped[v - 1] += 1
                    w2, a2 = permutations.stabilize(w, tuple(bumped))
                    assert permutations.shape_of_word(w2) == d
                    g, _ = sandpile.stabilize(
                        d, tuple(x + (1 if u == v else 0)
                                 for u, x in enumerate(c, start=1)))
                    assert permutations.decorated_from_config(d, g) == (w2, a2)


def test_stabilize_handles_stable_non_canonical():
    # a stable but non-canonical decoration settles without any toppling
    w = (3, 5, 8, 7, 1, 4, 9, 6, 2)
    top_stable = (2, 4, 0, 1, 0, 1, 0, 0, 2)
    w2, a2, events = permutations.stabilize(w, top_stable, trace=True)
    blocks2 = permutations.run_blocks(w2)
    assert sandpile.classify_decoration(blocks2, a2) == "canonical"
    assert all(e["action"] == "settle" for e in events)
    # total grain count is preserved when nothing topples into the sink
    d = permutations.shape_of_word(w)
    r = sandpile.minimal_from_blocks(permutations.run_blocks(w))
    r2 = sandpile.minimal_from_blocks(blocks2)
    assert sum(r) + sum(top_stable) == sum(r2) + sum(a2)


word_strategy = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


@given(word_strategy)
@settings(max_examples=60)
def test_blocks_cover_letters(word):
    blocks = permutations.run_blocks(word)
    assert blocks[0] == (0,)
    assert sorted(v for b in blocks for v in b) == list(range(len(word) + 1))
    for b in blocks:
        assert b == tuple(sorted(b))


@given(word_strategy)
@settings(max_examples=60)
def test_bounds_are_positive(word):
    blocks = permutations.run_blocks(word)
    nu = sandpile.canonical_bounds_from_blocks(blocks)
    sb = sandpile.stable_bounds_from_blocks(blocks)
    assert all(v >= 1 for v in nu)
    assert all(a <= b for a, b in zip(nu, sb))


@pytest.mark.parametrize("parts", [
    tuple(range(16, 0, -1)), tuple(range(32, 0, -1)), (8,) * 8])
def test_stabilize_matches_graph_beyond_enumeration(parts):
    import random

    d = FerrersDiagram(parts)
    rng = random.Random(len(parts) * 1000 + parts[0])
    top = tuple(g - 1 for g in d.degrees)  # the maximal stable config
    w, a = permutations.decorated_from_config(d, top)
    for _ in range(3):
        burst = [0] * d.n
        for _ in range(rng.randint(1, d.n)):
            burst[rng.randrange(d.n)] += 1
        bumped = tuple(x + b for x, b in zip(a, burst))
        g, _ = sandpile.stabilize(d, tuple(x + b for x, b in zip(top, burst)))
        blocks, deco = sandpile.decompose(d, g)
        expected = (permutations.word_from_blocks(blocks), deco)
        assert permutations.stabilize(w, bumped) == expected
        w2, a2, events = permutations.stabilize(w, bumped, trace=True)
        assert (w2, a2) == expected
        assert events
        assert (events[-1]["word"], events[-1]["decorations"]) == expected


def test_stabilize_random_word_beyond_enumeration():
    rng = random.Random(120)
    word = tuple(rng.sample(range(1, 121), 120))
    nu = sandpile.canonical_bounds_from_blocks(permutations.run_blocks(word))
    deco = tuple(rng.randrange(b) for b in nu)
    d, heights = permutations.config_from_decorated(word, deco)
    assert permutations.stabilize(word, deco) == (word, deco)
    for _ in range(2):
        burst = [0] * d.n
        for _ in range(rng.randint(d.n, 3 * d.n)):
            burst[rng.randrange(d.n)] += 1
        g, counts = sandpile.stabilize(
            d, tuple(h + b for h, b in zip(heights, burst)))
        assert sum(counts.values()) > d.n
        blocks, expected = sandpile.decompose(d, g)
        w2, a2 = permutations.stabilize(
            word, tuple(a + b for a, b in zip(deco, burst)))
        assert (w2, a2) == (permutations.word_from_blocks(blocks), expected)
        assert w2 != word
