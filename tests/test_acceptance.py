"""The acceptance gate: one test per contract criterion, each timed against
its stated budget and reported as a PASS/FAIL line in the terminal summary.

Every expected value here is frozen from the worked examples or from an
independent brute-force enumeration; nothing is computed and then compared
against itself through the same code path.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import record_criterion

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab import oracles, permutations, sandpile, tableaux, trees
from ewtab.tableaux import EWTableau


@contextmanager
def criterion(name, limit_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        within = limit_seconds is None or elapsed <= limit_seconds
        record_criterion(name, ok and within, elapsed, limit_seconds)
    assert within, "%s took %.2fs, budget %ss" % (name, elapsed, limit_seconds)


def test_criterion_1_worked_examples():
    with criterion("worked examples, bit-exact", 1):
        d = FerrersDiagram((5, 3, 3, 2))

        # tableau -> minimal configuration and its avalanche
        t = EWTableau(d, ((1, 1, 1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 1)))
        assert tableaux.minimal_config(t) == (0, 0, 1, 2, 1, 1, 0, 3)
        assert tableaux.canonical_toppling(t) == (
            (0,), (1, 2, 8), (4, 6), (5,), (3,), (7,))

        # configuration -> avalanche and permutation
        c = (0, 0, 2, 1, 0, 0, 3, 2)
        assert sandpile.canonical_toppling(d, c) == (
            (0,), (1, 2, 7), (3,), (8,), (4, 6), (5,))
        assert permutations.word_from_config(d, c) == (1, 2, 7, 3, 8, 6, 4, 5)

        # minimal part of a recurrent configuration
        d321 = FerrersDiagram((3, 2, 1))
        assert sandpile.minimal_recurrent(d321, (0, 1, 1, 0, 2)) == (
            0, 0, 1, 0, 2)

        # supplementary tableau of the worked example
        t2 = EWTableau(d, ((1, 1, 1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0)))
        assert tableaux.supplementary(t2).row_strings() == (
            "11111", "10100", "00100", "00100")

        # decoration bound vectors of the two cornersupport examples
        big = EWTableau(
            FerrersDiagram((13, 11, 11, 6, 4, 3, 3)),
            tuple(
                tuple(int(ch) for ch in row)
                for row in (
                    "1111111111111",
                    "00111000000",
                    "10111101110",
                    "101110",
                    "1011",
                    "001",
                    "101",
                )
            ),
        )
        assert tableaux.canonical_bounds(big) == (
            1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1)
        small = EWTableau(
            FerrersDiagram((4, 4, 3, 2)),
            ((1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 0), (0, 1)),
        )
        assert tableaux.canonical_bounds(small) == (1, 1, 2, 1, 1, 2, 1)

        # decorated permutation <-> intransitive tree, both directions
        word = (6, 9, 5, 4, 2, 1, 3, 7, 8)
        deco = (1, 0, 1, 1, 1, 0, 2, 1, 0)
        parents = (None, 6, 9, 2, 6, 6, 0, 4, 2, 0)
        assert trees.perm_to_tree(word, deco) == parents
        assert trees.tree_to_perm(parents) == (word, deco)

        # the four-stage stabilization trace, on all three levels
        stages = [
            ((6, 7, 2, 3, 5, 4, 1), (1, 1, 0, 0, 0, 1, 0),
             ("1111", "0000", "0011", "000"), (1, 3, 1, 0, 2, 4, 3)),
            ((7, 2, 3, 5, 4, 1, 6), (1, 1, 0, 0, 0, 0, 0),
             ("1111", "0100", "0111", "010"), (2, 4, 1, 1, 2, 0, 3)),
            ((3, 5, 7, 4, 1, 6, 2), (1, 0, 0, 0, 0, 0, 1),
             ("1111", "0100", "0000", "010"), (2, 0, 2, 1, 3, 1, 4)),
            ((3, 5, 4, 1, 6, 2, 7), (1, 0, 0, 0, 0, 0, 0),
             ("1111", "1100", "1000", "110"), (3, 1, 2, 2, 3, 1, 0)),
        ]
        word0, deco0 = stages[0][0], stages[0][1]
        final_word, final_deco, events = permutations.stabilize(
            word0, deco0, trace=True)
        assert (final_word, final_deco) == (stages[-1][0], stages[-1][1])
        assert [(e["word"], e["decorations"]) for e in events] == [
            (w, a) for w, a, _, _ in stages[1:]]
        assert [e["letter"] for e in events] == [6, 2, 7]
        assert [e["action"] for e in events] == ["topple"] * 3
        df = permutations.shape_of_word(word0)
        assert df.parts == (4, 4, 4, 3)
        for w, a, rows, heights in stages:
            t_stage = permutations.to_tableau(w)
            assert t_stage.row_strings() == rows
            got_d, got_h = permutations.config_from_decorated(w, a)
            assert (got_d, got_h) == (df, heights)
        # the same avalanche on the graph, one toppling per stage
        for (w1, a1, _, h1), (_, _, _, h2), e in zip(
                stages, stages[1:], events):
            assert sandpile.topple(df, h1, e["letter"]) == h2
        assert sandpile.stabilize(df, stages[0][3])[0] == stages[-1][3]


def test_criterion_2_counting_identity():
    with criterion("recurrent count equals spanning trees", 60):
        d321 = FerrersDiagram((3, 2, 1))
        assert len(list(oracles.enumerate_recurrent(d321))) == 4
        assert d321.spanning_tree_count() == 4
        total = 0
        for m in range(2, 10):
            for d in enumerate_diagrams(m):
                n_rec = sum(1 for _ in oracles.enumerate_recurrent(d))
                assert n_rec == d.spanning_tree_count(), d.parts
                total += n_rec
        # frozen total over all 255 shapes, as a drift alarm
        assert total == 284768


def test_criterion_3_classification_coverage():
    with criterion("decorated tableaux cover recurrents exactly", 60):
        for m in range(2, 9):
            for d in enumerate_diagrams(m):
                rec = set(oracles.enumerate_recurrent(d))
                seen = set()
                for t, a in oracles.enumerate_canonical_decorated(d):
                    c = tableaux.config_from_decorated(t, a)
                    assert c not in seen, (d.parts, c)
                    seen.add(c)
                assert seen == rec, d.parts


def test_criterion_4_bijection_square():
    with criterion("bijection square", 60):
        for m in range(2, 9):
            n = m - 1
            by_bottoms = {}
            for word in itertools.permutations(range(1, n + 1)):
                bottoms = frozenset(
                    word[i + 1]
                    for i in range(n - 1)
                    if word[i] > word[i + 1]
                )
                by_bottoms.setdefault(bottoms, set()).add(word)
            for d in enumerate_diagrams(m):
                tabs = list(oracles.enumerate_tableaux(d))
                # tableau -> configuration -> tableau is the identity
                for t in tabs:
                    assert tableaux.from_minimal_config(
                        d, tableaux.minimal_config(t)) == t
                # recurrents <-> canonical decorated tableaux
                rec = list(oracles.enumerate_recurrent(d))
                images = set()
                for c in rec:
                    t, a = tableaux.decorated_from_config(d, c)
                    assert tableaux.config_from_decorated(t, a) == c
                    images.add((t.rows, a))
                expected = {
                    (t.rows, a)
                    for t, a in oracles.enumerate_canonical_decorated(d)
                }
                assert images == expected, d.parts
                # tableaux <-> permutations with the right descent bottoms
                words = {permutations.from_tableau(t) for t in tabs}
                assert len(words) == len(tabs)
                key = frozenset(d.row_labels) - {0}
                assert words == by_bottoms.get(key, set()), d.parts
                for w in words:
                    assert permutations.to_tableau(w) in tabs
                # decorated permutations <-> intransitive trees
                for c in rec:
                    w, a = permutations.decorated_from_config(d, c)
                    parents = trees.perm_to_tree(w, a)
                    assert trees.tree_to_perm(parents) == (w, a)
                    assert trees.bfs_levels(parents) == (
                        sandpile.canonical_toppling(d, c)), (d.parts, c)


def test_criterion_5_stabilization_equivalence():
    with criterion("letter stabilization equals graph stabilization", 120):
        rng = random.Random(0)
        for m in range(2, 8):
            for d in enumerate_diagrams(m):
                c = min(oracles.enumerate_recurrent(d))
                for _ in range(200):
                    v = rng.randrange(1, d.n + 1)
                    bumped = tuple(
                        x + (1 if u == v else 0)
                        for u, x in enumerate(c, start=1)
                    )
                    g, _ = sandpile.stabilize(d, bumped)
                    w, a = permutations.decorated_from_config(d, c)
                    lifted = tuple(
                        x + (1 if u == v else 0)
                        for u, x in enumerate(a, start=1)
                    )
                    got = permutations.stabilize(w, lifted)
                    assert got == permutations.decorated_from_config(d, g), (
                        d.parts, c, v)
                    c = g


def test_criterion_6_cornersupport_duality():
    with criterion("cornersupport dual computation", 60):
        for m in range(2, 9):
            for d in enumerate_diagrams(m):
                for t in oracles.enumerate_tableaux(d):
                    assert tableaux.corner_support(t, method="blocks") == (
                        tableaux.corner_support(t, method="local")), d.parts
                    s = tableaux.supplementary(t)
                    for i in d.row_labels:
                        for j in d.col_labels:
                            if i > j:
                                assert s.entry(i, j) == (
                                    tableaux.supplementary_entry(t, i, j)), (
                                    d.parts, i, j)
