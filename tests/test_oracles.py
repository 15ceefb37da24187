"""Brute-force enumerations and the per-shape certification report."""

import collections
import json
import math
import random

import pytest

from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import BudgetError, DomainError, FormatError
from ewtab import oracles, permutations, sandpile, tableaux, trees


def test_enumerate_stable_counts(d321, d22):
    assert len(list(oracles.enumerate_stable(d321))) == 12
    assert len(list(oracles.enumerate_stable(d22))) == 8


def test_enumerate_recurrent_exact(d321, d22):
    assert sorted(oracles.enumerate_recurrent(d321)) == [
        (0, 0, 1, 0, 2),
        (0, 1, 0, 0, 2),
        (0, 1, 1, 0, 1),
        (0, 1, 1, 0, 2),
    ]
    assert sorted(oracles.enumerate_recurrent(d22)) == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]


def test_enumerate_minimal_exact(d321):
    assert sorted(oracles.enumerate_minimal(d321)) == [
        (0, 0, 1, 0, 2),
        (0, 1, 0, 0, 2),
        (0, 1, 1, 0, 1),
    ]


def test_enumerate_tableaux_exact(d321):
    got = {t.rows for t in oracles.enumerate_tableaux(d321)}
    assert got == {
        ((1, 1, 1), (0, 0), (0,)),
        ((1, 1, 1), (0, 1), (0,)),
        ((1, 1, 1), (1, 0), (0,)),
    }


def test_tableau_counts_factorial():
    for m in range(2, 8):
        total = sum(
            len(list(oracles.enumerate_tableaux(d)))
            for d in enumerate_diagrams(m)
        )
        assert total == math.factorial(m - 1)


def test_decorated_count_equals_recurrent():
    for m in range(2, 7):
        for d in enumerate_diagrams(m):
            n_rec = len(list(oracles.enumerate_recurrent(d)))
            n_dec = len(list(oracles.enumerate_canonical_decorated(d)))
            assert n_dec == n_rec


def test_budget_guard_before_iteration():
    big = FerrersDiagram((10,) * 10)
    with pytest.raises(BudgetError):
        oracles.enumerate_stable(big, budget=1000)
    with pytest.raises(BudgetError):
        oracles.enumerate_recurrent(big, budget=1000)


def test_budget_guard_mid_iteration():
    d = FerrersDiagram((6, 6, 6, 6, 6, 6))
    gen = oracles.enumerate_tableaux(d, budget=50)
    with pytest.raises(BudgetError):
        for _ in gen:
            pass


def test_budget_env_override(monkeypatch, d321):
    monkeypatch.setenv("EWTAB_ORACLE_BUDGET", "1")
    with pytest.raises(BudgetError):
        oracles.enumerate_stable(d321)
    monkeypatch.delenv("EWTAB_ORACLE_BUDGET")
    assert len(list(oracles.enumerate_stable(d321))) == 12


def test_budget_env_malformed(monkeypatch, d321):
    monkeypatch.setenv("EWTAB_ORACLE_BUDGET", "abc")
    with pytest.raises(FormatError, match="EWTAB_ORACLE_BUDGET"):
        oracles.enumerate_stable(d321)


def test_certify_small_shapes():
    for m in range(2, 6):
        for d in enumerate_diagrams(m):
            rep = oracles.certify_shape(d, grain_steps=30)
            assert rep["pass"], rep
            assert rep["shape"] == list(d.parts)
            assert rep["n"] == d.n
            assert all(p["pass"] for p in rep["properties"])


def test_certify_property_names(d321):
    rep = oracles.certify_shape(d321, grain_steps=10)
    names = [p["name"] for p in rep["properties"]]
    assert names == [
        "counting",
        "tableau-roundtrip",
        "avalanche-agreement",
        "bounds-agreement",
        "cornersupport-dual",
        "supplementary-direct",
        "classification-coverage",
        "decomposition-roundtrip",
        "word-descent-class",
        "tree-roundtrip",
        "tree-count",
        "grain-walk",
        "abelian",
        "burning-replay",
        "level",
        "reference-vectors",
    ]


def test_certify_reference_shape(d5332):
    rep = oracles.certify_shape(d5332, grain_steps=20)
    assert rep["pass"], rep
    names = [p["name"] for p in rep["properties"]]
    assert "reference-vectors" in names


def test_certify_is_deterministic(d321):
    a = oracles.certify_shape(d321, grain_steps=25, seed=3)
    b = oracles.certify_shape(d321, grain_steps=25, seed=3)
    assert a == b


def test_certify_tree_count_at_n6():
    # intransitive trees on {0..6}, OEIS A007889
    rep = oracles.certify_shape(FerrersDiagram((4, 3, 2)), grain_steps=5)
    assert rep["n"] == 6
    assert {"name": "tree-count", "pass": True,
            "detail": "intransitive=2104 decorated=2104"} in rep["properties"]


def test_certify_size_checks_run_once_per_n(monkeypatch):
    oracles._words_by_shape.cache_clear()
    oracles._tree_count.cache_clear()
    calls = {"trees": 0, "shape_of_word": 0}
    all_trees = oracles._all_trees
    shape_of_word = permutations.shape_of_word

    def counted_trees(n):
        calls["trees"] += 1
        return all_trees(n)

    def counted_shape_of_word(word):
        calls["shape_of_word"] += 1
        return shape_of_word(word)

    monkeypatch.setattr(oracles, "_all_trees", counted_trees)
    monkeypatch.setattr(permutations, "shape_of_word", counted_shape_of_word)
    first, second = FerrersDiagram((3, 2, 1)), FerrersDiagram((4, 2))
    assert first.n == second.n == 5
    assert oracles.certify_shape(first, grain_steps=5)["pass"]
    assert calls == {"trees": 1, "shape_of_word": math.factorial(5)}
    assert oracles.certify_shape(second, grain_steps=5)["pass"]
    assert calls == {"trees": 1, "shape_of_word": math.factorial(5)}


def test_certify_rejects_negative_grain_steps(d321):
    with pytest.raises(DomainError, match="grain_steps"):
        oracles.certify_shape(d321, grain_steps=-5)


def test_spanning_tree_product_equals_elimination():
    shapes = [d for m in range(2, 13) for d in enumerate_diagrams(m)]
    assert len(shapes) == 2047
    shapes += [FerrersDiagram(range(k, 0, -1)) for k in (32, 64)]
    for d in shapes:
        assert d.spanning_tree_count() == oracles._spanning_trees_by_elimination(d), d.parts


def test_certify_counting_compares_product_with_elimination(monkeypatch):
    d = FerrersDiagram((3, 2, 1))
    counting = oracles.certify_shape(d, grain_steps=0)["properties"][0]
    assert counting == {"name": "counting", "pass": True,
                        "detail": "recurrent=4 trees=4 decorated=4 minimal=3 tableaux=3"}
    monkeypatch.setattr(oracles, "_spanning_trees_by_elimination", lambda d: 5)
    counting = oracles.certify_shape(d, grain_steps=0)["properties"][0]
    assert counting == {
        "name": "counting", "pass": False,
        "detail": "recurrent=4 trees=4 decorated=4 minimal=3 tableaux=3 elimination=5"}


# One library fault per counterexample property, with the shape it trips on
# and the first counterexample the property reports under it.
FAULTS = [
    ("tableau-roundtrip", (3, 2, 1), tableaux, "from_minimal_config",
     lambda f: lambda d, c: None if sum(c) % 2 else f(d, c),
     (("111", "00", "0"), (0, 0, 1, 0, 2))),
    ("avalanche-agreement", (3, 2, 1), tableaux, "canonical_toppling",
     lambda f: lambda t: tuple(b[::-1] for b in f(t)),
     ("111", "00", "0")),
    ("bounds-agreement", (3, 2, 1), permutations, "stable_bounds",
     lambda f: lambda w: f(w)[:-1] + (f(w)[-1] + 1,),
     ("stable", ("111", "00", "0"))),
    ("cornersupport-dual", (3, 2, 1), tableaux, "corner_support",
     lambda f: lambda t, method="blocks": set() if method == "local" else f(t, method),
     ("111", "01", "0")),
    ("supplementary-direct", (3, 2, 1), tableaux, "supplementary_entry",
     lambda f: lambda t, i, j: 1 - f(t, i, j) if (i + j) % 3 == 0 else f(t, i, j),
     (("111", "00", "0"), 2, 1)),
    ("classification-coverage", (3, 2, 1), tableaux, "config_from_decorated",
     lambda f: lambda t, a: f(t, (0,) * len(a)) if sum(a) % 2 else f(t, a),
     ("config sets differ", [(0, 1, 1, 0, 2)])),
    ("decomposition-roundtrip", (3, 2, 1), permutations, "classify_decoration",
     lambda f: lambda w, a: "stable" if sum(a) == 1 else f(w, a),
     ("class", (0, 1, 1, 0, 2))),
    ("word-descent-class", (2, 2, 1), permutations, "to_tableau",
     lambda f: lambda w: None if w[-1] == 1 else f(w),
     ("tableau trip", ("11", "00", "0"))),
    ("tree-roundtrip", (2, 2, 1), trees, "bfs_levels",
     lambda f: lambda p: f(p)[:-1] if len(p) % 2 else f(p),
     ("levels", (2, 4, 3, 1), (0, 0, 0, 0))),
    ("grain-walk", (3, 3, 3), permutations, "stabilize",
     lambda f: lambda w, a, trace=False: (w, a) if sum(a) % 5 == 0 else f(w, a, trace),
     ((2, 2, 2, 2, 2), 4)),
    ("abelian", (3, 2, 1), oracles, "_random_order_stabilize",
     lambda f: lambda d, h, rng: (f(d, h, rng)[0], [0] * (d.n + 1)),
     (0, 2, 1, 0, 1)),
    ("burning-replay", (3, 2, 1), sandpile, "topple",
     lambda f: lambda d, h, v: h if v == 1 else f(d, h, v),
     ("replay", (0, 0, 1, 0, 2))),
    ("level", (3, 2, 1), sandpile, "level",
     lambda f: lambda d, c: f(d, c) - sum(c) % 2,
     ((0, 0, 1, 0, 2), -1)),
]


@pytest.mark.parametrize("name, parts, module, attribute, fault, counterexample",
                         FAULTS, ids=[f[0] for f in FAULTS])
def test_certify_counterexample_property_can_fail(
        monkeypatch, name, parts, module, attribute, fault, counterexample):
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    rep = oracles.certify_shape(FerrersDiagram(parts))
    assert not rep["pass"]
    assert {"name": name, "pass": False, "counterexample": counterexample} in rep["properties"]


def _passing(name):
    return {"name": name, "pass": True, "counterexample": None}


def _frozen_report(parts, n, counting, word_descent_class, tree_count, extra):
    return {
        "shape": list(parts), "n": n, "pass": True,
        "properties": [
            {"name": "counting", "pass": True, "detail": counting},
            *map(_passing, ["tableau-roundtrip", "avalanche-agreement",
                            "bounds-agreement", "cornersupport-dual",
                            "supplementary-direct", "classification-coverage",
                            "decomposition-roundtrip"]),
            word_descent_class,
            _passing("tree-roundtrip"),
            {"name": "tree-count", "pass": True, "detail": tree_count},
            *map(_passing, ["grain-walk", "abelian", "burning-replay", "level"]),
            *extra,
        ],
    }


def test_certify_reports_are_frozen():
    # compared as JSON text, so that the order of the keys is pinned too
    got = oracles.certify_shape(FerrersDiagram((3, 2, 1)), grain_steps=10, seed=3)
    assert json.dumps(got) == json.dumps(_frozen_report(
        (3, 2, 1), 5, "recurrent=4 trees=4 decorated=4 minimal=3 tableaux=3",
        _passing("word-descent-class"), "intransitive=246 decorated=246",
        [{"name": "reference-vectors", "pass": True, "detail": "shape (3,2,1)"}]))
    got = oracles.certify_shape(FerrersDiagram((9,)), grain_steps=10, seed=3)
    assert json.dumps(got) == json.dumps(_frozen_report(
        (9,), 9, "recurrent=1 trees=1 decorated=1 minimal=1 tableaux=1",
        {"name": "word-descent-class", "pass": True, "detail": "skipped, n=9 > 8"},
        "skipped, n=9 > 6", []))


def _reference_walk(d, steps, seed):
    """The grain walk of certify_shape step by step, on the graph alone:
    every (configuration, vertex) it visits in order, and the seeded
    stream after it."""
    rng = random.Random(seed)
    rec = list(oracles.enumerate_recurrent(d))
    c = rec[rng.randrange(len(rec))]
    visits = []
    for _ in range(steps):
        v = rng.randint(1, d.n)
        visits.append((c, v))
        heights = list(c)
        heights[v - 1] += 1
        c = sandpile.stabilize(d, tuple(heights))[0]
    return visits, rng


@pytest.mark.parametrize("parts", [(2, 2), (3, 3, 3)])
def test_grain_walk_checks_each_distinct_step_once(monkeypatch, parts):
    d = FerrersDiagram(parts)
    visits, rng = _reference_walk(d, 200, seed=0)
    calls = []
    stabilize = permutations.stabilize

    def counted(word, decorations, trace=False):
        calls.append((word, decorations))
        return stabilize(word, decorations, trace)

    monkeypatch.setattr(permutations, "stabilize", counted)
    # grain-walk is the only check that stabilizes on the word
    assert oracles.certify_shape(d, grain_steps=200, seed=0)["pass"]
    assert len(calls) == len(set(visits)) < len(visits)
    shape = oracles._Shape(d, None, 200, 0)
    assert next(oracles._grain_walk(shape), None) is None
    assert shape.rng.getstate() == rng.getstate()


def test_grain_walk_reports_a_late_repeated_fault(monkeypatch):
    d = FerrersDiagram((3, 3, 3))
    visits, _ = _reference_walk(d, 200, seed=0)

    def word_input(step):
        c, v = step
        w, a = permutations.decorated_from_config(d, c)
        return w, a[:v - 1] + (a[v - 1] + 1,) + a[v:]

    inputs = collections.Counter(map(word_input, set(visits)))
    first = {}
    for i, step in enumerate(visits):
        first.setdefault(step, i)
    # first reached after step 100, visited again, and the only step whose
    # word stabilization sees this input
    late = [step for step, i in first.items()
            if i > 100 and visits.count(step) > 1 and inputs[word_input(step)] == 1]
    target = min(late, key=first.get)
    bad = word_input(target)
    stabilize = permutations.stabilize

    def faulty(word, decorations, trace=False):
        out = stabilize(word, decorations, trace)
        return (out[0][::-1], *out[1:]) if (word, decorations) == bad else out

    monkeypatch.setattr(permutations, "stabilize", faulty)
    rep = oracles.certify_shape(d, grain_steps=200, seed=0)
    assert {"name": "grain-walk", "pass": False, "counterexample": target} in rep["properties"]
