"""Brute-force enumerators and the cross-checking certifier.

Everything here is deliberately naive: stable configurations come from a
plain product over height ranges, recurrence is decided by an independent
burning implementation, tableaux come from row-by-row backtracking. The
point is to have second routes to every quantity the library computes
cleverly, so certify_shape can compare them on small instances.

All enumerators refuse to start (or to continue, for the backtracking ones)
once their work estimate passes a budget: the default is 10**7, overridable
through the EWTAB_ORACLE_BUDGET environment variable or the budget argument.
"""

import collections
import functools
import itertools
import math
import os
import random

from .errors import BudgetError, DomainError, FormatError
from . import sandpile
from . import tableaux
from . import permutations
from . import trees

__all__ = [
    "enumerate_stable",
    "enumerate_recurrent",
    "enumerate_minimal",
    "enumerate_tableaux",
    "enumerate_canonical_decorated",
    "certify_shape",
]

DEFAULT_BUDGET = 10**7


def _budget(budget):
    if budget is not None:
        return int(budget)
    env = os.environ.get("EWTAB_ORACLE_BUDGET")
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise FormatError(
            "EWTAB_ORACLE_BUDGET must be an integer, got %r" % env
        ) from None


def enumerate_stable(diagram, budget=None):
    """All stable configurations, heights of vertex 1 varying slowest."""
    cost = 1
    for g in diagram.degrees:
        cost *= g
    limit = _budget(budget)
    if cost > limit:
        raise BudgetError(
            "%d stable configurations exceed the budget of %d" % (cost, limit)
        )
    ranges = [range(g) for g in diagram.degrees]
    return (tuple(c) for c in itertools.product(*ranges))


def _burner(diagram):
    """The independent burning test on one diagram, its degrees and
    neighbour tuples looked up once: after the sink fires, a vertex burns
    once enough neighbors have; recurrent means everything burns."""
    n = diagram.n
    degree = [diagram.degree(v) for v in range(n + 1)]
    neighbors = [diagram.neighbors(v) for v in range(n + 1)]
    columns = diagram.col_labels

    def burns(heights):
        rem = [0] * (n + 1)
        for v in range(1, n + 1):
            rem[v] = degree[v] - heights[v - 1]
        burned = [False] * (n + 1)
        stack = []
        for j in columns:
            rem[j] -= 1
            if rem[j] <= 0:
                stack.append(j)
        count = 0
        while stack:
            v = stack.pop()
            if burned[v]:
                continue
            burned[v] = True
            count += 1
            for u in neighbors[v]:
                if u == 0 or burned[u]:
                    continue
                rem[u] -= 1
                if rem[u] <= 0:
                    stack.append(u)
        return count == n

    return burns


def enumerate_recurrent(diagram, budget=None):
    burns = _burner(diagram)
    return (c for c in enumerate_stable(diagram, budget) if burns(c))


def enumerate_minimal(diagram, budget=None):
    """Recurrent configurations of total height #edges - deg(sink)."""
    target = diagram.edge_count - diagram.parts[0]
    return (c for c in enumerate_recurrent(diagram, budget) if sum(c) == target)


def enumerate_tableaux(diagram, budget=None):
    """All EW-tableaux of the shape, by backtracking over rows.

    The budget counts visited search nodes and, unlike the product
    enumerators, may run out midway through iteration.
    """
    parts = diagram.parts
    limit = _budget(budget)
    nodes = [0]

    def clashes(done, row):
        width = len(row)
        for prior in done:
            for x in range(width):
                a, c = prior[x], row[x]
                for x2 in range(x + 1, width):
                    b, d = prior[x2], row[x2]
                    if a == d and b == c and a != b:
                        return True
        return False

    def extend(done):
        i = len(done)
        if i == len(parts):
            yield tableaux.EWTableau(diagram, done)
            return
        if i == 0:
            options = [(1,) * parts[0]]
        else:
            options = itertools.product((0, 1), repeat=parts[i])
        for row in options:
            nodes[0] += 1
            if nodes[0] > limit:
                raise BudgetError(
                    "tableau search exceeded the budget of %d nodes" % limit
                )
            if i > 0 and 0 not in row:
                continue
            if clashes(done, row):
                continue
            yield from extend(done + [row])

    return extend([])


def enumerate_canonical_decorated(diagram, budget=None):
    """All (tableau, decorations) pairs with canonical decorations."""
    for t in enumerate_tableaux(diagram, budget):
        bounds = tableaux.canonical_bounds(t)
        for deco in itertools.product(*[range(b) for b in bounds]):
            yield t, deco


def _spanning_trees_by_elimination(diagram):
    """Number of spanning trees, via fraction-free elimination of the
    reduced Laplacian (exact integers throughout): the independent route
    to FerrersDiagram.spanning_tree_count."""
    n = diagram.n
    idx = {v: k for k, v in enumerate(range(1, n + 1))}
    m = [[0] * n for _ in range(n)]
    for v in range(1, n + 1):
        m[idx[v]][idx[v]] = diagram.degree(v)
        for u in diagram.neighbors(v):
            if u != 0:
                m[idx[v]][idx[u]] -= 1
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k]
        if pivot == 0:
            raise RuntimeError("reduced Laplacian of %r is singular" % (diagram.parts,))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return m[n - 1][n - 1]


def _add_grain(heights, v):
    out = list(heights)
    out[v - 1] += 1
    return tuple(out)


def _random_order_stabilize(diagram, heights, rng):
    """Stabilization toppling a randomly chosen unstable vertex each step;
    used to witness that the result does not depend on the order."""
    n = diagram.n
    degs = diagram.degrees
    work = list(heights)
    counts = [0] * (n + 1)
    while True:
        unstable = [v for v in range(1, n + 1) if work[v - 1] >= degs[v - 1]]
        if not unstable:
            return tuple(work), counts
        v = rng.choice(unstable)
        counts[v] += 1
        work[v - 1] -= degs[v - 1]
        for u in diagram.neighbors(v):
            if u != 0:
                work[u - 1] += 1


def certify_shape(diagram, *, grain_steps=200, seed=0, budget=None):
    """Run every cross-check the library supports on one shape and report.

    Returns {"shape", "n", "pass", "properties"} where properties is a list
    of {"name", "pass"} dicts, some carrying "detail" or "counterexample".
    Raises BudgetError when the shape is too large for the brute-force
    enumerations under the active budget. Each enumeration runs once per
    shape; the checks over all words and trees of size n run once per n
    in a process.
    """
    if grain_steps < 0:
        raise DomainError("grain_steps must be non-negative, got %d" % grain_steps)
    d = diagram
    report = []

    def add(name, passed, **extra):
        entry = {"name": name, "pass": bool(passed)}
        entry.update(extra)
        report.append(entry)

    rec = list(enumerate_recurrent(d, budget))
    target = d.edge_count - d.parts[0]
    minimal = {c for c in rec if sum(c) == target}
    tabs = list(enumerate_tableaux(d, budget))
    mins = [tableaux.minimal_config(t) for t in tabs]
    words = [permutations.from_tableau(t) for t in tabs]
    nus = [tableaux.canonical_bounds(t) for t in tabs]
    # (word, decorations, configuration) per canonically decorated tableau
    decorated = [
        (w, deco, tableaux.config_from_decorated(t, deco))
        for t, w, nu in zip(tabs, words, nus)
        for deco in itertools.product(*[range(b) for b in nu])
    ]

    # counting: recurrent configurations, spanning trees (the product
    # formula and the elimination), and the product formula over tableaux
    # must agree; minimal ones match tableaux
    trees_count = d.spanning_tree_count()
    eliminated = _spanning_trees_by_elimination(d)
    detail = "recurrent=%d trees=%d decorated=%d minimal=%d tableaux=%d" % (
        len(rec), trees_count, len(decorated), len(minimal), len(tabs))
    if eliminated != trees_count:
        detail += " elimination=%d" % eliminated
    add(
        "counting",
        len(rec) == trees_count == eliminated == len(decorated)
        and len(minimal) == len(tabs),
        detail=detail,
    )

    # tableau round trip against the brute-force minimal list
    bad = next(
        ((t.row_strings(), c) for t, c in zip(tabs, mins)
         if tableaux.from_minimal_config(d, c) != t),
        None,
    )
    if bad is None and set(mins) != minimal:
        bad = ("config sets differ", sorted(set(mins) ^ minimal))
    add("tableau-roundtrip", bad is None, counterexample=bad)

    # the tableau-side avalanche must equal the sandpile one
    bad = next(
        (t.row_strings() for t, c in zip(tabs, mins)
         if tableaux.canonical_toppling(t) != sandpile.canonical_toppling(d, c)),
        None,
    )
    add("avalanche-agreement", bad is None, counterexample=bad)

    # canonical and stable bounds agree across all three carriers, and
    # minimal config plus stable bound gives the degree
    bad = None
    for t, c, w, nu in zip(tabs, mins, words, nus):
        if nu != sandpile.canonical_bounds(d, c) or nu != permutations.canonical_bounds(w):
            bad = ("canonical", t.row_strings())
            break
        st = tableaux.stable_bounds(t)
        if st != permutations.stable_bounds(w):
            bad = ("stable", t.row_strings())
            break
        if tuple(r + s for r, s in zip(c, st)) != d.degrees:
            bad = ("degree", t.row_strings())
            break
        if any(v < 1 for v in nu) or any(x > y for x, y in zip(nu, st)):
            bad = ("range", t.row_strings())
            break
    add("bounds-agreement", bad is None, counterexample=bad)

    # the two corner-support routes agree
    bad = next(
        (t.row_strings() for t in tabs
         if tableaux.corner_support(t, "blocks") != tableaux.corner_support(t, "local")),
        None,
    )
    add("cornersupport-dual", bad is None, counterexample=bad)

    # the local supplementary rule matches the grid built from the avalanche
    bad = None
    for t in tabs:
        s = tableaux.supplementary(t)
        bad = next(
            ((t.row_strings(), i, j) for i in d.row_labels for j in d.col_labels
             if i > j and s.entry(i, j) != tableaux.supplementary_entry(t, i, j)),
            None,
        )
        if bad:
            break
    add("supplementary-direct", bad is None, counterexample=bad)

    # every recurrent configuration is a uniquely decorated tableau
    seen = collections.Counter(c for _, _, c in decorated)
    bad = None
    if set(seen) != set(rec):
        bad = ("config sets differ", sorted(set(seen) ^ set(rec))[:3])
    elif any(k > 1 for k in seen.values()):
        bad = ("duplicates", [c for c, k in seen.items() if k > 1][:3])
    add("classification-coverage", bad is None, counterexample=bad)

    # decompose and rebuild every recurrent configuration, both carriers
    bad = None
    for c in rec:
        t, a = tableaux.decorated_from_config(d, c)
        if tableaux.config_from_decorated(t, a) != c:
            bad = ("tableau", c)
            break
        w, aw = permutations.decorated_from_config(d, c)
        dd, back = permutations.config_from_decorated(w, aw)
        if dd != d or back != c:
            bad = ("word", c)
            break
        if permutations.classify_decoration(w, aw) != "canonical":
            bad = ("class", c)
            break
    add("decomposition-roundtrip", bad is None, counterexample=bad)

    # words with this descent-bottom set are exactly the tableau words
    if d.n <= 8:
        bad = None
        class_words = _words_by_shape(d.n).get(d, set())
        for t, w in zip(tabs, words):
            if permutations.to_tableau(w) != t:
                bad = ("tableau trip", t.row_strings())
                break
        if bad is None:
            for w in class_words:
                if permutations.from_tableau(permutations.to_tableau(w)) != w:
                    bad = ("word trip", w)
                    break
        if bad is None and class_words != set(words):
            bad = ("word sets differ", sorted(class_words ^ set(words))[:3])
        add("word-descent-class", bad is None, counterexample=bad)
    else:
        add("word-descent-class", True, detail="skipped, n=%d > 8" % d.n)

    # trees: round trip every canonical decorated word, match levels to the
    # avalanche, and for small n recount intransitive trees independently
    bad = None
    for w, deco, c in decorated:
        parents = trees.perm_to_tree(w, deco)
        if trees.tree_to_perm(parents) != (w, deco):
            bad = ("trip", w, deco)
            break
        if trees.bfs_levels(parents) != sandpile.canonical_toppling(d, c):
            bad = ("levels", w, deco)
            break
    if bad is None and len(decorated) != len(rec):
        bad = ("count", len(decorated), len(rec))
    add("tree-roundtrip", bad is None, counterexample=bad)

    if d.n <= 6:
        intransitive, decorated_words = _tree_count(d.n)
        add(
            "tree-count",
            intransitive == decorated_words,
            detail="intransitive=%d decorated=%d" % (intransitive, decorated_words),
        )
    else:
        add("tree-count", True, detail="skipped, n=%d > 6" % d.n)

    # seeded random walk: grain additions stabilized on the graph and on the
    # word must stay in lockstep
    rng = random.Random(seed)
    bad = None
    c = rec[rng.randrange(len(rec))]
    w, a = permutations.decorated_from_config(d, c)
    for _ in range(grain_steps):
        v = rng.randint(1, d.n)
        c2, _counts = sandpile.stabilize(d, _add_grain(c, v))
        w2, a2 = permutations.stabilize(w, _add_grain(a, v))[:2]
        if (w2, a2) != permutations.decorated_from_config(d, c2):
            bad = (c, v)
            break
        c, w, a = c2, w2, a2
    add("grain-walk", bad is None, counterexample=bad)

    # toppling order must not matter
    bad = None
    for _ in range(min(grain_steps, 50)):
        c0 = rec[rng.randrange(len(rec))]
        v = rng.randint(1, d.n)
        start = _add_grain(c0, v)
        ours, counts = sandpile.stabilize(d, start)
        theirs, rcounts = _random_order_stabilize(d, start, rng)
        if ours != theirs or [counts[u] for u in range(1, d.n + 1)] != rcounts[1:]:
            bad = start
            break
    add("abelian", bad is None, counterexample=bad)

    # burning order replays as a legal toppling sequence ending where it began
    bad = None
    for c in rec:
        order = sandpile.burning_order(d, c)
        if order is None or sorted(order) != list(range(1, d.n + 1)):
            bad = ("order", c)
            break
        work = sandpile.topple(d, c, 0)
        for v in order:
            work = sandpile.topple(d, work, v)
        if work != c:
            bad = ("replay", c)
            break
    add("burning-replay", bad is None, counterexample=bad)

    # level is non-negative on recurrent configurations and zero exactly on
    # the minimal ones
    bad = None
    for c in rec:
        lv = sandpile.level(d, c)
        if lv < 0 or (lv == 0) != (c in minimal):
            bad = (c, lv)
            break
    add("level", bad is None, counterexample=bad)

    _reference_checks(d, rec, add)

    return {
        "shape": list(d.parts),
        "n": d.n,
        "pass": all(entry["pass"] for entry in report),
        "properties": report,
    }


@functools.cache
def _words_by_shape(n):
    """Every permutation of 1..n, grouped by the shape of its descent
    bottoms."""
    out = {}
    for p in itertools.permutations(range(1, n + 1)):
        out.setdefault(permutations.shape_of_word(p), set()).add(p)
    return out


@functools.cache
def _tree_count(n):
    """(intransitive trees on {0..n}, canonically decorated words of
    length n): Postnikov's count, each side by brute force."""
    intransitive = sum(
        1 for parents in _all_trees(n) if _is_intransitive_naive(parents)
    )
    decorated = sum(
        math.prod(permutations.canonical_bounds(p))
        for p in itertools.permutations(range(1, n + 1))
    )
    return intransitive, decorated


def _all_trees(n):
    """Parent arrays of all labeled trees on {0..n}, rooted at 0: every
    array whose parent walk from each vertex reaches 0 within n steps."""
    for rest in itertools.product(range(n + 1), repeat=n):
        parents = (None,) + rest
        for u in rest:  # the walk from a vertex, after its first step
            for _ in range(n):
                if u == 0:
                    break
                u = parents[u]
            else:
                break
        else:
            yield parents


def _is_intransitive_naive(parents):
    n = len(parents) - 1
    for v in range(1, n + 1):
        nbrs = [parents[v]] + [u for u in range(1, n + 1) if parents[u] == v]
        small = sum(1 for u in nbrs if u < v)
        if small not in (0, len(nbrs)):
            return False
    return True


def _reference_checks(d, rec, add):
    """Fixed expectations for two shapes used as external anchors; rec is
    the shape's recurrent configurations."""
    if d.parts == (3, 2, 1):
        wanted = {
            (0, 0, 1, 0, 2),
            (0, 1, 0, 0, 2),
            (0, 1, 1, 0, 2),
            (0, 1, 1, 0, 1),
        }
        ok = set(rec) == wanted
        if ok:
            w = permutations.word_from_config(d, (0, 0, 1, 0, 2))
            ok = w == (1, 3, 5, 4, 2)
        add("reference-vectors", ok, detail="shape (3,2,1)")
    elif d.parts == (5, 3, 3, 2):
        c = (0, 0, 2, 1, 0, 0, 3, 2)
        ok = sandpile.canonical_toppling(d, c) == (
            (0,),
            (1, 2, 7),
            (3,),
            (8,),
            (4, 6),
            (5,),
        )
        if ok:
            ok = permutations.word_from_config(d, c) == (1, 2, 7, 3, 8, 6, 4, 5)
        if ok:
            t = tableaux.from_minimal_config(d, c)
            ok = t.row_strings() == ("11111", "101", "001", "00")
        add("reference-vectors", ok, detail="shape (5,3,3,2)")
