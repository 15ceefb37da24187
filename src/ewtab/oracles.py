"""Brute-force enumerators and the cross-checking certifier.

Everything here is deliberately naive: stable configurations come from a
plain product over height ranges, recurrence is decided by an independent
burning implementation, tableaux come from row-by-row backtracking. The
point is to have second routes to every quantity the library computes
cleverly, so certify_shape can compare them on small instances.

certify_shape is one loop over _CHECKS, a table of (name, check, largest n)
rows in report order. Every check reads one _Shape, which holds the shape's
brute-force lists, built once. A counterexample property is a generator of
counterexamples in the order of its search, and the report keeps the first
one (None when there is none). The other checks return their entry, or None
for no entry. A row whose largest n is below the shape's n is not run; it
passes with the detail "skipped, n=<n> > <largest n>".

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


class _Shape:
    """The brute-force lists of one shape, built once and read by every
    check: recurrent and minimal configurations, the tableaux with their
    minimal configurations, words and canonical bounds, and every
    canonically decorated tableau as (word, decorations, configuration).
    rng is the one seeded stream that grain-walk draws from and abelian
    continues."""

    def __init__(self, d, budget, grain_steps, seed):
        self.d, self.grain_steps, self.rng = d, grain_steps, random.Random(seed)
        self.rec = list(enumerate_recurrent(d, budget))
        target = d.edge_count - d.parts[0]
        self.minimal = {c for c in self.rec if sum(c) == target}
        self.tabs = list(enumerate_tableaux(d, budget))
        self.mins = [tableaux.minimal_config(t) for t in self.tabs]
        self.words = [permutations.from_tableau(t) for t in self.tabs]
        self.nus = [tableaux.canonical_bounds(t) for t in self.tabs]
        self.decorated = [
            (w, deco, tableaux.config_from_decorated(t, deco))
            for t, w, nu in zip(self.tabs, self.words, self.nus)
            for deco in itertools.product(*[range(b) for b in nu])
        ]


def _first(counterexamples):
    """A counterexample property: it passes when the generator yields
    nothing and otherwise reports the first thing it yields."""
    def check(s):
        bad = next(counterexamples(s), None)
        return {"pass": bad is None, "counterexample": bad}
    return check


def _counting(s):
    """Recurrent configurations, spanning trees (the product formula and
    the elimination) and decorated tableaux agree; minimal configurations
    match tableaux."""
    d = s.d
    trees_count = d.spanning_tree_count()
    eliminated = _spanning_trees_by_elimination(d)
    detail = "recurrent=%d trees=%d decorated=%d minimal=%d tableaux=%d" % (
        len(s.rec), trees_count, len(s.decorated), len(s.minimal), len(s.tabs))
    if eliminated != trees_count:
        detail += " elimination=%d" % eliminated
    passed = (len(s.rec) == trees_count == eliminated == len(s.decorated)
              and len(s.minimal) == len(s.tabs))
    return {"pass": passed, "detail": detail}


def _tableau_roundtrip(s):
    """The tableau round trip against the brute-force minimal list."""
    for t, c in zip(s.tabs, s.mins):
        if tableaux.from_minimal_config(s.d, c) != t:
            yield t.row_strings(), c
    if set(s.mins) != s.minimal:
        yield "config sets differ", sorted(set(s.mins) ^ s.minimal)


def _avalanche_agreement(s):
    """The tableau-side avalanche equals the sandpile one."""
    for t, c in zip(s.tabs, s.mins):
        if tableaux.canonical_toppling(t) != sandpile.canonical_toppling(s.d, c):
            yield t.row_strings()


def _bounds_agreement(s):
    """Canonical and stable bounds agree across all three carriers, and the
    minimal configuration plus the stable bound gives the degree."""
    for t, c, w, nu in zip(s.tabs, s.mins, s.words, s.nus):
        if nu != sandpile.canonical_bounds(s.d, c) or nu != permutations.canonical_bounds(w):
            yield "canonical", t.row_strings()
        st = tableaux.stable_bounds(t)
        if st != permutations.stable_bounds(w):
            yield "stable", t.row_strings()
        if tuple(r + b for r, b in zip(c, st)) != s.d.degrees:
            yield "degree", t.row_strings()
        if any(v < 1 for v in nu) or any(x > y for x, y in zip(nu, st)):
            yield "range", t.row_strings()


def _cornersupport_dual(s):
    """The two corner-support routes agree."""
    for t in s.tabs:
        if tableaux.corner_support(t, "blocks") != tableaux.corner_support(t, "local"):
            yield t.row_strings()


def _supplementary_direct(s):
    """The local supplementary rule matches the grid built from the
    avalanche."""
    for t in s.tabs:
        grid = tableaux.supplementary(t)
        for i in s.d.row_labels:
            for j in s.d.col_labels:
                if i > j and grid.entry(i, j) != tableaux.supplementary_entry(t, i, j):
                    yield t.row_strings(), i, j


def _classification_coverage(s):
    """Every recurrent configuration is a uniquely decorated tableau."""
    seen = collections.Counter(c for _, _, c in s.decorated)
    if set(seen) != set(s.rec):
        yield "config sets differ", sorted(set(seen) ^ set(s.rec))[:3]
    if any(k > 1 for k in seen.values()):
        yield "duplicates", [c for c, k in seen.items() if k > 1][:3]


def _decomposition_roundtrip(s):
    """Decompose and rebuild every recurrent configuration, on both
    carriers."""
    for c in s.rec:
        t, a = tableaux.decorated_from_config(s.d, c)
        if tableaux.config_from_decorated(t, a) != c:
            yield "tableau", c
        w, aw = permutations.decorated_from_config(s.d, c)
        dd, back = permutations.config_from_decorated(w, aw)
        if dd != s.d or back != c:
            yield "word", c
        if permutations.classify_decoration(w, aw) != "canonical":
            yield "class", c


def _word_descent_class(s):
    """The words with this descent-bottom set are exactly the tableau
    words."""
    class_words = _words_by_shape(s.d.n).get(s.d, set())
    for t, w in zip(s.tabs, s.words):
        if permutations.to_tableau(w) != t:
            yield "tableau trip", t.row_strings()
    for w in class_words:
        if permutations.from_tableau(permutations.to_tableau(w)) != w:
            yield "word trip", w
    if class_words != set(s.words):
        yield "word sets differ", sorted(class_words ^ set(s.words))[:3]


def _tree_roundtrip(s):
    """Every canonically decorated word round-trips through its tree, whose
    levels are the avalanche."""
    for w, deco, c in s.decorated:
        parents = trees.perm_to_tree(w, deco)
        if trees.tree_to_perm(parents) != (w, deco):
            yield "trip", w, deco
        if trees.bfs_levels(parents) != sandpile.canonical_toppling(s.d, c):
            yield "levels", w, deco
    if len(s.decorated) != len(s.rec):
        yield "count", len(s.decorated), len(s.rec)


def _tree_census(s):
    """Intransitive trees and decorated words of length n, both counted by
    brute force, are equinumerous."""
    intransitive, decorated_words = _tree_count(s.d.n)
    return {"pass": intransitive == decorated_words,
            "detail": "intransitive=%d decorated=%d" % (intransitive, decorated_words)}


def _grain_walk(s):
    """Seeded grain additions, stabilized on the graph and on the word,
    stay in lockstep.

    Each distinct step (configuration c, vertex v) is checked once; a
    repeat reuses the successor it checked. While the walk passes, (w, a)
    is decorated_from_config(d, c), and the three maps a step calls are
    pure, so (c, v) fixes what the step computes and a failing step fails
    on its first visit. Every step still draws v from the seeded stream,
    which abelian continues."""
    d, rng = s.d, s.rng
    c = s.rec[rng.randrange(len(s.rec))]
    w, a = permutations.decorated_from_config(d, c)
    checked = {}
    for _ in range(s.grain_steps):
        v = rng.randint(1, d.n)
        step = checked.get((c, v))
        if step is None:
            c2, _counts = sandpile.stabilize(d, _add_grain(c, v))
            w2, a2 = permutations.stabilize(w, _add_grain(a, v))[:2]
            if (w2, a2) != permutations.decorated_from_config(d, c2):
                yield c, v
            step = checked[c, v] = c2, w2, a2
        c, w, a = step


def _abelian(s):
    """The toppling order does not matter."""
    d, rng = s.d, s.rng
    for _ in range(min(s.grain_steps, 50)):
        c0 = s.rec[rng.randrange(len(s.rec))]
        v = rng.randint(1, d.n)
        start = _add_grain(c0, v)
        ours, counts = sandpile.stabilize(d, start)
        theirs, rcounts = _random_order_stabilize(d, start, rng)
        if ours != theirs or [counts[u] for u in range(1, d.n + 1)] != rcounts[1:]:
            yield start


def _burning_replay(s):
    """The burning order replays as a legal toppling sequence that ends
    where it began."""
    for c in s.rec:
        order = sandpile.burning_order(s.d, c)
        if order is None or sorted(order) != list(range(1, s.d.n + 1)):
            yield "order", c
            continue
        work = sandpile.topple(s.d, c, 0)
        for v in order:
            work = sandpile.topple(s.d, work, v)
        if work != c:
            yield "replay", c


def _level(s):
    """The level is non-negative on recurrent configurations and zero
    exactly on the minimal ones."""
    for c in s.rec:
        lv = sandpile.level(s.d, c)
        if lv < 0 or (lv == 0) != (c in s.minimal):
            yield c, lv


def _reference_vectors(s):
    """Fixed expectations for two shapes used as external anchors; None
    (no entry) for every other shape."""
    d = s.d
    if d.parts == (3, 2, 1):
        ok = (set(s.rec) == {(0, 0, 1, 0, 2), (0, 1, 0, 0, 2),
                             (0, 1, 1, 0, 2), (0, 1, 1, 0, 1)}
              and permutations.word_from_config(d, (0, 0, 1, 0, 2)) == (1, 3, 5, 4, 2))
    elif d.parts == (5, 3, 3, 2):
        c = (0, 0, 2, 1, 0, 0, 3, 2)
        ok = (sandpile.canonical_toppling(d, c)
              == ((0,), (1, 2, 7), (3,), (8,), (4, 6), (5,))
              and permutations.word_from_config(d, c) == (1, 2, 7, 3, 8, 6, 4, 5)
              and tableaux.from_minimal_config(d, c).row_strings()
              == ("11111", "101", "001", "00"))
    else:
        return None
    return {"pass": ok, "detail": "shape (%s)" % ",".join(map(str, d.parts))}


# (name, check, largest n it runs at), in report order
_CHECKS = (
    ("counting", _counting, math.inf),
    ("tableau-roundtrip", _first(_tableau_roundtrip), math.inf),
    ("avalanche-agreement", _first(_avalanche_agreement), math.inf),
    ("bounds-agreement", _first(_bounds_agreement), math.inf),
    ("cornersupport-dual", _first(_cornersupport_dual), math.inf),
    ("supplementary-direct", _first(_supplementary_direct), math.inf),
    ("classification-coverage", _first(_classification_coverage), math.inf),
    ("decomposition-roundtrip", _first(_decomposition_roundtrip), math.inf),
    ("word-descent-class", _first(_word_descent_class), 8),
    ("tree-roundtrip", _first(_tree_roundtrip), math.inf),
    ("tree-count", _tree_census, 6),
    ("grain-walk", _first(_grain_walk), math.inf),
    ("abelian", _first(_abelian), math.inf),
    ("burning-replay", _first(_burning_replay), math.inf),
    ("level", _first(_level), math.inf),
    ("reference-vectors", _reference_vectors, math.inf),
)


def certify_shape(diagram, *, grain_steps=200, seed=0, budget=None):
    """Run every cross-check the library supports on one shape and report.

    Returns {"shape", "n", "pass", "properties"} where properties is a list
    of {"name", "pass"} dicts, one per row of _CHECKS in its order, each
    carrying "detail" or "counterexample". A counterexample property
    reports the first counterexample its check finds, or None. A row whose
    largest n is below the shape's n passes with the detail "skipped,
    n=<n> > <largest n>". reference-vectors appears only for its two anchor
    shapes.
    Raises BudgetError when the shape is too large for the brute-force
    enumerations under the active budget. Each enumeration runs once per
    shape; the checks over all words and trees of size n run once per n
    in a process. grain-walk draws grain_steps vertices from the seeded
    stream but checks each distinct (configuration, vertex) step once,
    which is exact because the sandpile and word maps it calls are pure;
    repeats still draw, so abelian continues the same stream.
    """
    if grain_steps < 0:
        raise DomainError("grain_steps must be non-negative, got %d" % grain_steps)
    shape = _Shape(diagram, budget, grain_steps, seed)
    report = []
    for name, check, largest in _CHECKS:
        if diagram.n > largest:
            entry = {"pass": True, "detail": "skipped, n=%d > %d" % (diagram.n, largest)}
        else:
            entry = check(shape)
        if entry is not None:
            report.append({"name": name, **entry})
    return {
        "shape": list(diagram.parts),
        "n": diagram.n,
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
