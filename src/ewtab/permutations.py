"""Permutations as avalanche orders, and chip-firing on the word itself.

A permutation of 1..n splits into maximal alternating runs, ascending first:
"12738645" gives 127 | 3 | 8 | 64 | 5. Prefixing the block {0} makes this
the canonical toppling order of a recurrent configuration on the Ferrers
graph whose rows are {0} plus the descent bottoms of the word. Ascending
blocks hold column vertices, descending blocks hold row vertices.

The module converts both ways between words, tableaux and configurations,
feeds the run blocks to the block core for the bounds, and implements
grain stabilization directly on decorated words: a letter with too large a
decoration either settles (slides one block towards the front, handing one
grain to each witness that made its bound) or, from the first block, topples
(pays out its bound and jumps to the last block it still beats). The result
is canonical and matches graph stabilization exactly.
"""

from .errors import DomainError
from .diagrams import FerrersDiagram
from . import sandpile
from . import tableaux

__all__ = [
    "run_blocks",
    "word_from_blocks",
    "shape_of_word",
    "from_tableau",
    "to_tableau",
    "word_from_config",
    "minimal_config",
    "canonical_bounds",
    "stable_bounds",
    "classify_decoration",
    "decorated_from_config",
    "config_from_decorated",
    "stabilize",
]


def _check_word(word):
    word = tuple(int(x) for x in word)
    if not word or sorted(word) != list(range(1, len(word) + 1)):
        raise DomainError("%r is not a permutation of 1..n" % (word,))
    return word


def run_blocks(word):
    """Split into maximal alternating runs, ascending first, prefixed with
    the sink block. Blocks come back as ascending tuples: run_blocks of
    (1,3,5,4,2) is ((0,), (1,3,5), (2,4))."""
    word = _check_word(word)
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


def word_from_blocks(blocks):
    """Rebuild the word from its blocks (sink block first): odd-position
    blocks are written ascending, even-position blocks descending. The
    result must parse back to the same blocks."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    if not blocks or blocks[0] != (0,):
        raise DomainError("blocks must start with the sink block (0,)")
    word = []
    for k in range(1, len(blocks)):
        if not blocks[k]:
            raise DomainError("blocks must be nonempty")
        part = sorted(blocks[k], reverse=(k % 2 == 0))
        word.extend(part)
    word = _check_word(word)
    if run_blocks(word) != blocks:
        raise DomainError("blocks are not the run decomposition of any word")
    return word


def shape_of_word(word):
    """The Ferrers shape whose rows are {0} plus the descent bottoms."""
    blocks = run_blocks(word)
    rows = [0]
    for k in range(2, len(blocks), 2):
        rows.extend(blocks[k])
    return FerrersDiagram.from_row_labels(rows, len(word))


def from_tableau(t):
    """Word of the canonical toppling of the tableau."""
    return word_from_blocks(tableaux.canonical_toppling(t))


def to_tableau(word):
    """Tableau whose entry at (row i, column j) records whether i's block
    precedes j's block. Inverse of from_tableau."""
    return tableaux.from_blocks(shape_of_word(word), run_blocks(word))


def word_from_config(diagram, heights):
    """Word of the canonical toppling of a recurrent configuration."""
    return word_from_blocks(sandpile.canonical_toppling(diagram, heights))


def minimal_config(word):
    """Minimal recurrent configuration with this avalanche order: a letter
    holds its neighbors in the later blocks (smaller letters of the later
    descending blocks for an ascending letter, larger letters of the later
    ascending blocks for a descending one)."""
    return sandpile.minimal_from_blocks(run_blocks(word))


def canonical_bounds(word):
    """Per-letter count of neighbors in the previous block (the sink for the
    first block). Decorations strictly below these bounds are exactly the
    ones that keep the avalanche order."""
    return sandpile.canonical_bounds_from_blocks(run_blocks(word))


def stable_bounds(word):
    """Per-letter count of neighbors up to its own block; these bounds plus
    the minimal configuration give the degrees."""
    return sandpile.stable_bounds_from_blocks(run_blocks(word))


def classify_decoration(word, decorations):
    """'canonical' below the canonical bounds everywhere, 'stable' below the
    stable bounds only, 'invalid' otherwise."""
    return sandpile.classify_decoration(run_blocks(word), decorations)


def decorated_from_config(diagram, heights):
    """Encode a recurrent configuration as (word, decorations): the word of
    its avalanche plus the surplus over the minimal configuration."""
    blocks, deco = sandpile.decompose(diagram, heights)
    return word_from_blocks(blocks), deco


def config_from_decorated(word, decorations):
    """(diagram, heights) for a decorated word; heights is the minimal
    configuration plus the decorations. Canonical decorations give back
    exactly the configurations that decompose to this word; larger ones
    still map to configurations (possibly unstable) and are what the
    stabilizer works on."""
    word = _check_word(word)
    decorations = sandpile.check_counts(decorations, len(word), "decorations")
    base = minimal_config(word)
    heights = tuple(b + a for b, a in zip(base, decorations))
    return shape_of_word(word), heights


class _Blocks:
    """Mutable positional block structure for the stabilizer.

    blocks[0] is the first ascending block, blocks[1] the first descending
    block and so on; each is kept sorted ascending. Blocks may be empty in
    mid-rewrite; the rules below make any letter behind an empty block
    unsettled, so such states rewrite themselves away.
    """

    def __init__(self, blocks):
        self.blocks = [sorted(b) for b in blocks]

    @classmethod
    def from_word(cls, word):
        return cls(run_blocks(word)[1:])

    def word(self):
        out = []
        for idx, block in enumerate(self.blocks):
            out.extend(block if idx % 2 == 0 else reversed(block))
        return tuple(out)

    def index_of(self, x):
        for idx, block in enumerate(self.blocks):
            if x in block:
                return idx
        raise RuntimeError("letter %r lost" % (x,))

    def witnesses(self, x):
        """Letters of the previous block that bound x from its own side:
        smaller ones for an ascending letter, larger ones for a descending
        letter. The first block's witness is the sink, reported as 0."""
        idx = self.index_of(x)
        if idx == 0:
            return [0]
        prev = self.blocks[idx - 1]
        if idx % 2 == 0:
            return [j for j in prev if j < x]
        return [j for j in prev if j > x]

    def mu(self, x):
        return len(self.witnesses(x))

    def _insert(self, idx, x):
        while len(self.blocks) <= idx:
            self.blocks.append([])
        block = self.blocks[idx]
        block.append(x)
        block.sort()

    def _trim(self):
        while self.blocks and not self.blocks[-1]:
            self.blocks.pop()

    def settle(self, x, deco):
        """Slide an unsettled letter one block towards the front, paying one
        grain to each witness. Preserves the encoded configuration."""
        idx = self.index_of(x)
        if idx < 2:
            raise RuntimeError("only letters beyond the first block settle")
        ws = self.witnesses(x)
        if deco[x - 1] < len(ws):
            raise RuntimeError("letter %d cannot pay its %d witnesses" % (x, len(ws)))
        deco[x - 1] -= len(ws)
        for w in ws:
            deco[w - 1] += 1
        self.blocks[idx].remove(x)
        self._insert(idx - 2, x)
        self._trim()

    def topple(self, x, deco):
        """Topple an unstable first-block letter: pay out its bound (to the
        larger first-ascending-block letters for a descending letter, to the
        sink for an ascending one) and jump to the last block it beats."""
        idx = self.index_of(x)
        if idx > 1:
            raise RuntimeError("only first-block letters topple")
        ws = self.witnesses(x)
        if deco[x - 1] < len(ws):
            raise RuntimeError("letter %d cannot pay its %d witnesses" % (x, len(ws)))
        deco[x - 1] -= len(ws)
        for w in ws:
            if w != 0:
                deco[w - 1] += 1
        self.blocks[idx].remove(x)
        if idx == 1:
            k = max(
                m
                for m in range(len(self.blocks))
                if m % 2 == 0 and any(j > x for j in self.blocks[m])
            )
            self._insert(k + 1, x)
        else:
            candidates = [-1]
            candidates += [
                m
                for m in range(1, len(self.blocks), 2)
                if any(j < x for j in self.blocks[m])
            ]
            self._insert(max(candidates) + 1, x)
        if len(self.blocks) > 1 and not self.blocks[1]:
            rest = self.blocks[2] if len(self.blocks) > 2 else []
            self.blocks = [sorted(self.blocks[0] + rest)] + self.blocks[3:]
        self._trim()


def stabilize(word, decorations, trace=False):
    """Stabilize a decorated word without touching the graph.

    Repeatedly: settle the leftmost letter at or over its bound that sits
    beyond the first block; once none remain, collect the first-block
    letters at or over their bounds (these are exactly the unstable vertices
    of the encoded configuration) and topple each in left-to-right order.
    Stops when neither kind exists; the result is a canonically decorated
    word encoding the graph stabilization of the input configuration.

    Returns (word, decorations), or (word, decorations, trace) with trace a
    list of {action, letter, word, decorations} snapshots taken after each
    settle or topple.
    """
    word = _check_word(word)
    deco = list(sandpile.check_counts(decorations, len(word), "decorations"))
    b = _Blocks.from_word(word)
    events = []
    cap = 10_000 + 40 * (len(word) + 2) ** 3 * (sum(deco) + len(word) + 2)
    steps = 0

    def record(action, letter):
        events.append(
            {
                "action": action,
                "letter": letter,
                "word": b.word(),
                "decorations": tuple(deco),
            }
        )

    while True:
        steps += 1
        if steps >= cap:
            raise RuntimeError("stabilization exceeded its iteration budget")
        moved = False
        for x in b.word():
            if b.index_of(x) >= 2 and deco[x - 1] >= b.mu(x):
                b.settle(x, deco)
                if trace:
                    record("settle", x)
                moved = True
                break
        if moved:
            continue
        unstable = {
            x
            for idx in (0, 1)
            if idx < len(b.blocks)
            for x in b.blocks[idx]
            if deco[x - 1] >= b.mu(x)
        }
        if not unstable:
            break
        while unstable:
            x = next(l for l in b.word() if l in unstable)
            unstable.discard(x)
            b.topple(x, deco)
            if trace:
                record("topple", x)
    out = b.word()
    if run_blocks(out)[1:] != tuple(tuple(blk) for blk in b.blocks):
        raise RuntimeError("stabilized blocks are not the runs of %r" % (out,))
    if classify_decoration(out, deco) != "canonical":
        raise RuntimeError("stabilized decoration of %r is not canonical" % (out,))
    if trace:
        return out, tuple(deco), events
    return out, tuple(deco)
