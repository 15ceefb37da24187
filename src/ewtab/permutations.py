"""Permutations as avalanche orders, and chip-firing on the word itself.

A permutation of 1..n splits into maximal alternating runs, ascending first:
"12738645" gives 127 | 3 | 8 | 64 | 5. Prefixing the block {0} makes this
the canonical toppling order of a recurrent configuration on the Ferrers
graph whose rows are {0} plus the descent bottoms of the word. Ascending
blocks hold column vertices, descending blocks hold row vertices.

The module converts both ways between words, tableaux and configurations,
feeds the run blocks to the block core for the bounds, and implements
grain stabilization directly on decorated words: a letter with too large a
decoration either settles (moves to the previous block of its own kind, two
blocks towards the front, handing one grain to each witness that made its
bound) or, from the first block of its kind, topples (pays out its bound
and jumps to the last block it still beats). The result is canonical and
matches graph stabilization exactly.
"""

from .errors import DomainError
from .diagrams import FerrersDiagram
from . import sandpile
from . import tableaux

__all__ = [
    "run_blocks",
    "in_block_order",
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
    return _runs(_check_word(word))


def _runs(word):
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


def in_block_order(letters, k):
    """The letters sorted the way the word writes the block at position k
    (the sink block is position 0): ascending at odd k, descending at even
    k."""
    return sorted(letters, reverse=(k % 2 == 0))


def _write(blocks):
    """The letters of the blocks after the sink block, in word order."""
    word = []
    for k in range(1, len(blocks)):
        word.extend(in_block_order(blocks[k], k))
    return tuple(word)


def word_from_blocks(blocks):
    """Rebuild the word from its blocks (sink block first): odd-position
    blocks are written ascending, even-position blocks descending. The
    result must parse back to the same blocks."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    if not blocks or blocks[0] != (0,):
        raise DomainError("blocks must start with the sink block (0,)")
    if not all(blocks):
        raise DomainError("blocks must be nonempty")
    word = _check_word(_write(blocks))
    if _runs(word) != blocks:
        raise DomainError("blocks are not the run decomposition of any word")
    return word


def _shape_of_blocks(blocks):
    rows = [0]
    for k in range(2, len(blocks), 2):
        rows.extend(blocks[k])
    return FerrersDiagram.from_row_labels(rows, sum(map(len, blocks)) - 1)


def shape_of_word(word):
    """The Ferrers shape whose rows are {0} plus the descent bottoms."""
    return _shape_of_blocks(run_blocks(word))


def from_tableau(t):
    """Word of the canonical toppling of the tableau."""
    return word_from_blocks(tableaux.canonical_toppling(t))


def to_tableau(word):
    """Tableau whose entry at (row i, column j) records whether i's block
    precedes j's block. Inverse of from_tableau."""
    blocks = run_blocks(word)
    return tableaux.from_blocks(_shape_of_blocks(blocks), blocks)


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
    blocks = run_blocks(word)
    base = sandpile.minimal_from_blocks(blocks)
    decorations = sandpile.check_counts(decorations, len(base), "decorations")
    heights = tuple(b + a for b, a in zip(base, decorations))
    return _shape_of_blocks(blocks), heights


def stabilize(word, decorations, trace=False):
    """Stabilize a decorated word without touching the graph.

    The state is two lists: pos[x], the block of every letter x (the sink
    block is 0, so the first ascending block is 1), and the decorations.
    Every pass groups the letters into blocks by pos, takes each letter's
    bound from the block core (1 in the first block, for the sink; 0 behind
    a block that has emptied) and writes the word from the blocks.

    Repeatedly: settle the leftmost letter at or over its bound that sits
    beyond the first block of its kind (pos[x] -= 2, one grain to each
    witness); once none remain, collect the first-block letters at or over
    their bounds (these are exactly the unstable vertices of the encoded
    configuration) and topple each in left-to-right order. A toppled letter
    jumps behind the last block of the other kind that holds a letter it
    beats; when the first descending block empties, the blocks behind it
    move up by two. Stops when neither kind of move exists; the result is a
    canonically decorated word encoding the graph stabilization of the
    input configuration.

    Returns (word, decorations), or (word, decorations, trace) with trace a
    list of {action, letter, word, decorations} snapshots taken after each
    settle or topple.
    """
    word = _check_word(word)
    n = len(word)
    deco = list(sandpile.check_counts(decorations, n, "decorations"))
    pos = [0] * (n + 1)
    for k, block in enumerate(_runs(word)):
        for x in block:
            pos[x] = k
    events = []
    cap = 10_000 + 40 * (n + 2) ** 3 * (sum(deco) + n + 2)
    steps = 0

    def layout():
        """The blocks of pos, each sorted, their bounds and their word."""
        blocks = [[] for _ in range(max(pos) + 1)]
        for x, k in enumerate(pos):
            blocks[k].append(x)
        return blocks, sandpile.canonical_bounds_from_blocks(blocks), _write(blocks)

    def pay(blocks, x, bound):
        """x hands one grain to each of its bound witnesses: the letters of
        the previous block on its own side of it (the sink, which keeps no
        grain, for the first block)."""
        if deco[x - 1] < bound:
            raise RuntimeError("letter %d cannot pay its %d witnesses" % (x, bound))
        deco[x - 1] -= bound
        for w in in_block_order(blocks[pos[x] - 1], pos[x])[:bound]:
            if w:
                deco[w - 1] += 1

    def record(action, letter, word):
        if trace:
            events.append(
                {
                    "action": action,
                    "letter": letter,
                    "word": word,
                    "decorations": tuple(deco),
                }
            )

    blocks, bound, out = layout()
    while True:
        steps += 1
        if steps >= cap:
            raise RuntimeError("stabilization exceeded its iteration budget")
        x = next(
            (x for x in out if pos[x] >= 3 and deco[x - 1] >= bound[x - 1]), None
        )
        if x is not None:
            pay(blocks, x, bound[x - 1])
            pos[x] -= 2
            blocks, bound, out = layout()
            record("settle", x, out)
            continue
        unstable = {x for x in out if pos[x] <= 2 and deco[x - 1] >= bound[x - 1]}
        if not unstable:
            break
        while unstable:
            x = next(l for l in out if l in unstable)
            unstable.discard(x)
            pay(blocks, x, bound[x - 1])
            # behind the last block of the other kind holding a letter that
            # x beats; the sink is beaten by every ascending letter
            k = pos[x]
            beaten = range(x) if k == 1 else range(x + 1, n + 1)
            pos[x] = max(pos[j] for j in beaten if pos[j] % 2 != k % 2) + 1
            if 2 not in pos:  # the first descending block has emptied
                pos[:] = [p - 2 if p >= 3 else p for p in pos]
            blocks, bound, out = layout()
            record("topple", x, out)
    if _runs(out) != tuple(map(tuple, blocks)):
        raise RuntimeError("stabilized blocks are not the runs of %r" % (out,))
    if sandpile.classify_decoration(blocks, deco) != "canonical":
        raise RuntimeError("stabilized decoration of %r is not canonical" % (out,))
    if trace:
        return out, tuple(deco), events
    return out, tuple(deco)
