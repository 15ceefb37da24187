"""Permutations as avalanche orders, and chip-firing on the word itself.

A permutation of 1..n splits into maximal alternating runs, ascending first:
"12738645" gives 127 | 3 | 8 | 64 | 5. Prefixing the block {0} makes this
the canonical toppling order of a recurrent configuration on the Ferrers
graph whose rows are {0} plus the descent bottoms of the word. Ascending
blocks hold column vertices, descending blocks hold row vertices.

The module converts both ways between words, tableaux and configurations
and implements grain stabilization directly on decorated words: a letter
with too large a decoration either settles (moves to the previous block of
its own kind, two blocks towards the front, handing one grain to each
witness that made its bound) or, from the first block of its kind, topples
(pays out its bound and jumps to the last block it still beats). The
result is canonical and matches graph stabilization exactly. A word's
minimal configuration, bounds and decoration class are the block core's
(sandpile's *_from_blocks and classify_decoration) on its run_blocks.
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
    """run_blocks of a tuple already known to be a permutation. A run is
    strictly monotone, so its slice is sorted as it stands (ascending) or
    reversed (descending)."""
    blocks = [(0,)]
    i = 0
    ascending = True
    while i < len(word):
        j = i + 1
        while j < len(word) and (word[j] > word[j - 1]) == ascending:
            j += 1
        blocks.append(word[i:j] if ascending else word[i:j][::-1])
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

    The state is the decorations and one bitmask per block, the sink block
    {0} first. A letter's witnesses are the letters of the previous block
    that it beats: the smaller ones from an ascending (odd) block, the
    larger ones from a descending (even) block. Its bound is their number
    (1 in the first block, for the sink; 0 behind an emptied block).

    Repeatedly: settle the leftmost letter at or over its bound beyond the
    first block of its kind (two blocks towards the front, one grain to each
    witness); once none remain, topple the first-block letters at or over
    their bounds as the round starts (exactly the unstable vertices of the
    encoded configuration) in word order. A toppled letter pays its
    witnesses and jumps behind the last block of the other kind holding a
    letter it beats, scanning those from the back; when the first descending
    block empties, the next block joins the first and the later ones move up
    by two. Stops when neither move exists, with the canonically decorated
    word of the graph stabilization.

    The search for a settle walks each block's mask bit by bit in word
    order and stops at the first ready letter. It visits only the blocks
    set in `dirty`, a bitmask of the blocks from 3 on that may hold a ready
    letter, and clears each block it finds with nothing ready. Rule: a
    settle from block k marks k-2 and k+1; a topple from block k in {1, 2}
    that lands in block t marks t, and block 3 too when k = 2; when blocks
    1 and 3 merge, the mask shifts down by two. Proof that every ready
    letter from block 3 on stays in a marked block: whether the letter y of
    block j is ready depends only on y's decoration and on blocks j-1 and
    j. A settle of x from block k leaves block k marked (x was found
    there), puts x in block k-2 and takes a possible witness away from the
    letters of block k+1. Each witness w of x in block k-1 gains a grain,
    but w beats x too (x beats w exactly when they are neighbours), so x,
    now in block k-2, is a new witness of w: w's bound rises with its
    decoration. No other letter of block k-1 gains a witness or a grain,
    and dropping trailing empty blocks removes only blocks after k. A topple pays witnesses in
    block 0 or 1, outside the search; x leaves block k, which can take a
    witness away only from the letters of block k+1 (block 3 when k = 2),
    and joins block t, where it may be ready, while the letters of block
    t+1 can only gain x as a witness. A merge moves every block from 4 on
    up by two together with the block before it. So the search finds the
    same leftmost ready letter as a search from block 3 would.

    A topple's landing scan always finds a block: no move changes a
    letter's kind (a settle moves two blocks, a topple lands behind a block
    of the other kind, a merge shifts by two), so every ascending letter
    beats the sink in block 0 and every descending letter beats n, the
    largest letter, which ends an ascending run. Its RuntimeError is a
    self-check only.

    Returns (word, decorations), or (word, decorations, trace) with trace a
    list of {action, letter, word, decorations} snapshots after each move.
    """
    word = _check_word(word)
    n = len(word)
    deco = list(sandpile.check_counts(decorations, n, "decorations"))
    masks = [sandpile._mask(block) for block in _runs(word)]
    events = []
    cap = 10_000 + 40 * (n + 2) ** 3 * (sum(deco) + n + 2)
    dirty = ((1 << len(masks)) - 1) & -8  # the blocks that may hold a ready letter
    for _ in range(cap - 1):
        search = dirty
        while search:  # the search for a settle, leftmost dirty block first
            k = (search & -search).bit_length() - 1
            search ^= 1 << k
            rest, prev = masks[k], masks[k - 1]
            if k % 2:  # witnesses below the letter
                while rest:
                    low = rest & -rest
                    if deco[low.bit_length() - 2] >= (prev & (low - 1)).bit_count():
                        break
                    rest ^= low
            else:  # witnesses above the letter
                while rest:
                    x = rest.bit_length() - 1
                    if deco[x - 1] >= (prev >> (x + 1)).bit_count():
                        break
                    rest ^= 1 << x
            if rest:
                first, unstable = 0, low if k % 2 else 1 << x
                break
            dirty ^= 1 << k  # nothing ready in block k
        else:  # a topple round: the ready letters of blocks 1 and 2
            first, unstable = masks[1], 0
            for k in range(1, min(3, len(masks))):
                rest = masks[k]
                while rest:
                    x = rest.bit_length() - 1
                    rest ^= 1 << x
                    beat = (1 << x) - 1 if k % 2 else -(2 << x)
                    if deco[x - 1] >= (masks[k - 1] & beat).bit_count():
                        unstable |= 1 << x
            if not unstable:
                break
        while unstable:  # a topple keeps the block it had as the round began
            rest = unstable & first  # block 1 first, lowest letter first
            x = (rest & -rest).bit_length() - 1 if rest else unstable.bit_length() - 1
            unstable ^= 1 << x
            k = 1 if rest else k if k > 2 else 2
            beat = (1 << x) - 1 if k % 2 else -(2 << x)  # the letters x beats
            witnesses = masks[k - 1] & beat
            bound = witnesses.bit_count()
            if deco[x - 1] < bound:
                raise RuntimeError("letter %d cannot pay its %d witnesses" % (x, bound))
            deco[x - 1] -= bound
            witnesses &= ~1  # the sink keeps no grain
            while witnesses:
                low = witnesses & -witnesses
                deco[low.bit_length() - 2] += 1
                witnesses ^= low
            masks[k] ^= 1 << x
            if k > 2:  # a settle
                masks[k - 2] |= 1 << x
                while not masks[-1]:
                    masks.pop()
                dirty |= 9 << (k - 2)  # blocks k-2 and k+1
            else:  # a topple: scan the other kind's blocks from the back
                to = len(masks) - 1 - (len(masks) + k) % 2
                while to > 1 and not masks[to] & beat:  # down to block 0 or 1
                    to -= 2
                if not masks[to] & beat:
                    raise RuntimeError("letter %d beats no letter of the other kind" % x)
                if to + 1 == len(masks):
                    masks.append(0)
                masks[to + 1] |= 1 << x
                dirty |= 1 << (to + 1) | (k - 1) << 3  # the landing block; 3 if k = 2
                if len(masks) > 2 and not masks[2]:  # the first descending block emptied
                    masks[1:4] = [masks[1] | masks[3]]
                    dirty >>= 2
            dirty &= ((1 << len(masks)) - 1) & -8
            if trace:
                events.append({"action": "settle" if k > 2 else "topple", "letter": x,
                               "word": _write([list(sandpile._bits(m)) for m in masks]),
                               "decorations": tuple(deco)})
    else:
        raise RuntimeError("stabilization exceeded its iteration budget")
    out = _write([list(sandpile._bits(m)) for m in masks])
    runs = _runs(out)
    if [sandpile._mask(block) for block in runs] != masks:
        raise RuntimeError("stabilized blocks are not the runs of %r" % (out,))
    if sandpile.classify_decoration(runs, deco) != "canonical":
        raise RuntimeError("stabilized decoration of %r is not canonical" % (out,))
    if trace:
        return out, tuple(deco), events
    return out, tuple(deco)
