"""Text and JSON formats for shapes, configurations, tableaux, words, trees.

Every emitter here has a parser that accepts its output. JSON payloads are
detected by a leading brace; everything else is treated as the plain text
form. Structural problems (unparseable text, wrong field types) raise
FormatError. So does, in every form, an object that cannot be built from
its fields, such as rows that are not a Ferrers shape or letters that are
not a permutation of 1..n. Each carrier has one builder, the library makes
each definition check, and `_build` is the one place where the library's
DomainError becomes a FormatError. An object that builds but is not what a
command needs (a tableau that is not EW, a configuration that is not
recurrent) is left for the library functions to reject.
"""

import json

from .errors import FormatError, DomainError
from .diagrams import FerrersDiagram
from .tableaux import EWTableau
from . import permutations

__all__ = [
    "parse_shape",
    "shape_to_text",
    "shape_to_json",
    "parse_config",
    "config_to_text",
    "config_to_json",
    "parse_tableau",
    "tableau_to_text",
    "tableau_to_pretty",
    "tableau_to_json",
    "parse_perm",
    "perm_to_text",
    "perm_to_json",
    "parse_tree",
    "tree_to_text",
    "tree_to_json",
]


def _is_json(data):
    return data.lstrip().startswith("{")


def _load_json(data):
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise FormatError("bad JSON: %s" % e) from None
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    return obj


def _int_list(values, what):
    """A JSON list of JSON integers, taken as it is: floats, booleans and
    strings are refused rather than converted."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise FormatError("%s must be a list of integers" % what)
    return values


def _number(tok, sign=True):
    """Read one text number: every text number is read here. It is int(tok),
    but a token that is not ASCII or that holds "_" raises ValueError, as
    int() does on other bad text; int() alone would read "1_0" as 10 and
    "٣" or "０" as digits. Surrounding whitespace and a leading + or - are
    read as int() reads them; with sign false, a sign is refused too."""
    if not tok.isascii() or "_" in tok or not sign and tok[:1] in "+-":
        raise ValueError("not an ASCII decimal number: %r" % tok)
    return int(tok)


def _split_ints(text, what):
    """The integers of text, separated by commas or whitespace. A field
    between commas that holds no number reads as "", which int() refuses."""
    fields = text.split(",") if text.strip() else []
    try:
        return [_number(tok) for field in fields for tok in field.split() or [""]]
    except ValueError:
        raise FormatError("cannot read %s from %r" % (what, text)) from None


def _int(text, what):
    try:
        return _number(text)
    except ValueError:
        raise FormatError("cannot read %s from %r" % (what, text)) from None


def _count(values, n, what):
    """values as a tuple, when there are exactly n of them."""
    if len(values) != n:
        raise FormatError("expected %d %s, got %d" % (n, what, len(values)))
    return tuple(values)


def _build(fn, *args):
    """fn(*args), with the library's DomainError raised as a FormatError:
    the one place where a refused definition becomes malformed input."""
    try:
        return fn(*args)
    except DomainError as e:
        raise FormatError(str(e)) from None


# -- shapes -----------------------------------------------------------------

def parse_shape(data):
    if _is_json(data):
        obj = _load_json(data)
        if "parts" not in obj:
            raise FormatError("shape object needs a 'parts' field")
        parts = _int_list(obj["parts"], "parts")
    else:
        parts = _split_ints(data, "shape")
    return _build(FerrersDiagram, parts)


def shape_to_text(diagram):
    return ",".join(str(p) for p in diagram.parts)


def shape_to_json(diagram):
    return {"parts": list(diagram.parts)}


# -- configurations ---------------------------------------------------------

def parse_config(data, diagram=None):
    """Returns (diagram, heights). Plain text carries only the heights, so
    the diagram must be supplied; JSON carries its own shape."""
    if _is_json(data):
        obj = _load_json(data)
        if "shape" not in obj or "heights" not in obj:
            raise FormatError("config object needs 'shape' and 'heights'")
        d = _build(FerrersDiagram, _int_list(obj["shape"], "shape"))
        if diagram is not None and diagram != d:
            raise FormatError("config shape %r does not match --shape" % (d.parts,))
        heights = _int_list(obj["heights"], "heights")
    else:
        if diagram is None:
            raise FormatError("plain-text heights need an explicit shape")
        d = diagram
        heights = _split_ints(data, "heights")
    return d, _count(heights, d.n, "heights")


def config_to_text(heights):
    return ",".join(str(h) for h in heights)


def config_to_json(diagram, heights):
    return {"shape": list(diagram.parts), "heights": list(heights)}


# -- tableaux ---------------------------------------------------------------

def _parse_bits(text):
    """text, when it is a nonempty row of 0s and 1s."""
    if not text or not text.isascii() or text.encode().translate(None, b"01"):
        raise FormatError("%r is not a row of 0s and 1s" % text)
    return text


def _tableau(rows, parts=None):
    """The tableau of the row strings checked by _parse_bits, on the
    declared parts or else on the row lengths: every form of a tableau is
    built here."""
    if parts is None:
        parts = [len(r) for r in rows]
    return _build(EWTableau, _build(FerrersDiagram, parts), rows)


def parse_tableau(data):
    """Returns (tableau, decorations-or-None). Accepts the JSON object, the
    single-line rows/decoration form, and the pretty multi-line form."""
    if _is_json(data):
        obj = _load_json(data)
        if "rows" not in obj:
            raise FormatError("tableau object needs a 'rows' field")
        rows = obj["rows"]
        if not isinstance(rows, list) or any(type(r) is not str for r in rows):
            raise FormatError("'rows' must be a list of 0/1 strings")
        rows = [_parse_bits(r) for r in rows]
        parts = _int_list(obj["shape"], "shape") if "shape" in obj else None
        t = _tableau(rows, parts)
        deco = obj.get("decorations")
        if deco is not None:
            deco = _count(_int_list(deco, "decorations"), t.diagram.n, "decorations")
        return t, deco
    text = data.strip()
    if "\n" in text:
        return _parse_tableau_pretty(text)
    text, caret, tail = text.partition("^")
    deco = _split_ints(tail, "decorations") if caret else None
    t = _tableau([_parse_bits(part) for part in text.strip().split("/")])
    if deco is not None:
        deco = _count(deco, t.diagram.n, "decorations")
    return t, deco


def _parse_tableau_pretty(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    col_line = None
    if lines and lines[-1].startswith("^"):
        col_line = lines.pop()
    rows = []
    row_decos = []
    for ln in lines:
        bits, _, tail = ln.partition("^")
        rows.append(_parse_bits(bits.strip()))
        row_decos.append(_int(tail, "row decoration") if tail.strip() else None)
    t = _tableau(rows)
    d = t.diagram
    any_deco = col_line is not None or any(a is not None for a in row_decos[1:])
    if not any_deco:
        return t, None
    if col_line is None:
        raise FormatError("row decorations given without a column line")
    if row_decos[0] is not None:
        raise FormatError("the top row takes no decoration")
    if any(a is None for a in row_decos[1:]):
        raise FormatError("every non-top row needs a decoration")
    col_decos = _split_ints(col_line[1:], "column decorations")
    col_decos = _count(col_decos, d.parts[0], "column decorations")
    deco = [0] * d.n
    for i, label in enumerate(d.row_labels):
        if label != 0:
            deco[label - 1] = row_decos[i]
    for x, label in enumerate(d.col_labels):
        deco[label - 1] = col_decos[x]
    return t, tuple(deco)


def tableau_to_text(t, decorations=None):
    body = "/".join(t.row_strings())
    if decorations is None:
        return body
    return body + "^" + ",".join(str(a) for a in decorations)


def tableau_to_pretty(t, decorations=None):
    d = t.diagram
    lines = []
    for label, bits in zip(d.row_labels, t.row_strings()):
        if decorations is not None and label != 0:
            bits += " ^%d" % decorations[label - 1]
        lines.append(bits)
    if decorations is not None:
        lines.append("^ " + " ".join(str(decorations[j - 1]) for j in d.col_labels))
    return "\n".join(lines) + "\n"


def tableau_to_json(t, decorations=None):
    obj = {"shape": list(t.diagram.parts), "rows": list(t.row_strings())}
    if decorations is not None:
        obj["decorations"] = list(decorations)
    return obj


# -- decorated words --------------------------------------------------------

def parse_perm(data):
    """Returns (word, decorations). Accepts the JSON object, a bare word
    (one run of digits, or whitespace-separated letters), and the decorated
    block form "3^0 5^0 8^0 - 7^0 1^2 - ..."."""
    if _is_json(data):
        obj = _load_json(data)
        if "perm" not in obj:
            raise FormatError("permutation object needs a 'perm' field")
        word = tuple(_int_list(obj["perm"], "perm"))
        _build(permutations.run_blocks, word)
        deco = obj.get("decorations")
        if deco is None:
            return word, (0,) * len(word)
        return word, _count(_int_list(deco, "decorations"), len(word), "decorations")
    text = data.strip()
    if not text:
        raise FormatError("empty permutation")
    if "^" in text:
        return _parse_perm_blocks(text)
    tokens = text.split()
    if len(tokens) == 1:
        try:  # one letter per character, so no sign
            word = tuple(map(_number, tokens[0]))
        except ValueError:
            raise FormatError("%r is not a permutation word" % text) from None
    else:
        word = tuple(_split_ints(text, "permutation"))
    _build(permutations.run_blocks, word)
    return word, (0,) * len(word)


def _parse_perm_blocks(text):
    groups = [g.strip() for g in text.split("-")]
    if any(not g for g in groups):
        raise FormatError("empty block in %r" % text)
    word = []
    pairs = []
    for g in groups:
        block = []
        for tok in g.split():
            letter, _, deco = tok.partition("^")
            try:  # with no caret, deco is "", which int() refuses
                block.append((_number(letter, False), _number(deco, False)))
            except ValueError:
                raise FormatError("bad decorated letter %r" % tok) from None
        word.extend(x for x, _ in block)
        pairs.append(block)
    word = tuple(word)
    blocks = _build(permutations.run_blocks, word)
    given = tuple(tuple(sorted(x for x, _ in block)) for block in pairs)
    if given != blocks[1:]:
        raise FormatError("blocks do not match the runs of %r" % (word,))
    deco = [0] * len(word)
    for block in pairs:
        for x, a in block:
            deco[x - 1] = a
    return word, tuple(deco)


def perm_to_text(word, decorations=None):
    if decorations is None or not any(decorations):
        if len(word) <= 9:
            return "".join(str(x) for x in word)
        return " ".join(str(x) for x in word)
    blocks = permutations.run_blocks(word)
    groups = []
    for k in range(1, len(blocks)):
        letters = permutations.in_block_order(blocks[k], k)
        groups.append(" ".join("%d^%d" % (x, decorations[x - 1]) for x in letters))
    return " - ".join(groups)


def perm_to_json(word, decorations=None):
    obj = {"perm": list(word)}
    if decorations is not None:
        obj["decorations"] = list(decorations)
    return obj


# -- trees ------------------------------------------------------------------

def parse_tree(data):
    """Returns a parent tuple. The root's entry is null in JSON and '.' in
    the comma-separated text form (a leading '-' would read as a flag on
    the command line)."""
    if _is_json(data):
        obj = _load_json(data)
        if "parent" not in obj:
            raise FormatError("tree object needs a 'parent' field")
        raw = obj["parent"]
        if not isinstance(raw, list) or not raw or raw[0] is not None:
            raise FormatError("'parent' must be a list starting with null")
        return (None,) + tuple(_int_list(raw[1:], "parent"))
    tokens = [tok.strip() for tok in data.strip().split(",")]
    if not tokens or tokens[0] != ".":
        raise FormatError("tree text must start with '.' for the root")
    try:
        rest = tuple(map(_number, tokens[1:]))
    except ValueError:
        raise FormatError("parents must be integers") from None
    return (None,) + rest


def tree_to_text(parents):
    return ",".join("." if p is None else str(p) for p in parents)


def tree_to_json(parents):
    return {"parent": [None if p is None else int(p) for p in parents]}
