"""Command line interface.

Subcommands:
  graph      print the labeled graph of a shape
  convert    translate between config, tableau, perm and tree
  stabilize  stabilize a configuration, on the graph or on the word
  enumerate  stream brute-force enumerations of a shape
  certify    run the full cross-check suite over one or many shapes

Exit codes: 0 success, 1 the reader of stdout went away (a broken pipe,
as in `ewtab enumerate ... | head -1`), 2 malformed input or usage or an
--out FILE that cannot be written, 3 domain or budget violation, 4
certification found a failing property.

The argparse parser is built once per process, on the first call of main,
and kept: repeated in-process calls (the tests, the benchmark) share it.
Parsing leaves the parser as it was, so every call prints exactly what a
freshly built parser would.
"""

import argparse
import functools
import json
import os
import sys

from .errors import FormatError, DomainError, BudgetError
from .diagrams import enumerate_diagrams
from . import sandpile
from . import tableaux
from . import permutations
from . import trees
from . import oracles
from . import serialize

__all__ = ["main"]


def _common():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "dot"),
        default="text",
        help="output format (dot is only available for tree output)",
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    return common


@functools.cache
def _build_parser():
    common = _common()
    parser = argparse.ArgumentParser(
        prog="ewtab",
        description="Recurrent sandpile configurations on Ferrers graphs, "
        "with their tableau, permutation and tree encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", parents=[common], help="describe a shape's graph")
    p.add_argument("--shape", required=True, help="parts, e.g. 5,3,3,2")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "convert", parents=[common], help="translate between representations"
    )
    p.add_argument(
        "--from",
        dest="src",
        required=True,
        choices=("config", "tableau", "perm", "tree"),
    )
    p.add_argument(
        "--to",
        dest="dst",
        required=True,
        choices=("config", "tableau", "perm", "tree"),
    )
    p.add_argument("--data", help="input value; read from stdin when omitted")
    p.add_argument("--shape", help="shape context for plain-text heights")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "stabilize", parents=[common], help="stabilize a configuration"
    )
    p.add_argument("--shape", required=True)
    p.add_argument("--heights", required=True, help="heights of vertices 1..n")
    p.add_argument(
        "--via",
        choices=("graph", "perm"),
        default="graph",
        help="topple on the graph or rewrite the decorated word",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="--via perm: add each settle/topple step (JSON: a trace list); "
        "--via graph: add the per-vertex topple counts to text output "
        "(JSON carries them either way)",
    )
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser(
        "enumerate", parents=[common], help="stream a brute-force enumeration"
    )
    p.add_argument("--shape", required=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=("stable", "recurrent", "minimal", "tableaux", "decorated"),
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "certify", parents=[common], help="cross-check the library on shapes"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--shape")
    group.add_argument(
        "--semiperimeter-max",
        type=int,
        metavar="M",
        help="certify every shape of semiperimeter 2..M",
    )
    p.add_argument("--grain-steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    return parser


def _cmd_graph(args, out):
    d = serialize.parse_shape(args.shape)
    info = {
        "shape": list(d.parts),
        "semiperimeter": d.semiperimeter,
        "n": d.n,
        "rows": list(d.row_labels),
        "cols": list(d.col_labels),
        "degrees": list(d.degrees),
        "edges": d.edge_count,
        "spanning_trees": d.spanning_tree_count(),
    }
    if args.format == "json":
        out.write(json.dumps(info) + "\n")
        return 0
    for key, value in info.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out.write("%s: %s\n" % (key.replace("_", "-"), value))
    return 0


def _decorated_word(args, data):
    """Parse the input and return its canonically decorated word. Input
    that encodes no recurrent configuration raises DomainError: a config
    that is not recurrent, a tableau that is not EW, a tree that is not
    intransitive, or a decoration that is not canonical."""
    if args.src == "config":
        context = serialize.parse_shape(args.shape) if args.shape else None
        d, heights = serialize.parse_config(data, context)
        return permutations.decorated_from_config(d, heights)
    if args.src == "tree":
        return trees.tree_to_perm(serialize.parse_tree(data))
    if args.src == "tableau":
        t, deco = serialize.parse_tableau(data)
        word = permutations.from_tableau(tableaux.ensure_valid(t))
        if deco is None:
            deco = (0,) * len(word)
    else:
        word, deco = serialize.parse_perm(data)
    sandpile.require_canonical(permutations.run_blocks(word), deco)
    return word, deco


def _cmd_convert(args, out):
    data = args.data if args.data is not None else sys.stdin.read()
    if not data.strip():
        raise FormatError("no input data")
    word, deco = _decorated_word(args, data)
    show = deco if any(deco) else None

    if args.dst == "config":
        d, heights = permutations.config_from_decorated(word, deco)
        text = serialize.config_to_text(heights)
        obj = serialize.config_to_json(d, heights)
    elif args.dst == "tableau":
        t = permutations.to_tableau(word)
        text = serialize.tableau_to_text(t, show)
        obj = serialize.tableau_to_json(t, show)
    elif args.dst == "perm":
        text = serialize.perm_to_text(word, show)
        obj = serialize.perm_to_json(word, show)
    else:
        parents = trees.perm_to_tree(word, deco)
        if args.format == "dot":
            out.write(trees.to_dot(parents))
            return 0
        text = serialize.tree_to_text(parents)
        obj = serialize.tree_to_json(parents)
    out.write((json.dumps(obj) if args.format == "json" else text) + "\n")
    return 0


def _perm_representation(diagram, heights):
    """A decorated word encoding the (possibly unstable) heights: a
    minimal recurrent configuration they dominate plus the surplus. On
    recurrent heights this is their canonical decomposition.

    Capping every height at deg-1 leaves stable heights as they are and
    makes the others stable. The heights dominate a minimal recurrent
    configuration exactly when the capped vector is recurrent (recurrence
    is closed upwards among stable vectors), and the minimal part of the
    capped vector is then one. One avalanche of the capped vector gives
    both its word and its surplus over that minimal part.
    """
    heights = sandpile.check_counts(heights, diagram.n, "heights")
    capped = tuple(min(h, g - 1) for h, g in zip(heights, diagram.degrees))
    try:
        word, surplus = permutations.decorated_from_config(diagram, capped)
    except DomainError:
        # capped is a stable configuration, so only a stalled avalanche
        # lands here
        raise DomainError(
            "heights do not dominate any minimal recurrent configuration"
        ) from None
    return word, tuple(a + h - c for a, h, c in zip(surplus, heights, capped))


def _cmd_stabilize(args, out):
    d = serialize.parse_shape(args.shape)
    _, heights = serialize.parse_config(args.heights, d)
    if args.via == "graph":
        stable, counts = sandpile.stabilize(d, heights)
        payload = {
            "heights": list(stable),
            "counts": [counts[v] for v in range(1, d.n + 1)],
        }
        if args.format == "json":
            out.write(json.dumps(payload) + "\n")
        else:
            out.write("heights: %s\n" % serialize.config_to_text(stable))
            if args.trace:
                out.write(
                    "counts: %s\n"
                    % ",".join(str(c) for c in payload["counts"])
                )
        return 0
    word, deco = _perm_representation(d, heights)
    result = permutations.stabilize(word, deco, trace=args.trace)
    word2, deco2 = result[0], result[1]
    _, stable = permutations.config_from_decorated(word2, deco2)
    payload = {
        "heights": list(stable),
        "perm": list(word2),
        "decorations": list(deco2),
    }
    if args.trace:
        payload["trace"] = [
            {
                "action": e["action"],
                "letter": e["letter"],
                "perm": list(e["word"]),
                "decorations": list(e["decorations"]),
            }
            for e in result[2]
        ]
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
        return 0
    out.write("heights: %s\n" % serialize.config_to_text(stable))
    out.write("perm: %s\n" % serialize.perm_to_text(word2, deco2))
    if args.trace:
        for e in result[2]:
            out.write(
                "%s %d -> %s\n"
                % (
                    e["action"],
                    e["letter"],
                    serialize.perm_to_text(e["word"], e["decorations"]),
                )
            )
    return 0


def _cmd_enumerate(args, out):
    d = serialize.parse_shape(args.shape)
    if args.kind in ("tableaux", "decorated"):
        if args.kind == "tableaux":
            items = ((t, None) for t in oracles.enumerate_tableaux(d))
        else:
            items = oracles.enumerate_canonical_decorated(d)
        to_text, to_json = serialize.tableau_to_text, serialize.tableau_to_json
    else:
        configs = {
            "stable": oracles.enumerate_stable,
            "recurrent": oracles.enumerate_recurrent,
            "minimal": oracles.enumerate_minimal,
        }[args.kind](d)
        items = ((c, None) for c in configs)
        to_text = lambda c, _: serialize.config_to_text(c)
        to_json = lambda c, _: serialize.config_to_json(d, c)
    line = to_text if args.format == "text" else (
        lambda obj, deco: json.dumps(to_json(obj, deco))
    )
    count = 0
    for obj, deco in items:
        out.write(line(obj, deco) + "\n")
        count += 1
    if args.format == "json":
        out.write(json.dumps({"count": count}) + "\n")
    else:
        out.write("count: %d\n" % count)
    return 0


def _cmd_certify(args, out):
    if args.grain_steps < 0:
        raise FormatError("--grain-steps must be non-negative")
    if args.shape:
        shapes = [serialize.parse_shape(args.shape)]
    else:
        if args.semiperimeter_max < 2:
            raise FormatError("--semiperimeter-max must be at least 2")
        # one semiperimeter at a time: a sweep can stop at the first shape
        # over the budget without listing every larger shape first
        shapes = (
            d
            for m in range(2, args.semiperimeter_max + 1)
            for d in enumerate_diagrams(m)
        )
    count = failures = 0
    for d in shapes:
        count += 1
        report = oracles.certify_shape(
            d, grain_steps=args.grain_steps, seed=args.seed
        )
        if not report["pass"]:
            failures += 1
        if args.format == "json":
            out.write(json.dumps(report) + "\n")
        elif report["pass"]:
            out.write(
                "PASS %s (%d checks)\n"
                % (serialize.shape_to_text(d), len(report["properties"]))
            )
        else:
            bad = [p["name"] for p in report["properties"] if not p["pass"]]
            out.write(
                "FAIL %s: %s\n" % (serialize.shape_to_text(d), ", ".join(bad))
            )
    if args.format == "text":
        out.write(
            "certified %d shapes, %d failing\n" % (count, failures)
        )
    return 4 if failures else 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    if args.out:
        try:
            stream = open(args.out, "w")
        except OSError as e:
            print("error: cannot write %s: %s" % (args.out, e.strerror),
                  file=sys.stderr)
            return 2
    try:
        tree_out = args.command == "convert" and args.dst == "tree"
        if args.format == "dot" and not tree_out:
            raise FormatError("dot output is only available for tree output")
        code = args.func(args, stream)
        stream.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at exit stays quiet (the recipe of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except FormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    finally:
        if stream is not sys.stdout:
            stream.close()
