"""Command line interface.

Subcommands:
  graph      print the labeled graph of a shape
  convert    translate between config, tableau, perm and tree
  stabilize  stabilize a configuration, on the graph or on the word
  enumerate  stream brute-force enumerations of a shape
  certify    run the full cross-check suite over one or many shapes

Exit codes: 0 success, 2 malformed input or usage, 3 domain or budget
violation, 4 certification found a failing property.
"""

import argparse
import json
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
    p.add_argument("--trace", action="store_true", help="include the step log")
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


def _need_text_or_json(args):
    if args.format == "dot":
        raise FormatError("dot output is only available for tree output")


def _cmd_graph(args, out):
    _need_text_or_json(args)
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
    else:
        out.write("shape: %s\n" % serialize.shape_to_text(d))
        out.write("semiperimeter: %d\n" % info["semiperimeter"])
        out.write("n: %d\n" % info["n"])
        out.write("rows: %s\n" % ",".join(str(v) for v in info["rows"]))
        out.write("cols: %s\n" % ",".join(str(v) for v in info["cols"]))
        out.write("degrees: %s\n" % ",".join(str(v) for v in info["degrees"]))
        out.write("edges: %d\n" % info["edges"])
        out.write("spanning-trees: %d\n" % info["spanning_trees"])
    return 0


def _parse_convert_input(args, data):
    if args.src == "config":
        context = serialize.parse_shape(args.shape) if args.shape else None
        d, heights = serialize.parse_config(data, context)
        return "config", (d, heights)
    if args.src == "tableau":
        t, deco = serialize.parse_tableau(data)
        return "tableau", (t, deco)
    if args.src == "perm":
        word, deco = serialize.parse_perm(data)
        return "perm", (word, deco)
    return "tree", serialize.parse_tree(data)


def _as_perm(kind, value):
    """Normalize any representation to (word, decorations)."""
    if kind == "config":
        d, heights = value
        return permutations.decorated_from_config(d, heights)
    if kind == "tableau":
        t, deco = value
        word = permutations.from_tableau(t)
        return word, deco if deco is not None else (0,) * len(word)
    if kind == "perm":
        word, deco = value
        permutations.run_blocks(word)  # validates the word
        return word, deco
    return trees.tree_to_perm(value)


def _cmd_convert(args, out):
    data = args.data if args.data is not None else sys.stdin.read()
    if not data.strip():
        raise FormatError("no input data")
    kind, value = _parse_convert_input(args, data)
    if args.format == "dot" and args.dst != "tree":
        raise FormatError("dot output is only available for tree output")

    if args.dst == "config":
        if kind == "config":
            d, heights = value
        elif kind == "tableau":
            t, deco = value
            d = t.diagram
            heights = tableaux.config_from_decorated(
                t, deco if deco is not None else (0,) * d.n
            )
        else:
            word, deco = _as_perm(kind, value)
            d, heights = permutations.config_from_decorated(word, deco)
        if args.format == "json":
            out.write(json.dumps(serialize.config_to_json(d, heights)) + "\n")
        else:
            out.write(serialize.config_to_text(heights) + "\n")
        return 0

    if args.dst == "tableau":
        if kind == "tableau":
            t, deco = value
        elif kind == "config":
            d, heights = value
            t, deco = tableaux.decorated_from_config(d, heights)
        else:
            word, deco = _as_perm(kind, value)
            t = permutations.to_tableau(word)
        show = deco if deco is not None and any(deco) else None
        if args.format == "json":
            out.write(json.dumps(serialize.tableau_to_json(t, show)) + "\n")
        else:
            out.write(serialize.tableau_to_text(t, show) + "\n")
        return 0

    if args.dst == "perm":
        word, deco = _as_perm(kind, value)
        show = deco if any(deco) else None
        if args.format == "json":
            out.write(json.dumps(serialize.perm_to_json(word, show)) + "\n")
        else:
            out.write(serialize.perm_to_text(word, show) + "\n")
        return 0

    if kind == "tree":
        parents = value
        trees.check_tree(parents)
    else:
        word, deco = _as_perm(kind, value)
        parents = trees.perm_to_tree(word, deco)
    if args.format == "dot":
        out.write(trees.to_dot(parents))
    elif args.format == "json":
        out.write(json.dumps(serialize.tree_to_json(parents)) + "\n")
    else:
        out.write(serialize.tree_to_text(parents) + "\n")
    return 0


def _perm_representation(diagram, heights):
    """A decorated word encoding the (possibly unstable) heights: a
    minimal recurrent configuration they dominate plus the surplus. On
    recurrent heights this is their canonical decomposition.

    Capping every height at deg-1 leaves stable heights as they are and
    makes the others stable. The heights dominate a minimal recurrent
    configuration exactly when the capped vector is recurrent (recurrence
    is closed upwards among stable vectors), and the minimal part of the
    capped vector is then one.
    """
    capped = tuple(min(h, g - 1) for h, g in zip(heights, diagram.degrees))
    if not sandpile.is_recurrent(diagram, capped):
        raise DomainError(
            "heights do not dominate any minimal recurrent configuration"
        )
    base = sandpile.minimal_recurrent(diagram, capped)
    word = permutations.word_from_config(diagram, base)
    return word, tuple(h - b for h, b in zip(heights, base))


def _cmd_stabilize(args, out):
    _need_text_or_json(args)
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
    _need_text_or_json(args)
    d = serialize.parse_shape(args.shape)
    count = 0
    if args.kind in ("stable", "recurrent", "minimal"):
        gen = {
            "stable": oracles.enumerate_stable,
            "recurrent": oracles.enumerate_recurrent,
            "minimal": oracles.enumerate_minimal,
        }[args.kind](d)
        for c in gen:
            count += 1
            if args.format == "json":
                out.write(json.dumps(serialize.config_to_json(d, c)) + "\n")
            else:
                out.write(serialize.config_to_text(c) + "\n")
    elif args.kind == "tableaux":
        for t in oracles.enumerate_tableaux(d):
            count += 1
            if args.format == "json":
                out.write(json.dumps(serialize.tableau_to_json(t)) + "\n")
            else:
                out.write(serialize.tableau_to_text(t) + "\n")
    else:
        for t, deco in oracles.enumerate_canonical_decorated(d):
            count += 1
            if args.format == "json":
                out.write(json.dumps(serialize.tableau_to_json(t, deco)) + "\n")
            else:
                out.write(serialize.tableau_to_text(t, deco) + "\n")
    if args.format == "json":
        out.write(json.dumps({"count": count}) + "\n")
    else:
        out.write("count: %d\n" % count)
    return 0


def _cmd_certify(args, out):
    _need_text_or_json(args)
    if args.shape:
        shapes = [serialize.parse_shape(args.shape)]
    else:
        if args.semiperimeter_max < 2:
            raise DomainError("--semiperimeter-max must be at least 2")
        shapes = []
        for m in range(2, args.semiperimeter_max + 1):
            shapes.extend(enumerate_diagrams(m))
    failures = 0
    for d in shapes:
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
            "certified %d shapes, %d failing\n" % (len(shapes), failures)
        )
    return 4 if failures else 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    opened = False
    try:
        if args.out:
            stream = open(args.out, "w")
            opened = True
        return args.func(args, stream)
    except FormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    finally:
        if opened:
            stream.close()
