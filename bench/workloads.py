"""The four benchmark workloads: seeded inputs and one checked op each.

Every workload is a closed loop with one client: op(i) runs the i-th op of
a fixed, seed-determined sequence and returns only after its result has
been checked. A wrong result or an exception raises WrongResult (or
propagates); a valid request the program refuses raises Refused. Inputs
are made once, in the constructor, which is the timed set-up. The program
sees only those inputs.

The sequences are cyclic: `cycle` consecutive ops hold the workload's
whole mix of sizes, and a timed run is made of whole cycles, so that it
measures the same mix whatever the seed.
"""

import contextlib
import importlib
import io
import json
import random
import sys
import types

# The ROADMAP shape families: staircases k = 8, 16, 32 and k x k
# rectangles k = 10, 20, cheapest first.
FAMILIES = (
    tuple(range(8, 0, -1)),
    (10,) * 10,
    tuple(range(16, 0, -1)),
    (20,) * 20,
    tuple(range(32, 0, -1)),
)

CLI_BEYOND_BUDGET = (6, 6, 6, 6, 6, 6)  # 6**11 stable configurations
REFUSED_EXIT = 3  # the CLI's exit code for a domain or budget violation


class WrongResult(Exception):
    """The program returned a result that fails a check."""


class Refused(Exception):
    """The program declined a valid request: CLI exit 3, a domain or budget
    refusal. Any other non-zero exit is a wrong result."""


def load_program():
    """Import ewtab afresh and return its layer modules in a namespace.

    Earlier imports are dropped first, so that calling this again measures
    a real import.
    """
    for name in [m for m in sys.modules if m == "ewtab" or m.startswith("ewtab.")]:
        del sys.modules[name]
    return program()


def program():
    """The ewtab package and its layer modules, as imported now."""
    package = importlib.import_module("ewtab")
    ew = types.SimpleNamespace(package=package)
    for layer in ("diagrams", "sandpile", "tableaux", "permutations", "trees",
                  "oracles", "serialize", "cli"):
        setattr(ew, layer, importlib.import_module("ewtab." + layer))
    return ew


def stable_count(parts):
    """Number of stable configurations: the product of the non-sink
    degrees, which is what the brute-force oracles enumerate."""
    conj = [sum(1 for p in parts if p > x) for x in range(parts[0])]
    out = 1
    for g in list(parts[1:]) + conj:
        out *= g
    return out


def spanning_trees(parts):
    """Ehrenborg and van Willigenburg's product formula for Ferrers graphs:
    prod(parts) * prod(conjugate parts) / (parts[0] * conjugate[0])."""
    conj = [sum(1 for p in parts if p > x) for x in range(parts[0])]
    out = 1
    for g in list(parts) + conj:
        out *= g
    return out // (parts[0] * conj[0])


def _recurrent(ew, diagram, rng, grains):
    """The maximal stable configuration plus `grains` seeded grains,
    stabilized: always recurrent."""
    heights = [g - 1 for g in diagram.degrees]
    for _ in range(grains):
        heights[rng.randrange(diagram.n)] += 1
    return ew.sandpile.stabilize(diagram, heights)[0]


def _unstable(ew, diagram, rng):
    """A recurrent configuration plus a seeded burst that fills one vertex
    up to its degree, so at least one vertex must topple."""
    c = _recurrent(ew, diagram, rng, rng.randint(1, diagram.n))
    v = rng.randint(1, diagram.n)
    burst = [v] * (diagram.degrees[v - 1] - c[v - 1])
    burst += [rng.randint(1, diagram.n) for _ in range(rng.randrange(diagram.n))]
    return _add(c, burst)


def _add(values, vertices):
    out = list(values)
    for v in vertices:
        out[v - 1] += 1
    return tuple(out)


def _bit_reverse(j, bits):
    return int(format(j, "0%db" % bits)[::-1], 2) if bits else 0


class RoundtripLarge:
    name = "roundtrip-large"
    why = ("large recurrent configs through config, tableau bounds, word, tree "
           "and back: the tableau route does nearly all the work")
    # The j-th configuration of a shape has 1 + j*n/m grains. The cost of
    # an op varies several-fold between configurations, so a run should
    # see many distinct ones: m is more than a run at this commit uses.
    configs_per_shape = 128
    trace_ops = 10

    def __init__(self, ew, seed):
        rng = random.Random(seed)
        self.ew = ew
        diagrams = [ew.diagrams.FerrersDiagram(p) for p in FAMILIES]
        m = self.configs_per_shape
        bits = m.bit_length() - 1
        # Grain counts in bit-reversed order, so that every prefix of the
        # sequence spreads them as evenly as the whole does.
        self.inputs = []
        for k in range(m):
            j = _bit_reverse(k, bits)
            self.inputs += [(d, _recurrent(ew, d, rng, 1 + j * d.n // m)) for d in diagrams]
        self.cycle = len(diagrams)

    def fingerprint(self):
        return [(d.parts, c) for d, c in self.inputs]

    def reset(self):
        pass

    def op(self, i):
        ew = self.ew
        d, c = self.inputs[i % len(self.inputs)]
        t, deco = ew.tableaux.decorated_from_config(d, c)
        bounds = ew.tableaux.canonical_bounds(t)
        if not all(a < b for a, b in zip(deco, bounds)):
            raise WrongResult("decoration of %r is not below its canonical bounds" % (c,))
        word = ew.permutations.from_tableau(t)
        parents = ew.trees.perm_to_tree(word, deco)
        if ew.trees.tree_to_perm(parents) != (word, deco):
            raise WrongResult("tree round trip changed %r" % (word,))
        if ew.permutations.config_from_decorated(word, deco) != (d, c):
            raise WrongResult("word round trip changed %r" % (c,))
        if ew.trees.bfs_levels(parents) != ew.sandpile.canonical_toppling(d, c):
            raise WrongResult("tree levels differ from the avalanche of %r" % (c,))


class GrainWalk:
    name = "grain-walk"
    why = ("seeded grain bursts stabilized on the graph and on the decorated "
           "word: both stabilizers do nearly all the work, tableaux none")
    bursts_per_shape = 256
    trace_ops = 100

    def __init__(self, ew, seed):
        rng = random.Random(seed)
        self.ew = ew
        self.diagrams = [ew.diagrams.FerrersDiagram(p) for p in FAMILIES]
        self.start = []
        self.bursts = []
        for d in self.diagrams:
            c = _recurrent(ew, d, rng, rng.randint(1, d.n))
            word, deco = ew.permutations.decorated_from_config(d, c)
            self.start.append((c, word, deco))
            # The cost of an op grows steeply with its burst's size, so
            # sizes run evenly over 1..n, in bit-reversed order so that
            # every prefix of the sequence spreads them as the whole does.
            b = self.bursts_per_shape
            bits = b.bit_length() - 1
            self.bursts.append([
                tuple(rng.randint(1, d.n) for _ in range(1 + _bit_reverse(k, bits) * d.n // b))
                for k in range(b)
            ])
        self.cycle = len(self.diagrams)
        self.reset()

    def fingerprint(self):
        return [self.start, self.bursts]

    def reset(self):
        self.state = list(self.start)

    def op(self, i):
        ew = self.ew
        k = i % len(self.diagrams)
        d = self.diagrams[k]
        burst = self.bursts[k][(i // len(self.diagrams)) % self.bursts_per_shape]
        c, word, deco = self.state[k]
        c2, _counts = ew.sandpile.stabilize(d, _add(c, burst))
        word2, deco2 = ew.permutations.stabilize(word, _add(deco, burst))
        if (word2, deco2) != ew.permutations.decorated_from_config(d, c2):
            raise WrongResult("graph and word stabilization differ on %r + %r" % (c, burst))
        self.state[k] = (c2, word2, deco2)


class CertifySmall:
    name = "certify-small"
    why = ("certify_shape on all 63 shapes of semiperimeter 2..7: brute-force "
           "oracles and per-call overhead on tiny graphs")
    max_semiperimeter = 7
    trace_ops = 16

    def __init__(self, ew, seed):
        rng = random.Random(seed)
        self.ew = ew
        top = self.max_semiperimeter
        classes = {
            m: sorted(ew.diagrams.enumerate_diagrams(m),
                      key=lambda d: (stable_count(d.parts), d.parts))
            for m in range(2, top + 1)
        }
        # Position i = (2j+1) * 2**z holds the j-th shape of semiperimeter
        # top - z, and j walks each class in bit-reversed cost order, so
        # every stretch of the cycle mixes sizes as the whole cycle does.
        order = []
        for i in range(1, 2 ** (top - 1)):
            z = (i & -i).bit_length() - 1
            m = top - z
            order.append(classes[m][_bit_reverse(i >> (z + 1), m - 2)])
        offset = rng.randrange(len(order))
        self.shapes = order[offset:] + order[:offset]
        self.seeds = [rng.randrange(2**31) for _ in self.shapes]
        self.cycle = len(self.shapes)

    def fingerprint(self):
        return [(d.parts, s) for d, s in zip(self.shapes, self.seeds)]

    def reset(self):
        pass

    def op(self, i):
        k = i % len(self.shapes)
        report = self.ew.oracles.certify_shape(self.shapes[k], seed=self.seeds[k])
        if not report["pass"]:
            bad = [p["name"] for p in report["properties"] if not p["pass"]]
            raise WrongResult("certify %r failed: %s" % (self.shapes[k].parts, bad))


def _random_shape(rng, max_rows, max_width):
    width = rng.randint(1, max_width)
    rest = sorted((rng.randint(1, width) for _ in range(rng.randint(0, max_rows - 1))),
                  reverse=True)
    return (width,) + tuple(rest)


class CliMix:
    name = "cli-mix"
    why = ("equal requests per subcommand, half text half json, output parsed "
           "back; stabilize shapes alternate below and beyond the oracle budget")
    # A round is made of blocks. Every block holds two requests of each of
    # the five subcommands, one in text and one in json: the two stabilize
    # requests are one input sent --via graph and --via perm. Blocks
    # alternate a stabilize shape below the oracle budget with one beyond
    # it. Requests are shuffled within a block only, so any window of the
    # round holds close to the same mix.
    blocks = 30
    certify_shapes = 15  # every shape of semiperimeter 2..5
    # A timed run is a fixed number of rounds, not a fixed time, because
    # the refusals it counts must repeat exactly: about --seconds / round_s
    # rounds, round_s being the seconds a round took at this commit on a
    # 2-vCPU x86-64 host.
    round_s = 3.8
    trace_ops = None  # one whole round

    def __init__(self, ew, seed):
        rng = random.Random(seed)
        self.ew = ew
        ser = ew.serialize
        kinds = ("config", "tableau", "perm", "tree")
        enum_kinds = ("stable", "recurrent", "minimal", "tableaux", "decorated")
        small = [d.parts for m in range(2, 6) for d in ew.diagrams.enumerate_diagrams(m)]
        assert len(small) == self.certify_shapes

        def shape_text(parts):
            return ",".join(str(p) for p in parts)

        def graph(fmt):
            parts = rng.choice(FAMILIES[:3] + (_random_shape(rng, 8, 10),))
            return [("graph", ["graph", "--shape", shape_text(parts), "--format", fmt], parts)]

        def convert(fmt):
            parts = rng.choice(FAMILIES[:2] + (_random_shape(rng, 6, 7),) * 3)
            d = ew.diagrams.FerrersDiagram(parts)
            c = _recurrent(ew, d, rng, rng.randint(1, d.n))
            word, deco = ew.permutations.decorated_from_config(d, c)
            t = ew.permutations.to_tableau(word)
            parents = ew.trees.perm_to_tree(word, deco)
            value = {"config": c, "tableau": t, "perm": word, "tree": parents}
            text = {
                "config": ser.config_to_text(c),
                "tableau": ser.tableau_to_text(t, deco),
                "perm": ser.perm_to_text(word, deco),
                "tree": ser.tree_to_text(parents),
            }
            src, dst = rng.sample(kinds, 2)
            argv = ["convert", "--from", src, "--to", dst, "--data", text[src],
                    "--format", fmt]
            if src == "config":
                argv += ["--shape", shape_text(parts)]
            return [("convert", argv, (d, dst, value[dst], deco))]

        def stabilize(fmts, beyond, pair):
            if beyond:
                parts = rng.choice(FAMILIES[:3] + (CLI_BEYOND_BUDGET,))
            else:
                # The perm route scans the stable configurations for a
                # dominated minimal one; a cap keeps that scan near the
                # cost of a certify request.
                parts = _random_shape(rng, 5, 5)
                while stable_count(parts) > 2000:
                    parts = _random_shape(rng, 5, 5)
            d = ew.diagrams.FerrersDiagram(parts)
            base = ["stabilize", "--shape", shape_text(parts),
                    "--heights", ser.config_to_text(_unstable(ew, d, rng))]
            return [("stabilize", base + ["--format", fmts[0]], (parts, pair, "graph")),
                    ("stabilize", base + ["--format", fmts[1], "--via", "perm"],
                     (parts, pair, "perm"))]

        def enumerate_(fmt):
            parts = _random_shape(rng, 4, 4)
            while stable_count(parts) > 500:
                parts = _random_shape(rng, 4, 4)
            kind = rng.choice(enum_kinds)
            return [("enumerate", ["enumerate", "--shape", shape_text(parts),
                                   "--kind", kind, "--format", fmt], (parts, kind))]

        def certify(fmt, k):
            parts = small[k % len(small)]
            return [("certify", ["certify", "--shape", shape_text(parts), "--seed",
                                 str(rng.randrange(1000)), "--format", fmt], parts)]

        self.round = []
        for b in range(self.blocks):
            fmts = ["text", "json"]
            units = []
            for make in (graph, convert, enumerate_):
                rng.shuffle(fmts)
                units += [make(fmts[0]), make(fmts[1])]
            rng.shuffle(fmts)
            units += [certify(fmts[0], 2 * b), certify(fmts[1], 2 * b + 1)]
            rng.shuffle(fmts)
            units.append(stabilize(fmts, b % 2 == 1, b))
            rng.shuffle(units)
            self.round += [request for unit in units for request in unit]
        self.trace_ops = self.cycle = len(self.round)
        self.reset()

    def fingerprint(self):
        return [argv for _kind, argv, _expect in self.round]

    def reset(self):
        self.graph_heights = {}

    def op(self, i):
        kind, argv, expect = self.round[i % len(self.round)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ew.cli.main(list(argv))
        if code != 0:
            error = Refused if code == REFUSED_EXIT else WrongResult
            raise error("exit %d on %s: %s" % (code, " ".join(argv), err.getvalue().strip()))
        check = getattr(self, "_check_" + kind)
        check(argv, out.getvalue(), expect)

    # -- output checks: everything the CLI prints must parse back ----------

    def _fields(self, text):
        return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)

    def _check_graph(self, argv, out, parts):
        ser = self.ew.serialize
        if "json" in argv:
            obj = json.loads(out)
            shape, trees = ser.parse_shape(json.dumps({"parts": obj["shape"]})), obj["spanning_trees"]
        else:
            fields = self._fields(out)
            shape, trees = ser.parse_shape(fields["shape"]), int(fields["spanning-trees"])
        if shape.parts != parts or trees != spanning_trees(parts):
            raise WrongResult("graph %r: %d spanning trees" % (parts, trees))

    def _check_convert(self, argv, out, expect):
        ser = self.ew.serialize
        d, dst, value, deco = expect
        if dst == "config":
            got = ser.parse_config(out, d)[1]
        elif dst == "tableau":
            t, got_deco = ser.parse_tableau(out)
            got = t if (got_deco or (0,) * d.n) == deco else None
        elif dst == "perm":
            word, got_deco = ser.parse_perm(out)
            got = word if got_deco == deco else None
        else:
            got = ser.parse_tree(out)
        if got != value:
            raise WrongResult("%s: got %r" % (" ".join(argv), out.strip()))

    def _check_stabilize(self, argv, out, expect):
        ew = self.ew
        parts, pair, via = expect
        d = ew.diagrams.FerrersDiagram(parts)
        if "json" in argv:
            obj = json.loads(out)
            heights = tuple(obj["heights"])
        else:
            fields = self._fields(out)
            heights = ew.serialize.parse_config(fields["heights"], d)[1]
        if via == "graph":
            self.graph_heights[pair] = heights
            return
        word, deco = ew.serialize.parse_perm(out if "json" in argv else fields["perm"])
        if ew.permutations.config_from_decorated(word, deco) != (d, heights):
            raise WrongResult("%s: word does not encode the heights" % " ".join(argv))
        if self.graph_heights.get(pair) != heights:
            raise WrongResult("%s: --via perm differs from --via graph" % " ".join(argv))

    def _check_enumerate(self, argv, out, expect):
        ser = self.ew.serialize
        parts, kind = expect
        d = self.ew.diagrams.FerrersDiagram(parts)
        lines = out.splitlines()
        *items, last = lines
        count = json.loads(last)["count"] if "json" in argv else int(last.split(": ")[1])
        for line in items:
            if kind in ("tableaux", "decorated"):
                ser.parse_tableau(line)
            else:
                ser.parse_config(line, d)
        wanted = {"stable": stable_count(parts), "recurrent": spanning_trees(parts),
                  "decorated": spanning_trees(parts)}.get(kind, len(items))
        if count != len(items) or count != wanted:
            raise WrongResult("%s: %d items, count %d" % (" ".join(argv), len(items), count))

    def _check_certify(self, argv, out, parts):
        if "json" in argv:
            report = json.loads(out)
            ok = report["pass"] and tuple(report["shape"]) == parts
        else:
            ok = out.startswith("PASS ") and out.endswith("certified 1 shapes, 0 failing\n")
        if not ok:
            raise WrongResult("%s: %s" % (" ".join(argv), out.strip()))


WORKLOADS = {w.name: w for w in (RoundtripLarge, GrainWalk, CertifySmall, CliMix)}
