"""Span tracing of the ewtab layers, installed from outside the package.

`install` replaces every public function of the layer modules, and every
public method of the classes they define, with a wrapper that records a
span: name, start, end, parent span and the benchmark op that caused it.
Spans stay in memory in one flat integer array and are written out once,
at the end of the run. Nothing inside `src/ewtab` is edited; `uninstall`
puts the original objects back.

A few constant-time accessors are left unwrapped (see UNWRAPPED): they run
millions of times inside the tableau and diagram loops, so a span around
each would measure the tracer rather than the code. Their time is counted
as self time of whichever span called them.

A call that returns a generator (the oracle enumerators) gets a second
kind of span, one per `next()`, so the time spent producing each object
is charged to the enumerator and not to whoever consumes it. Objects are
counted only at the outermost iteration of a layer's generators: when
`enumerate_minimal` filters `enumerate_recurrent`, which filters
`enumerate_stable`, each object the consumer receives counts once, and
the time of that outermost `next()` is what produced it.
"""

import functools
import gzip
import inspect
import json
from array import array
from time import perf_counter_ns

LAYERS = (
    "diagrams",
    "sandpile",
    "tableaux",
    "permutations",
    "trees",
    "oracles",
    "serialize",
    "cli",
)

UNWRAPPED = {
    ("FerrersDiagram", "is_row"),
    ("FerrersDiagram", "is_col"),
    ("FerrersDiagram", "row_index"),
    ("FerrersDiagram", "col_index"),
    ("FerrersDiagram", "col_height"),
    ("FerrersDiagram", "cell_exists"),
    ("EWTableau", "entry"),
    ("Supplementary", "entry"),
}

ROOT = "op"
CALL, NEXT = 0, 1
FIELDS = ("name", "kind", "start_ns", "end_ns", "parent", "op")
WIDTH = len(FIELDS)


class Tracer:
    """In-memory span store. Span i occupies spans[WIDTH*i : WIDTH*(i+1)]."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = array("q")
        self.current = -1
        self.op = -1
        self.objects = {}  # name -> objects yielded at the outermost iteration
        self.object_ns = {}  # name -> time in those outermost next() calls
        self.iterating = {}  # layer -> generator next() calls now open
        self.results = {}  # name -> captured return values
        self.calls = {}  # name -> captured (args, kwargs)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid, kind=CALL):
        """Start a span under the current one; returns (span, parent)."""
        span = len(self.spans) // WIDTH
        parent = self.current
        self.spans.extend((nid, kind, perf_counter_ns(), 0, parent, self.op))
        self.current = span
        return span, parent

    def close(self, span, parent):
        self.spans[WIDTH * span + 3] = perf_counter_ns()
        self.current = parent

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span."""
        self.op = len(self.spans) // WIDTH
        span, parent = self.open(self.name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self.close(span, parent)
            self.op = -1

    def summary(self):
        """Per name: calls, self_ns, total_ns, over all spans so far.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because the run is single
        threaded.
        """
        s = self.spans
        count = len(s) // WIDTH
        child = [0] * count
        for i in range(count):
            parent = s[WIDTH * i + 4]
            if parent >= 0:
                child[parent] += s[WIDTH * i + 3] - s[WIDTH * i + 2]
        out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in self.names}
        for i in range(count):
            entry = out[self.names[s[WIDTH * i]]]
            duration = s[WIDTH * i + 3] - s[WIDTH * i + 2]
            entry["self_ns"] += duration - child[i]
            if s[WIDTH * i + 1] == CALL:
                entry["calls"] += 1
                entry["total_ns"] += duration
        return out

    def write(self, path, meta):
        """Write every span as gzipped JSON: field names, name table and a
        flat list of WIDTH integers per span, times relative to the first.
        The list is streamed in chunks so writing needs little memory."""
        s = self.spans
        base = s[2] if s else 0
        chunk = WIDTH * 10000
        with gzip.open(path, "wt", compresslevel=1) as f:
            head = json.dumps({"meta": meta, "fields": FIELDS, "names": self.names})
            f.write(head[:-1] + ',"spans":[')
            for lo in range(0, len(s), chunk):
                part = s[lo:lo + chunk]
                for i in range(0, len(part), WIDTH):
                    part[i + 2] -= base
                    part[i + 3] -= base
                f.write(("," if lo else "") + ",".join(map(str, part)))
            f.write("]}\n")


class _TracedIterator:
    """Iterator proxy that times every next() as its own span."""

    def __init__(self, tracer, nid, name, it):
        self._tracer = tracer
        self._nid = nid
        self._name = name
        self._layer = name.split(".", 1)[0]
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        layer = self._layer
        depth = tracer.iterating.get(layer, 0)
        tracer.iterating[layer] = depth + 1
        span, parent = tracer.open(self._nid, NEXT)
        try:
            item = next(self._it)
        finally:
            tracer.close(span, parent)
            tracer.iterating[layer] = depth
        if depth == 0:
            s = tracer.spans
            name = self._name
            tracer.objects[name] = tracer.objects.get(name, 0) + 1
            tracer.object_ns[name] = (tracer.object_ns.get(name, 0)
                                      + s[WIDTH * span + 3] - s[WIDTH * span + 2])
        return item


def _wrap(tracer, name, fn, capture_args, capture_results):
    nid = tracer.name_id(name)
    keep_args = name in capture_args
    keep_result = name in capture_results

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span, parent = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, parent)
        if keep_args:
            tracer.calls.setdefault(name, []).append((args, kwargs))
        if keep_result:
            tracer.results.setdefault(name, []).append(result)
        if inspect.isgenerator(result):
            return _TracedIterator(tracer, nid, name, result)
        return result

    return traced


def _targets(ew):
    """(owner, attribute, original, span name) for everything to wrap."""
    out = []
    for layer in LAYERS:
        module = getattr(ew, layer)
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                out.append((module, attr, value, "%s.%s" % (layer, attr)))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for meth, raw in vars(value).items():
                    if meth.startswith("_") or (value.__name__, meth) in UNWRAPPED:
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, classmethod):
                        out.append((value, meth, raw, "%s.%s" % (layer, meth)))
    return out


def install(tracer, ew, capture_args=(), capture_results=()):
    """Wrap every target, also where another ewtab module imported the
    same function object by name. Returns the undo list for uninstall."""
    undo = []
    modules = [ew.package] + [getattr(ew, layer) for layer in LAYERS]
    for owner, attr, raw, name in _targets(ew):
        if isinstance(owner, type):
            is_classmethod = isinstance(raw, classmethod)
            wrapped = _wrap(tracer, name, raw.__func__ if is_classmethod else raw,
                            capture_args, capture_results)
            undo.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            continue
        wrapped = _wrap(tracer, name, raw, capture_args, capture_results)
        for module in modules:
            for other, value in list(vars(module).items()):
                if value is raw:
                    undo.append((module, other, raw))
                    setattr(module, other, wrapped)
    return undo


def uninstall(undo):
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
