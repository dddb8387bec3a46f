"""Span tracer that measures the setmeans modules from outside.

``Tracer.install`` replaces every public function of the nine library
modules, at every module binding that holds it (``setmeans.classify.mean_of``
as well as ``setmeans.means.mean_of``), with a wrapper that records a span:
function, start, end, parent span and operation.  Calls inside a module go
through the same wrappers, because Python looks module globals up at call
time.  Nothing under ``src/`` is changed; ``uninstall`` puts the original
functions back.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans of its module's functions.
Spans are kept in flat arrays and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "setmeans"
#: the layers, named after the modules: L4 cli, dsl, L3 verdicts, L2, L1, L0
LAYERS = ("cli", "dsl", "classify", "weigh", "roundness", "laws", "means", "sets", "blocks")

#: one-line helpers called inside every block or expression constructor;
#: a span would cost more than the call, so their time stays with the caller
UNWRAPPED = frozenset({
    "blocks.as_q", "blocks.block_rank", "blocks.block_sort_key",
    "blocks.is_infinite_block",
})


class Tracer:
    def __init__(self):
        self.fnames: list[str] = []  # function id -> "layer.name"
        self._fid: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: calls per (binding layer, function name)
        self.binding_calls: Counter = Counter()
        # spans, one entry each
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []
        self.op = -1
        # waste counters, exact and deterministic
        self._seen_mean: set = set()
        self._seen_derived: set = set()
        self.mean_of_repeats = 0
        self.derived_repeats = 0
        self.iso_undefined = 0
        self.outer_points = 0
        #: time spent in the repeat counters themselves
        self.counter_ns = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {lay: importlib.import_module(f"{PACKAGE}.{lay}") for lay in LAYERS}
        for binding, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{PACKAGE}.{owner}" or owner not in modules:
                    continue
                fname = f"{owner}.{obj.__name__}"
                if fname in UNWRAPPED:
                    continue
                self._patched.append((mod, name, obj))
                setattr(mod, name, self._wrap(obj, fname, binding))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def begin_op(self, index: int):
        """Start a new operation: later spans carry its index."""
        self.op = index
        self._seen_mean.clear()
        self._seen_derived.clear()

    def _function_id(self, fname: str) -> int:
        fid = self._fid.get(fname)
        if fid is None:
            fid = self._fid[fname] = len(self.fnames)
            self.fnames.append(fname)
            self.self_ns.append(0)
            self.calls.append(0)
        return fid

    def _wrap(self, fn, fname: str, binding: str):
        fid = self._function_id(fname)
        key = (binding, fname)
        before = after = None
        if fname == "means.mean_of":
            before = self._note_mean_of
        elif fname == "sets.derived_set":
            before = self._note_derived
        elif fname == "means.mean_iso":
            after = self._note_iso
        elif fname in ("blocks.geomseq_outer_points", "blocks.tower_outer_points"):
            after = self._note_points
        stack, self_ns, calls, bcalls = self._stack, self.self_ns, self.calls, self.binding_calls
        span_fn, span_parent, span_op = self.span_fn, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                # the repeat counters hash the argument; that cost is the
                # tracer's own, kept out of the caller's self time
                t_hook = perf_counter_ns()
                before(args, kwargs)
                hook = perf_counter_ns() - t_hook
                tracer.counter_ns += hook
                if stack:
                    stack[-1][1] += hook
            idx = len(span_fn)
            frame = [idx, 0]
            span_fn.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(tracer.op)
            span_end.append(0)
            stack.append(frame)
            start = perf_counter_ns()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span_end[idx] = end
                dur = end - start
                self_ns[fid] += dur - frame[1]
                calls[fid] += 1
                bcalls[key] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _note_mean_of(self, args, kwargs):
        h = args[0] if args else kwargs["h"]
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        key = (h, str(getattr(kind, "value", kind)))
        if key in self._seen_mean:
            self.mean_of_repeats += 1
        else:
            self._seen_mean.add(key)

    def _note_derived(self, args, kwargs):
        h = args[0] if args else kwargs["h"]
        if h in self._seen_derived:
            self.derived_repeats += 1
        else:
            self._seen_derived.add(h)

    def _note_iso(self, result):
        if result.status == "undefined":
            self.iso_undefined += 1

    def _note_points(self, result):
        self.outer_points += len(result)

    # -- results -----------------------------------------------------------

    def fn_calls(self, fname: str) -> int:
        fid = self._fid.get(fname)
        return 0 if fid is None else self.calls[fid]

    def fn_self_ns(self, fname: str) -> int:
        fid = self._fid.get(fname)
        return 0 if fid is None else self.self_ns[fid]

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for fname, ns in zip(self.fnames, self.self_ns):
            out[fname.partition(".")[0]] += ns
        return out

    def dump(self, path: Path):
        """Write the spans: a JSON index plus the raw arrays beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {"fn": self.span_fn, "parent": self.span_parent, "op": self.span_op,
                  "start_ns": self.span_start, "end_ns": self.span_end}
        index = {"functions": self.fnames, "spans": len(self.span_fn), "arrays": {}}
        with open(path.with_suffix(".bin"), "wb") as f:
            for name, arr in arrays.items():
                index["arrays"][name] = {"typecode": arr.typecode, "offset": f.tell(),
                                         "count": len(arr)}
                arr.tofile(f)
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
