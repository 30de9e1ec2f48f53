"""Span tracing and call counting around actlab's public functions.

The tracer never edits actlab's source. ``install`` rebinds every public
function of every actlab module, in every actlab namespace that holds it
(``actlab.pipeline.sam_step``, ``actlab.optim.backward``, ``actlab.cli.run_adapt``
and so on), to a wrapper that records one span per call; ``uninstall`` puts the
original objects back. A wrapper only reads the clock and appends to arrays: it
never touches an argument, a result or an RNG, so traced runs train the same
bits as untraced ones.

Spans live in flat arrays (about 50 bytes each) until ``write``. Pool workers
are forked while the parent is inside ``seed_sweep``; each worker keeps its own
spans, tagged with its pid, and appends them to ``spans-<pid>.pkl`` in the
output directory whenever it returns to the depth it was forked at, so the
parent can merge them after the pool has finished.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import pickle
import sys
import time
from array import array
from pathlib import Path

MODULES = ("tensor", "losses", "optim", "models", "data", "pipeline", "config", "cli")

_FIELDS = (("sid", "q"), ("name", "i"), ("t0", "d"), ("t1", "d"),
           ("parent", "q"), ("call", "i"), ("aux", "q"))


def _empty_cols():
    return {f: array(code) for f, code in _FIELDS}


def _modules():
    import importlib
    return [importlib.import_module(f"actlab.{m}") for m in MODULES]


def public_functions():
    """{qualified name: function} for every public function defined in actlab."""
    found = {}
    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[f"{short}.{name}"] = obj
    return found


def namespaces():
    import actlab
    return [actlab] + _modules()


def rebind(replacements):
    """Bind replacements[id(obj)] at every actlab name bound to obj. Returns the undo list."""
    patches = []
    for ns in namespaces():
        for attr, obj in list(vars(ns).items()):
            new = replacements.get(id(obj))
            if new is not None:
                patches.append((ns, attr, obj))
                setattr(ns, attr, new)
    return patches


def restore(patches):
    for ns, attr, original in reversed(patches):
        setattr(ns, attr, original)


class Tracer:
    """In-memory span recorder. One instance per traced phase of a run."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names = []
        self._name_index = {}
        self.cols = _empty_cols()
        self.stack = []
        self.call = -1
        self._next = 0
        self._pid = os.getpid()
        self._fork_depth = None
        self._patches = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------------

    def _after_fork(self):
        if not self.active:
            return
        self._pid = os.getpid()
        self._next = self._pid << 32
        self._fork_depth = len(self.stack)
        self.cols = _empty_cols()

    def _flush_child(self):
        with open(self.out_dir / f"spans-{self._pid}.pkl", "ab") as f:
            pickle.dump(self.cols, f)
        self.cols = _empty_cols()

    def merge_children(self):
        """Fold the span files written by forked workers into this tracer."""
        for path in sorted(self.out_dir.glob("spans-*.pkl")):
            with open(path, "rb") as f:
                while True:
                    try:
                        block = pickle.load(f)
                    except EOFError:
                        break
                    for field, col in block.items():
                        self.cols[field].extend(col)
            path.unlink()

    def _name_id(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, qualname):
        idx = self._name_id(qualname)
        stack, clock, tracer = self.stack, time.perf_counter, self
        aux_of = _AUX.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                c = tracer.cols
                c["sid"].append(sid)
                c["name"].append(idx)
                c["t0"].append(t0)
                c["t1"].append(t1)
                c["parent"].append(parent)
                c["call"].append(tracer.call)
                c["aux"].append(aux_of(args, kwargs) if ok and aux_of else 0)
                if tracer._fork_depth is not None and len(stack) == tracer._fork_depth:
                    tracer._flush_child()
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def install(self):
        """Wrap every public actlab function at every name it is bound to."""
        if self.active:
            raise RuntimeError("tracer already installed")
        self._patches = rebind({id(fn): self._wrap(fn, q)
                                for q, fn in public_functions().items()})
        self.active = True

    def uninstall(self):
        restore(self._patches)
        self._patches = []
        self.active = False

    # -- output ------------------------------------------------------------------

    def spans(self):
        """Rows (sid, name, t0, t1, parent, call, aux) as Python tuples."""
        c = self.cols
        names = self.names
        return [(s, names[n], a, b, p, k, x) for s, n, a, b, p, k, x in
                zip(c["sid"], c["name"], c["t0"], c["t1"], c["parent"], c["call"], c["aux"])]

    def write(self, path: Path, workload: str, run_id: str, self_times: dict):
        """Gzip CSV, one row per span, with its self time in ms."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("workload,run_id,call,sid,parent,name,start_s,end_s,self_ms,aux\n")
            for sid, name, t0, t1, parent, call, aux in self.spans():
                f.write(f"{workload},{run_id},{call},{sid},{parent},{name},"
                        f"{t0:.9f},{t1:.9f},{self_times[sid] * 1e3:.6f},{aux}\n")


def _rows(args, kwargs):
    xs = args[0] if args else kwargs["xs"]
    return len(xs)


def _file_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# Counts recorded at the same boundary as the span (after the call returns).
_AUX = {"data.augment_batch": _rows, "models.save_checkpoint": _file_bytes}


def self_times(spans):
    """{sid: seconds} = span duration minus the union of its children's intervals.

    Union, not sum: children forked into pool workers run in parallel.
    """
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered, end = 0.0, t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


# -- exact counts ---------------------------------------------------------------


def count_python_calls(fn):
    """Number of Python-level function calls (profile 'call' events) in fn()."""
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def tape_size(root):
    """Tensors reachable from root through the tape, root and leaves included."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in getattr(todo.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def count_tape_nodes(fn):
    """Run fn() with every binding of tensor.backward first measuring its graph.

    Returns one graph size per backward call, in call order.
    """
    from actlab import tensor
    original = tensor.backward
    sizes = []

    def counting(loss):
        sizes.append(tape_size(loss))
        return original(loss)

    patches = rebind({id(original): counting})
    try:
        fn()
    finally:
        restore(patches)
    return sizes
