"""Span tracing of the fastssc layers from outside the library.

The library looks up its module-level names when a call is made, so every
call into a layer can be timed by rebinding those names (for example
``fastssc.fast.f_min_sum``, which ``fastssc.reference`` defines and
``fastssc.fast`` imports) to wrappers, and restoring them afterwards.

Each call records one span: name, parent span, thread, wall start and end,
thread-CPU time and the number of frames it was handed.  Spans live in
per-thread buffers in memory and are merged when the traced block ends.
A span opened on a worker thread with nothing open on that thread is the
child of the innermost span open on the thread that started tracing (a
``sim._run_chunk`` running in the pool is a child of ``sim.run_point``).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "sim", "core", "quant", "reference", "fast", "hw")

# Functions traced in each layer; a span's layer is the module that defines
# the function.  A name that a later version of the library drops is skipped.
TRACED = {
    "cli": ("main", "build_parser", "cmd_ber"),
    "sim": ("run_ber_sweep", "run_point", "make_decoder", "_run_chunk",
            "draw_messages_and_noise", "awgn_llr"),
    "core": ("construct_code", "read_frozen_file", "write_frozen_file", "encode",
             "polar_transform"),
    "quant": ("quantize_channel", "sat_add", "validate_quantized"),
    "reference": ("prepare_llr", "f_min_sum", "g_function", "combine_beta",
                  "hard_decision", "sc_decode"),
    "fast": ("classify_tree", "classified", "fast_ssc_decode", "decode_rate1",
             "decode_rep", "decode_spc", "fold_argmin", "_rate1_tie_risk",
             "_spc_tie_risk", "latency_model"),
    "hw": ("hw_decode_frame", "spc_hw_decode", "rep_hw_decode", "_scalarize"),
}

# Positional argument whose leading dimension is the number of frames a call
# was handed (recorded as the span's ``rows``).
ROWS_ARG = {
    "reference.sc_decode": 1,
    "fast.decode_rate1": 0,
    "fast.decode_spc": 0,
}


@contextlib.contextmanager
def rebinding(modules, replacements):
    """Rebind every attribute of ``modules`` that is a key of ``replacements``.

    ``replacements`` maps original objects to their stand-ins.  Every rebound
    attribute is restored on exit, also when the block raises.
    """
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    saved = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def _rows(args, index):
    if index is None or len(args) <= index:
        return 0
    shape = np.shape(args[index])
    return shape[0] if len(shape) > 1 else 1


class _Buffer:
    """Spans of one thread; ``stack`` holds the indices of open spans."""

    def __init__(self, slot):
        self.slot = slot
        self.name = array("q")
        self.parent = array("q")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.stack = []


class Tracer:
    """Times every call into the traced functions of the given modules.

    ``modules`` maps a layer name to its module.
    """

    def __init__(self, modules):
        self.modules = dict(modules)
        self.names = []
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _parent(self, buf):
        if buf.stack:
            return (buf.slot << 32) | buf.stack[-1]
        root = self._root
        if root is None or root is buf:
            return -1
        try:
            return (root.slot << 32) | root.stack[-1]
        except IndexError:  # the root thread has no span open
            return -1

    def _wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        rows_arg = ROWS_ARG.get(name)
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            i = len(buf.start)
            buf.name.append(index)
            buf.parent.append(self._parent(buf))
            buf.rows.append(_rows(args, rows_arg))
            buf.end.append(0.0)
            buf.cpu.append(0.0)
            buf.stack.append(i)
            c0 = cpu()
            t0 = perf()
            buf.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = perf()
                buf.cpu[i] = cpu() - c0
                buf.stack.pop()

        return traced

    @contextlib.contextmanager
    def active(self):
        """Trace calls made inside the block; restore every name on exit."""
        self._root = self._buffer()
        replacements = {}
        for layer, mod in self.modules.items():
            for fname in TRACED.get(layer, ()):
                fn = getattr(mod, fname, None)
                if callable(fn) and fn not in replacements:
                    replacements[fn] = self._wrap(fn, f"{layer}.{fname}")
        with rebinding(self.modules.values(), replacements):
            yield self

    def spans(self):
        """All recorded spans as parallel numpy arrays.

        ``parent`` indexes the same arrays (-1 for none) and ``thread`` is a
        per-thread slot number.
        """
        bufs = self._buffers
        sizes = np.array([len(b.start) for b in bufs], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.empty(0, dtype)

        ref = cat("parent", np.int64)
        parent = np.full(ref.shape, -1, dtype=np.int64)
        has = ref >= 0
        parent[has] = offsets[ref[has] >> 32] + (ref[has] & 0xFFFFFFFF)
        return {
            "name": cat("name", np.int64),
            "parent": parent,
            "thread": np.repeat(np.arange(len(bufs)), sizes),
            "start": cat("start", np.float64),
            "end": cat("end", np.float64),
            "cpu": cat("cpu", np.float64),
            "rows": cat("rows", np.int64),
        }


def _union_length(starts, ends, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for s, e in sorted(zip(np.clip(starts, lo, hi), np.clip(ends, lo, hi))):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered


def self_times(start, end, parent, thread):
    """Each span's duration minus the part of it that its children cover.

    Children on the parent's own thread never overlap, so their durations
    add up.  Where any child ran on another thread (pool workers under
    ``run_point``), the union of all the children's intervals is taken.
    """
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent, thread = np.asarray(parent), np.asarray(thread)
    dur = end - start
    covered = np.zeros(len(dur))
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    mixed = np.zeros(len(dur), dtype=bool)
    mixed[par[thread[child] != thread[par]]] = True
    simple = ~mixed[par]
    np.add.at(covered, par[simple], dur[child[simple]])
    for p in np.flatnonzero(mixed):
        kids = child[par == p]
        covered[p] = _union_length(start[kids], end[kids], start[p], end[p])
    return dur - covered


class SpanTable:
    """Per-name and per-(parent name, name) totals of a traced run."""

    def __init__(self, spans, names):
        self.names = list(names)
        k = len(self.names)
        name = spans["name"]
        dur = spans["end"] - spans["start"]
        own = self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
        self.total = len(name)

        def per_name(weights=None):
            return np.bincount(name, weights=weights, minlength=k)

        self.calls = per_name()
        self.wall = per_name(dur)
        self.cpu = per_name(spans["cpu"])
        self.own = per_name(own)
        pname = np.where(spans["parent"] >= 0, name[np.maximum(spans["parent"], 0)], k)
        pair = pname * (k + 1) + name
        self._pair_calls = np.bincount(pair, minlength=(k + 1) * (k + 1))
        self._pair_rows = np.bincount(pair, weights=spans["rows"], minlength=(k + 1) * (k + 1))
        self._index = {n: i for i, n in enumerate(self.names)}

    def _get(self, arr, name):
        i = self._index.get(name)
        return 0.0 if i is None else float(arr[i])

    def n_calls(self, name):
        return self._get(self.calls, name)

    def wall_s(self, name):
        return self._get(self.wall, name)

    def cpu_s(self, name):
        return self._get(self.cpu, name)

    def wait_s(self, name):
        """Wall minus thread-CPU seconds: time the calls spent off the CPU."""
        return self._get(self.wall, name) - self._get(self.cpu, name)

    def self_s(self, name):
        return self._get(self.own, name)

    def layer_self_s(self, layer):
        return float(sum(self.own[i] for n, i in self._index.items()
                         if n.split(".", 1)[0] == layer))

    def _pair(self, arr, parent, name):
        p, c = self._index.get(parent), self._index.get(name)
        if p is None or c is None:
            return 0.0
        return float(arr[p * (len(self.names) + 1) + c])

    def calls_under(self, parent, name):
        """Calls of ``name`` made directly from ``parent``."""
        return self._pair(self._pair_calls, parent, name)

    def rows_under(self, parent, name):
        """Frames handed to ``name`` by direct calls from ``parent``."""
        return self._pair(self._pair_rows, parent, name)
