"""In-memory span tracer for the benchmark's traced runs.

A span is (name, start, end, parent, trial, thread).  Spans are kept in
flat arrays while an operation runs and written out once it is over.
Wrappers installed by :func:`patched` open a span around each call of a
layer's public function; they replace the function at the name where
callers look it up, because ``from .x import y`` binds a copy of ``y``
into the importing module.
"""

from __future__ import annotations

import gzip
import threading
import time
from array import array
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """Span store for one traced operation.

    Span ids are indices into the column arrays.  A span opened on a
    thread with no open span of its own (a trial on the pool) gets the
    innermost open span of the main thread as parent.  ``trial`` is
    inherited from the parent unless given.
    """

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.thread = array("q")
        self._lock = threading.Lock()
        self._stacks = {}
        self._threads = {}
        self._main = threading.main_thread().ident

    def open(self, name, trial=None):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and ident != self._main else NO_PARENT
        with self._lock:
            sid = len(self.names)
            if trial is None:
                trial = self.trial[parent] if parent != NO_PARENT else -1
            self.names.append(name)
            self.parent.append(parent)
            self.trial.append(trial)
            self.thread.append(self._threads.setdefault(ident, len(self._threads)))
            self.end.append(float("nan"))
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, fn, name, trial_of=None, on_result=None):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            sid = self.open(name, None if trial_of is None else trial_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        return self_times(self.start, self.end, self.parent)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        out = {}
        spans = zip(self.names, self.start, self.end, self.self_times())
        for name, start, end, own in spans:
            calls, total, self_total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_total + own)
        return out

    def write_csv(self, fh, workload, op):
        own = self.self_times()
        for sid, name in enumerate(self.names):
            fh.write(
                f"{workload},{op},{sid},{name},{self.start[sid]!r},"
                f"{self.end[sid]!r},{self.parent[sid]},{self.trial[sid]},"
                f"{self.thread[sid]},{own[sid]!r}\n"
            )


SPAN_CSV_HEADER = "workload,op,span,name,start,end,parent,trial,thread,self_s\n"


def write_spans(path, workload, tracers):
    """Write the spans of several traced operations as gzipped CSV."""
    with gzip.open(path, "wt") as fh:
        fh.write(SPAN_CSV_HEADER)
        for op, tracer in enumerate(tracers):
            tracer.write_csv(fh, workload, op)


def self_times(start, end, parent):
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (trials on a pool), so the covered
    part is the length of the union of the child intervals, clipped to
    the parent's interval.
    """
    children = {}
    for sid, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append((start[sid], end[sid]))
    out = [end[sid] - start[sid] for sid in range(len(start))]
    for p, spans in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(spans):
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


@contextmanager
def patched(replacements):
    """Install ``(owner, attr, replacement)`` triples; restore on exit.

    Only attributes an owner defines itself may be patched, so restoring
    puts back exactly the object that was there.
    """
    saved = []
    try:
        for owner, attr, replacement in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
