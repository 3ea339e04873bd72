"""Span recording at ringcond's module boundaries, from outside the program.

The traced child replaces the public functions a workload calls with
wrappers that record one span each: [name, parent index, phase, start, end,
extra], where extra holds numbers taken at the boundary (operation counts,
matrix sizes).  Spans stay in memory and are written out when the run ends;
the parent turns them into per-layer figures.
"""
from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

from ringcond import cli, embeddings, formulas, linalg, numtheory, ringarith

_clock = time.perf_counter


def _series_misses():
    info = getattr(getattr(numtheory, "_radical_series", None), "cache_info", None)
    return info().misses if info else 0


def _counter(args):
    c = args[0].ctx.counter
    return c.muls, c.adds


def _ring_counts(args, out, pre):
    ctx = args[0].ctx
    return [ctx.counter.muls - pre[0], ctx.counter.adds - pre[1], ctx.m, ctx.m_cyclo]


# (span name, owner, attribute, before(args), after(args, result, before))
_TARGETS = [
    ("cli.main", cli, "main", None, None),
    ("cli.cond", cli, "cmd_cond", None,
     lambda args, out, pre: [os.path.getsize(args[0].out_path)]),
    ("numtheory.factorize", numtheory, "factorize", None, None),
    ("numtheory.height", numtheory, "height", lambda args: _series_misses(),
     lambda args, out, pre: [_series_misses() - pre]),
    ("embeddings.matrix", embeddings, "embedding_matrix", None,
     lambda args, out, pre: [out.shape[0], out.dtype.itemsize]),
    ("linalg.invert", linalg, "invert", None, lambda args, out, pre: [out.shape[0]]),
    ("linalg.frobenius", linalg, "frobenius", None, None),
    ("ringarith.make_context", ringarith, "make_context", None, None),
    ("ringarith.poly", ringarith.RingContext, "poly", None, None),
    ("ringarith.rns_decompose", ringarith, "rns_decompose", None, None),
    ("ringarith.rns_reconstruct", ringarith, "rns_reconstruct", None, None),
] + [
    ("formulas.report", formulas, attr, None,
     lambda args, out, pre: [0 if out.applicable else 1])
    for attr in ("cond_exact_prime_power", "cond_exact_twisted",
                 "cond_bound_refined", "cond_bound_general")
] + [
    (f"ringarith.{op}", ringarith, op, _counter, _ring_counts)
    for op in ("ntt_forward", "ntt_inverse", "hybrid_forward", "hybrid_inverse",
               "pointwise_mul")
]


class Recorder:
    """In-memory span list; `phase` tags spans as set-up, timed work or other."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"

    def _open(self, name):
        rec = [name, self.stack[-1] if self.stack else -1, self.phase, 0.0, 0.0, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def wrap(self, name, fn, before, after):
        def traced(*args, **kwargs):
            rec = self._open(name)
            pre = before(args) if before else None
            rec[3] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = _clock()
                self.stack.pop()
            if after:
                rec[5] = after(args, out, pre)
            return out

        return traced

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[3] = _clock()
        try:
            yield
        finally:
            rec[4] = _clock()
            self.stack.pop()


def _replace_everywhere(original, replacement):
    # a function is called under every module-level name that refers to it
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ringcond"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(rec: Recorder):
    """Route every traced boundary through the recorder."""
    for name, owner, attr, before, after in _TARGETS:
        original = getattr(owner, attr)
        wrapped = rec.wrap(name, original, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
