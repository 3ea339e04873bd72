"""One fresh interpreter of a benchmark run.

    python3 child.py MODE WORKLOAD SEED SECONDS TRACE OUT_JSON [ROUNDS]

Imports ringcond and sets up the workload (sieve; for the transforms the
bench-prime search and make_context tables), then prints "ready" so the
parent can time set-up.  MODE "setup" stops there.  MODE "run" then times
whole rounds of the workload until SECONDS of timed work have passed (or
exactly ROUNDS rounds when given), checks each item outside the timed
region, and writes what happened to OUT_JSON.  With TRACE 1 every public
boundary the workload crosses is recorded as a span.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time

import workloads as wl
from oracles import crt
from probe import REF_SECONDS, probe

_clock = time.perf_counter
PROBE_EVERY = 0.05   # seconds of timed work between probes (and at every round's end)


class Run:
    """What one interpreter measured and checked."""

    def __init__(self, workload, seed, rec):
        self.w, self.seed, self.rec = workload, seed, rec
        self.failures = []
        self.failed = 0
        self.items = []          # (items, wall s, reference s) per timed call
        self.pending = []        # timed calls not yet bracketed by a probe
        self.last_probe = self.last_dt = 0.0
        self.windows = []        # sweeps: [lo, hi, exit code] per cond call
        self.counts = {}         # ring: counted multiplications per item
        self.swap_ms = {}        # ring-swap: wall ms per round trip, by transform
        self.digests = {}
        self.digest = ""
        self.q = None

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def phase(self, name):
        if self.rec:
            self.rec.phase = name

    def measure(self, n: int, fn):
        """Time fn() as work worth n items."""
        self.phase("work")
        t0 = _clock()
        out = fn()
        self.last_dt = dt = _clock() - t0
        self.phase("other")
        self.pending.append([n, dt])
        if sum(d for _, d in self.pending) >= PROBE_EVERY:
            self.flush()
        return out

    def flush(self):
        """Probe the machine and convert the pending items to reference
        seconds, using the mean of the probes before and after them."""
        if self.pending:
            before, self.last_probe = self.last_probe, probe(self.w.probe)
            scale = REF_SECONDS[self.w.probe] * 2 / (before + self.last_probe)
            self.items += [(n, dt, dt * scale) for n, dt in self.pending]
            self.pending = []


# ---------------------------------------------------------------------------
# set-up

def split_primes(count: int, m_total: int, quad_d, q_bits: int) -> list:
    """The `count` smallest primes q = 1 mod 2 m_total above 2^(q_bits-1)
    with every d_i a square mod q; count 1 gives the modulus ringcond bench
    picks, by the same rule."""
    from ringcond.numtheory import is_prime
    step = 2 * m_total
    q = (((1 << (q_bits - 1)) // step) + 1) * step + 1
    out = []
    while len(out) < count:
        if is_prime(q) and all(pow(d, (q - 1) // 2, q) == 1 for d in quad_d):
            out.append(q)
        q += step
    return out


def setup(run: Run):
    from ringcond import numtheory, ringarith
    caches = [f for mod in list(sys.modules.values())
              if getattr(mod, "__name__", "").startswith("ringcond")
              for f in vars(mod).values() if hasattr(f, "cache_clear")]
    if run.rec:
        with run.rec.span("numtheory.sieve"):
            numtheory.factorize(2)
        import tracing
        tracing.install(run.rec)
    else:
        numtheory.factorize(2)
    run.clear_caches = lambda: [f.cache_clear() for f in caches]
    name = run.w.name
    if name == "ring-swap":
        quad = tuple(numtheory.first_primes(wl.SWAP_R, exclude=(2,)))
        m = wl.SWAP_MCYCLO << wl.SWAP_R
        q, = split_primes(1, m, quad, wl.Q_BITS)
        run.ctxs = {"ntt": ringarith.make_context(q, m, ()),
                    "hybrid": ringarith.make_context(q, wl.SWAP_MCYCLO, quad)}
    elif name == "ring-rns":
        odd = numtheory.first_primes(max(wl.RNS_R), exclude=(2,))
        moduli = split_primes(wl.RNS_LIMBS, max(wl.RNS_MCYCLO), odd, wl.Q_BITS)
        run.rns = {(mc, r): ringarith.make_rns_context(moduli, mc, odd[:r])
                   for mc in wl.RNS_MCYCLO for r in wl.RNS_R}


# ---------------------------------------------------------------------------
# workloads: each yields rounds of items; an item runs timed, then is checked

def _transform_muls(ctx):
    """Closed-form multiplication counts (forward, inverse) of one transform."""
    kind = "ntt" if ctx.r == 0 else "hybrid"
    return tuple(wl.closed_muls(f"{kind}_{way}", ctx.m, ctx.m_cyclo)
                 for way in ("forward", "inverse"))


def _transforms(ctx):
    from ringcond import ringarith as ra
    if ctx.r == 0:
        return ra.ntt_forward, ra.ntt_inverse
    return ra.hybrid_forward, ra.hybrid_inverse


def sweep_rounds(run: Run, csv_out):
    """One round per cycle of seeded windows; an item is one `cond` call."""
    from ringcond import cli
    tmp = csv_out.name + ".tmp"
    pre = ["--precision", run.w.precision] if run.w.precision != "double" else []

    def item(lo, hi):
        argv = pre + ["cond", "--min", str(lo), "--max", str(hi),
                      "--numeric-cap", str(run.w.numeric_cap), "--out", tmp]
        run.clear_caches()
        rc = run.measure(hi - lo + 1, lambda: cli.main(argv))
        with open(tmp) as fh:
            csv_out.write(f"#window {lo} {hi} {rc}\n{fh.read()}")
        run.windows.append([lo, hi, rc])

    index = 0
    while True:
        yield [lambda w=w: item(*w) for w in wl.sweep_cycle(run.w.name, run.seed, index)]
        index += 1


def swap_rounds(run: Run, csv_out):
    """Per round, as ringcond bench: one NTT and one hybrid round trip of the
    same seeded polynomial."""
    items = []
    for kind, ctx in run.ctxs.items():
        run.q = ctx.q
        poly = ctx.poly(wl.swap_input(run.seed, ctx.q, ctx.m))
        items.append(lambda kind=kind, ctx=ctx, poly=poly: swap(run, kind, ctx, poly))
    while True:
        yield items


def swap(run: Run, kind: str, ctx, poly):
    fwd, inv = _transforms(ctx)

    def both():
        f = fwd(poly)
        return f, ctx.counter.muls, inv(f)

    c0 = ctx.counter.muls
    f, c1, back = run.measure(1, both)
    got = (c1 - c0, ctx.counter.muls - c1)
    run.counts.update({f"{kind} forward": got[0], f"{kind} inverse": got[1]})
    run.swap_ms.setdefault(kind, []).append(run.last_dt * 1e3)
    if back.values != poly.values:
        run.fail(f"{kind} round trip does not return its input")
    elif got != _transform_muls(ctx):
        run.fail(f"{kind} counted muls {got} != closed form {_transform_muls(ctx)}")
    if kind not in run.digests:
        run.digests[kind] = hashlib.sha256(repr(f.values).encode()).hexdigest()
        run.digest = hashlib.sha256("".join(sorted(run.digests.values())).encode()).hexdigest()


def rns_rounds(run: Run, csv_out):
    """Every seeded product once per round, timed as one item; the first
    round is checked against schoolbook_mul and CRT, later rounds against
    the first."""
    from ringcond import ringarith as ra
    products = wl.rns_products(run.seed)
    shapes = [run.rns[mc, r] for mc, r, _, _ in products]
    verified = {}

    def multiply():
        out = []
        for rns, (_, _, a, b) in zip(shapes, products):
            fwd, inv = _transforms(rns.contexts[0])
            la = ra.rns_decompose(a, rns)
            lb = ra.rns_decompose(b, rns)
            limbs = [inv(ra.pointwise_mul(fwd(x), fwd(y))) for x, y in zip(la, lb)]
            out.append((la, lb, limbs, ra.rns_reconstruct(limbs, rns)))
        return out

    def item():
        before = [sum(c.counter.muls for c in rns.contexts) for rns in shapes]
        results = run.measure(len(products), multiply)
        for i, (rns, (mc, r, a, _), (la, lb, limbs, out)) in enumerate(
                zip(shapes, products, results)):
            muls = sum(c.counter.muls for c in rns.contexts) - before[i]
            f, iv = _transform_muls(rns.contexts[0])
            want = len(rns.contexts) * (2 * f + (mc << r) + iv)
            run.counts[f"product {i}"] = muls
            if muls != want:
                run.fail(f"product {i}: counted muls {muls} != closed form {want}")
            elif i in verified:
                if out != verified[i]:
                    run.fail(f"product {i}: result differs from its first, verified run")
            else:
                oracle = [ra.schoolbook_mul(x, y) for x, y in zip(la, lb)]
                ok = (all(x.values == tuple(v % x.ctx.q for v in a) for x in la)
                      and all(o.values == c.values for o, c in zip(oracle, limbs))
                      and out == [crt(col, rns.moduli)
                                  for col in zip(*(o.values for o in oracle))])
                if not ok:
                    run.fail(f"product {i} (m_cyclo {mc}, r {r}) disagrees with schoolbook/CRT")
                verified[i] = out
        if not run.digest:
            run.digest = hashlib.sha256(repr(sorted(verified.items())).encode()).hexdigest()

    while True:
        yield [item]


ROUNDS = {"sweep": sweep_rounds, "ring-swap": swap_rounds, "ring-rns": rns_rounds}


def main(argv) -> int:
    mode, name, seed, seconds, trace, out_json = argv[:6]
    fixed_rounds = int(argv[6]) if len(argv) > 6 else None
    workload = wl.WORKLOADS[name]
    rec = None
    if trace == "1":
        import tracing
        rec = tracing.Recorder()
    run = Run(workload, int(seed), rec)
    setup(run)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    run.phase("other")
    rounds_gen = ROUNDS.get(name, ROUNDS.get(workload.kind))
    run.last_probe = probe(workload.probe)
    rounds = []
    with open(out_json + ".csv", "w") as csv_out:
        for batch in rounds_gen(run, csv_out):
            if fixed_rounds is None:
                if rounds and sum(dt for _, dt, _ in run.items) >= float(seconds):
                    break
            elif len(rounds) >= fixed_rounds:
                break
            first = len(run.items)
            for item in batch:
                item()
            run.flush()
            rounds.append(run.items[first:])
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:                       # provenance only; never fails a run
        blas = "unknown"
    result = {
        "items": sum(n for r in rounds for n, _, _ in r),
        "seconds": sum(dt for r in rounds for _, dt, _ in r),
        "ref_seconds": sum(ref for r in rounds for _, _, ref in r),
        "rounds": len(rounds),
        "round_rates": [sum(n for n, _, _ in r) / sum(dt for _, dt, _ in r) for r in rounds],
        "round_ref_rates": [sum(n for n, _, _ in r) / sum(ref for _, _, ref in r)
                            for r in rounds],
        "failed": run.failed, "failures": run.failures,
        "windows": run.windows, "counts": run.counts, "digest": run.digest, "q": run.q,
        "swap_ms": run.swap_ms,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "spans": rec.spans if rec else None,
    }
    with open(out_json, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
