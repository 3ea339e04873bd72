"""Command-line front end: conductor sweeps, transform benchmarks, verification.

Three subcommands:

  cond    sweep a conductor range and emit one CSV row per n with the exact
          formulas, the bounds, and (under a dimension cap) numeric
          condition numbers for both bases
  bench   compare counted multiplications and wall-clock of a full-size
          negacyclic NTT against the tensor hybrid at the same dimension;
          counted_ratio divides the forward multiplication counts,
          wall_ratio the median round-trip times (ntt_swap_ms /
          hybrid_swap_ms, their trials alternating one NTT and one hybrid
          round trip); dtype names the array dtype the timed kernels
          computed in (uint64, or object for q >= 2^32)
  verify  run the cross-module invariant suites

CSV numbers use 12 significant digits; values beyond double range are
rendered from their exact integer form, so the sweep stays meaningful where
the general bound reaches 10^350.  cond takes its formula columns from
formulas.cond_columns, which evaluates them from the conductor's exact
integers, bitwise equal to the BoundReport functions that remain the
library API and its oracle.  Per call it keeps a dict of heights, keyed by
numtheory.height_kernel (the odd kernel, or a ternary kernel's Kaplan
representative), so each class's height series runs once; a row finds the
representative's primes once and hands them to the series on a miss.  It
also keeps one embeddings.FactoredCond by odd kernel, so each kernel's norm
is found once, inverting nothing: a composite kernel's by the Parseval sum,
a prime p's as (p - 1)/p exactly.  Both are dropped when the sweep ends.
All columns except the bench timing medians and their wall_ratio are
byte-deterministic for a fixed configuration.

The argument parser is built once, at import; main only parses with it and
reports errors through it, so in-process callers do not rebuild it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from decimal import Context as DecimalContext
from typing import Optional, Sequence

import numpy as np

from . import _checks, embeddings, formulas, linalg, ringarith
from .embeddings import Basis, EmbeddingSpec
from .numtheory import _height_primes, _kernel_height, factorize, first_primes, is_prime

_DEFAULT_SWEEP_LIMIT = 100_000
_TWELVE = DecimalContext(prec=12)


@dataclass(frozen=True)
class SweepConfig:
    n_min: int
    n_max: int
    omega_filter: Optional[int]      # None means any
    numeric_cap: int = 512
    out_path: str = "-"
    precision: str = "double"        # a key of linalg.PRECISIONS

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError(f"empty range [{self.n_min}, {self.n_max}]")
        if self.n_min < 1:
            raise ValueError("range must start at 1 or above")
        if not 0 <= self.numeric_cap <= embeddings.MAX_DIMENSION:
            raise ValueError(f"numeric cap must lie in [0, {embeddings.MAX_DIMENSION}]")
        if self.precision not in linalg.PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}; "
                             f"expected one of {sorted(linalg.PRECISIONS)}")


def _fmt(value, exact_int: Optional[int] = None) -> str:
    """12-significant-digit cell; empty for missing, exact-integer fallback
    when the double overflowed."""
    if value is None:
        return ""
    x = float(value)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        if exact_int is None:
            return "inf"
        return str(_TWELVE.create_decimal(exact_int)).lower()
    return f"{x:.11e}"


def _write_csv(path: str, header, rows) -> int:
    """Write a header and an iterable of rows (consumed lazily) as CSV.

    '-' streams to stdout.  A regular file is written under a temporary name
    in its own directory and renamed over `path` after the last row, so a
    sweep that fails part-way leaves no truncated CSV and any earlier file
    at `path` untouched.  An existing non-regular `path` (a device or a pipe)
    is written in place.  Returns the exit code: 2 when the output cannot be
    opened or written; any other exception propagates.
    """
    target = tmp = None
    if path != "-":
        target = os.path.realpath(path)
        if not os.path.exists(target) or os.path.isfile(target):
            tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = sys.stdout if target is None else open(tmp or target, "w", newline="")
    except OSError as exc:
        print(f"cannot open output: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        finally:
            if fh is not sys.stdout:
                fh.close()
        if tmp is not None:
            os.replace(tmp, target)
    except OSError as exc:
        _discard(tmp)
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        _discard(tmp)
        raise
    return 0


def _discard(tmp: Optional[str]):
    if tmp is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


COND_HEADER = ["n", "omega", "phi", "rad", "A_n", "exact_closed", "exact_twisted",
               "bound_refined", "bound_general_over_A", "numeric_power",
               "numeric_twisted"]


def _cond_rows(config: SweepConfig):
    # one evaluator and one height memo per sweep: the evaluator keyed by
    # the odd squarefree kernel s of n, the memo by s's height_kernel (a
    # ternary kernel's Kaplan representative, else s), so each kernel's norm
    # is summed and each class's height series run once; both are dropped
    # with the generator.  The representative's primes are found once per
    # row, for the key and, on a miss, the series
    cond = embeddings.FactoredCond(real=linalg.PRECISIONS[config.precision])
    heights = {}
    for n in range(max(config.n_min, 2), config.n_max + 1):
        c = factorize(n)
        if config.omega_filter is not None and c.omega != config.omega_filter:
            continue
        odd = _height_primes(c)
        k = math.prod(odd)
        a = heights.get(k)
        if a is None:
            a = heights[k] = _kernel_height(odd)
        # the general bound scales linearly in the height, so the
        # height-normalized column is just the bound evaluated at height 1
        closed, twisted, refined, over_a, over_a_exact = formulas.cond_columns(c)
        num_p = num_t = None
        if 0 < c.phi <= config.numeric_cap:
            num_p = cond(EmbeddingSpec(c))
            num_t = cond(EmbeddingSpec(c, basis=Basis.TWISTED))
        # an inapplicable formula gives NaN, which _fmt prints as an empty cell
        yield [
            n, c.omega, c.phi, c.rad, a,
            _fmt(closed), _fmt(twisted), _fmt(refined),
            _fmt(over_a, exact_int=over_a_exact),
            _fmt(num_p), _fmt(num_t),
        ]


def cmd_cond(config: SweepConfig) -> int:
    return _write_csv(config.out_path, COND_HEADER, _cond_rows(config))


def _bench_prime(m_total: int, quad_d: Sequence[int], q_bits: int) -> int:
    """Smallest prime above 2^(q_bits-1) splitting both rings: q = 1 mod
    2*m_total (the full-size NTT needs it; the hybrid's subgroup condition
    follows) with every d_i a residue.  It may have more than q_bits bits:
    3169320961 (32 bits) at m_total = 2^16 with 12 d_i, 20666646529 (35
    bits, so object-dtype kernels) with 13.

    The d_i are odd primes and m_total is even, as `cmd_bench` passes them,
    so every q is 1 mod 4 and quadratic reciprocity gives (d/q) = (q/d): d
    is a residue mod a prime q exactly when q mod d is a nonzero square mod
    d.  That screen runs before `is_prime` and passes about 2^-r of the
    progression; it drops no prime that the full test keeps, and the final
    `pow` check stays."""
    step = 2 * m_total
    squares = [(d, {x * x % d for x in range(1, d)}) for d in quad_d]
    q = (((1 << (q_bits - 1)) // step) + 1) * step + 1
    while q < (1 << 62):
        if (all(q % d in sq for d, sq in squares) and is_prime(q)
                and all(pow(d, (q - 1) // 2, q) == 1 for d in quad_d)):
            return q
        q += step
    raise ValueError(f"no suitable prime below 2^62 for m={m_total}, qbits={q_bits}")


BENCH_HEADER = ["m_cyclo", "r", "m_total", "q", "dtype",
                "ntt_fwd_muls", "ntt_fwd_adds", "ntt_inv_muls", "ntt_inv_adds",
                "hybrid_fwd_muls", "hybrid_fwd_adds", "hybrid_inv_muls",
                "hybrid_inv_adds", "counted_ratio", "asymptotic_ratio",
                "ntt_swap_ms", "hybrid_swap_ms", "wall_ratio"]


def _timed_swaps(polys, trials: int) -> list:
    # median round-trip ms per poly; each trial times one round trip of every
    # poly in turn, so drift of the machine falls on all of them alike
    samples = [[] for _ in polys]
    for _ in range(trials):
        for poly, times in zip(polys, samples):
            t0 = time.perf_counter()
            back = ringarith.inverse(ringarith.forward(poly))
            times.append((time.perf_counter() - t0) * 1e3)
            if back != poly:
                raise AssertionError("swap round-trip violated during bench")
    return [statistics.median(times) for times in samples]


def cmd_bench(m_cyclo: int, r: int, q_bits: int, trials: int, out_path: str) -> int:
    u = m_cyclo.bit_length() - 1
    m_total = m_cyclo << r
    quad_d = tuple(first_primes(r, exclude=(2,)))   # conductor is a 2-power
    try:
        q = _bench_prime(m_total, quad_d, q_bits)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rng = random.Random(987654321)
    base_ctx = ringarith.make_context(q, m_total, ())
    data = [rng.randrange(q) for _ in range(m_total)]
    base_poly = base_ctx.poly(data)

    def count(ctx, poly):
        ctx.reset_counter()
        f = ringarith.forward(poly)
        fwd_counts = (ctx.counter.muls, ctx.counter.adds)
        ctx.reset_counter()
        ringarith.inverse(f)
        inv_counts = (ctx.counter.muls, ctx.counter.adds)
        ctx.reset_counter()
        return fwd_counts, inv_counts

    try:
        base_f, base_i = count(base_ctx, base_poly)
        if r == 0:
            hyb_f, hyb_i = base_f, base_i
            base_ms = hyb_ms = _timed_swaps([base_poly], trials)[0]
        else:
            hyb_ctx = ringarith.make_context(q, m_cyclo, quad_d)
            hyb_poly = hyb_ctx.poly(data)
            hyb_f, hyb_i = count(hyb_ctx, hyb_poly)
            base_ms, hyb_ms = _timed_swaps([base_poly, hyb_poly], trials)
    except AssertionError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    return _write_csv(out_path, BENCH_HEADER, [[
        m_cyclo, r, m_total, q, np.dtype(base_ctx._dtype).name,
        base_f[0], base_f[1], base_i[0], base_i[1],
        hyb_f[0], hyb_f[1], hyb_i[0], hyb_i[1],
        _fmt(base_f[0] / hyb_f[0]),
        _fmt((u + r) / u) if u else "",
        _fmt(base_ms), _fmt(hyb_ms), _fmt(base_ms / hyb_ms),
    ]])


def cmd_verify(full: bool) -> int:
    failures = _checks.run(full=full)
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcond",
        description="Condition-number tables and exact transform benchmarks "
                    "for cyclotomic and multiquadratic rings.")
    parser.add_argument("--precision", choices=list(linalg.PRECISIONS),
                        default="double",
                        help="floating precision for the numeric condition "
                             "numbers of cond")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cond = sub.add_parser("cond", help="conductor sweep to CSV")
    p_cond.add_argument("--min", type=int, required=True)
    p_cond.add_argument("--max", type=int, required=True)
    p_cond.add_argument("--omega", default="any",
                        help="restrict to a fixed number of distinct primes (1..6)")
    p_cond.add_argument("--numeric-cap", type=int, default=512,
                        help="fill the numeric columns where 0 < phi(n) <= this "
                             "cap (0 leaves them empty)")
    p_cond.add_argument("--limit", type=int, default=_DEFAULT_SWEEP_LIMIT,
                        help="safety ceiling on --max; raise explicitly for big sweeps")
    p_cond.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")

    p_bench = sub.add_parser("bench", help="NTT vs hybrid swap benchmark")
    p_bench.add_argument("--mcyclo", type=int, required=True,
                         help="cyclotomic block size, a power of two >= 2")
    p_bench.add_argument("--r", type=int, required=True,
                         help="number of quadratic generators")
    p_bench.add_argument("--qbits", type=int, default=30,
                         help="the modulus is the smallest prime above "
                              "2^(qbits-1) that splits both rings; it may have "
                              "more than qbits bits")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--full", action="store_true",
                          help="extended ranges plus the analytic sweeps")
    return parser


# built once per process; main only parses with it and reports errors
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "cond":
        if args.omega == "any":
            omega = None
        else:
            try:
                omega = int(args.omega)
            except ValueError:
                _PARSER.error(f"--omega must be an integer or 'any', got {args.omega!r}")
            if not 1 <= omega <= 6:
                _PARSER.error("--omega must lie in 1..6")
        if args.max > args.limit:
            _PARSER.error(f"--max {args.max} exceeds the sweep limit {args.limit}; "
                          f"raise --limit if intended")
        try:
            config = SweepConfig(args.min, args.max, omega, numeric_cap=args.numeric_cap,
                                 out_path=args.out, precision=args.precision)
        except ValueError as exc:
            _PARSER.error(str(exc))
        return cmd_cond(config)

    if args.command == "bench":
        if args.mcyclo < 2 or args.mcyclo & (args.mcyclo - 1):
            _PARSER.error("--mcyclo must be a power of two >= 2")
        if args.r < 0:
            _PARSER.error("--r must be nonnegative")
        if not 8 <= args.qbits <= 62:
            _PARSER.error("--qbits must lie in [8, 62]")
        if args.trials < 1:
            _PARSER.error("--trials must be positive")
        return cmd_bench(args.mcyclo, args.r, args.qbits, args.trials, args.out)

    return cmd_verify(args.full)


if __name__ == "__main__":
    sys.exit(main())
