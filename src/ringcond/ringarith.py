"""Exact modular polynomial arithmetic with instrumented operation counts.

One transform, forward / inverse, over Z_q[x, t_1..t_r] / (x^{m_cyclo} + 1,
t_i^2 - d_i): the tensor product of the negacyclic NTT on the power-of-two
cyclotomic axis and the diagonal-scaled Walsh-Hadamard transform on the
multiquadratic axes (the diagonal multiplies, the butterflies are
sign-only).  Every ring shape runs the same plan of passes; the plain NTT
(r = 0) and the WHT (m_cyclo = 1) are its degenerate shapes, and the scalar
ring (m = 1) has no transform.  The family names ntt_*, wht_* and hybrid_*
are guards: each checks that the context has its shape, then calls forward
or inverse.

Alongside: a quadratic-time schoolbook multiplier used as the correctness
oracle and an RNS layer that CRT-splits big-integer coefficients across
several ring-compatible primes.

The transforms are vectorized and exact.  Each context picks one numpy dtype
for its tables and working arrays: uint64 when q < 2^32, where a product of
two residues stays below 2^64, otherwise object (Python integers) up to the
62-bit cap.  Both dtypes run the same kernels.  A product of two residues is
reduced by np.remainder, except in uint64 arrays of at least _DIVIDE_MIN
entries, which subtract (x // q) * q: numpy divides by a scalar with a
multiply and a shift, about three times faster than its remainder.  An NTT
stage folds its sums, below 2q, back by one conditional subtraction.  The
sign-only Hadamard passes skip it: r of them in a row leave entries below
2^r q (so uint64 needs 2^r q < 2^64, asserted when the plan is built), and
one reduction runs before the next pass that multiplies, or at the end.
Transforms of at least _UNBUFFERED_MIN entries run with numpy's buffer size
lowered to _BUFSIZE, so that the strided views of their passes are not
copied through buffers; the caller's size is restored on exit.  A
PolyVec keeps its residues in a read-only array of that dtype, so
transforms pass arrays from one to the next; PolyVec.values gives the same
residues as a tuple of Python integers, built on each access.  Every
coefficient input (ctx.poly, PolyVec, rns_decompose) goes through one
conversion that accepts integers only, numpy integers included: a float
raises TypeError.  The schoolbook oracle is pure-int.  Each context carries
a counter of data-dependent modular multiplications and additions: one per
performed multiplication and per butterfly sum or difference, whether it is
reduced at once or lazily.  Reductions were never counted, and table
precomputation at context build time is deliberately not counted.

Coefficient layout for the mixed ring: index e*m_cyclo + j holds the
coefficient of x^j * prod(t_i for set bits i of e).  The evaluation domain
uses the same flat layout with the cyclotomic axis transformed within each
block and the quadratic sign choices across blocks.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .numtheory import factorize, is_prime

_Q_CAP = 1 << 62


class Domain(enum.Enum):
    COEFFICIENT = "coefficient"
    EVALUATION = "evaluation"


class DomainError(ValueError):
    """Transform applied to a PolyVec tagged with the wrong domain."""


class OpCounter:
    __slots__ = ("muls", "adds")

    def __init__(self):
        self.muls = 0
        self.adds = 0

    def reset(self):
        self.muls = 0
        self.adds = 0


def _dtype(q: int):
    """The dtype a context with modulus q computes in: uint64 when q < 2^32,
    where a product of two residues stays below 2^64, else object."""
    return np.uint64 if q < 1 << 32 else object


def _subset_products(start: int, factors: Sequence[int], q: int) -> np.ndarray:
    """Entry e is start * prod(factors[i] for set bits i of e) mod q, as an
    array of _dtype(q): one numpy pass per factor, each doubling the table,
    t[k:2k] = t[:k] * factors[i], k = 2^i."""
    t = np.empty(1 << len(factors), dtype=_dtype(q))
    t[0] = start
    for i, f in enumerate(factors):
        half = t[1 << i:2 << i]
        np.multiply(t[:1 << i], f, out=half)
        _mod(half, q)
    return t


def _bitrev_powers(g: int, bits: int, q: int, start: int = 1) -> np.ndarray:
    """start * g^bitrev(e) mod q for e < 2^bits, bitrev reversing the low
    `bits` bits: the subset products over g^(2^(bits-1)), ..., g^2, g, the
    repeated squares of g in reverse order."""
    squares = []
    for _ in range(bits):
        squares.append(g)
        g = g * g % q
    return _subset_products(start, squares[::-1], q)


def _sqrt_mod(a: int, q: int, z: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime q,
    given a quadratic non-residue z mod q.  For q = 3 (mod 4) the loop never
    runs and the root is a^((q+1)/4)."""
    a %= q
    if a == 0:
        return 0
    # write q-1 = odd * 2^twos, walk the 2-Sylow subgroup down
    odd, twos = q - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    c = pow(z, odd, q)
    t = pow(a, odd, q)
    s = pow(a, (odd + 1) // 2, q)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (twos - i - 1), q)
        c = b * b % q
        twos = i
        t = t * c % q
        s = s * b % q
    return s


@dataclass(eq=False)
class RingContext:
    """Parameters plus precomputed tables for one modulus.

    Immutable after construction apart from the counter.  Use make_context;
    the constructor trusts its inputs.  The transform tables are arrays of
    the dtype the kernels compute in (see the module docstring), each built
    by `_subset_products` in one numpy pass per factor, each doubling the
    table, with no Python loop over entries: the twiddles psi^bitrev(e) and
    psi^-bitrev(e) over the log2(m_cyclo) repeated squares of psi and of
    1/psi, taken in reverse order so that the table comes out bit-reversed;
    the diagonal and the d-products over the r roots and d_i; and the
    inverse diagonal from 1/m over the r inverted roots, so r modular
    inversions instead of 2^r.  Compared by identity: vectors combine only
    within one context.
    """

    q: int
    m_cyclo: int
    quad_d: tuple
    psi: int
    quad_roots: tuple
    counter: OpCounter = field(default_factory=OpCounter)

    def __post_init__(self):
        self.r = len(self.quad_d)
        self.m = self.m_cyclo << self.r
        self.log_mc = self.m_cyclo.bit_length() - 1
        q = self.q
        self._dtype = _dtype(q)
        # bit-reversed twiddle tables, psi^(+-bitrev(e)) at index e; index
        # len+i at butterfly stage len
        self._fwd = _bitrev_powers(self.psi, self.log_mc, q)
        self._inv = _bitrev_powers(pow(self.psi, -1, q), self.log_mc, q)
        # diagonal tables over quadratic monomial masks; the inverse one
        # folds in 1/m, so at r = 0 it is the NTT's single 1/m_cyclo, and
        # its factors are the r inverted roots
        self._diag = _subset_products(1, self.quad_roots, q)
        self._dprod = _subset_products(1, [d % q for d in self.quad_d], q).tolist()
        self._hybrid_idiag = _subset_products(pow(self.m % q, -1, q),
                                              [pow(s, -1, q) for s in self.quad_roots], q)
        self._plans = {}

    def _plan(self, forward: bool) -> "_Plan":
        """The forward or inverse transform plan, built on first use; it
        holds views of the twiddle and diagonal tables."""
        if forward not in self._plans:
            self._plans[forward] = _build_plan(self, forward)
        return self._plans[forward]

    def poly(self, values: Sequence[int], domain: Domain = Domain.COEFFICIENT) -> "PolyVec":
        """Reduce a length-m integer sequence mod q and wrap it."""
        return _reduce(_int_array(values, self), self, Domain(domain))

    def reset_counter(self):
        self.counter.reset()


class PolyVec:
    """Length-m residue vector with a domain tag, bound to its context.

    The residues live in one read-only numpy array of the context's dtype;
    `values` is the same residues as a tuple of Python ints, built from the
    array on each access.  Direct construction takes integers already in
    [0, q), and a Domain or its value (ValueError otherwise).  Immutable;
    equal when the residues are and the domain and the context are the same
    objects.
    """

    __slots__ = ("_arr", "domain", "ctx")
    __hash__ = None

    def __init__(self, values: Sequence[int], domain: Domain, ctx: RingContext):
        ints = _int_array(values, ctx)
        bad = (ints < 0) | (ints >= ctx.q)
        if bad.any():
            raise ValueError(f"residue {ints[bad.argmax()]} outside [0, {ctx.q})")
        self._wrap(ints.astype(ctx._dtype, copy=False), Domain(domain), ctx)

    @classmethod
    def _trusted(cls, arr: np.ndarray, domain: Domain, ctx: RingContext) -> "PolyVec":
        """Wrap a residue array of ctx's dtype already reduced mod q, without
        the checks of direct construction.  The PolyVec takes the array over
        and makes it read-only."""
        p = object.__new__(cls)
        p._wrap(arr, domain, ctx)
        return p

    def _wrap(self, arr, domain, ctx):
        arr.flags.writeable = False
        for name, v in (("_arr", arr), ("domain", domain), ("ctx", ctx)):
            object.__setattr__(self, name, v)

    @property
    def values(self) -> tuple:
        """The residues as a tuple of Python ints."""
        return tuple(self._arr.tolist())

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyVec is immutable; cannot assign {name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain is other.domain and self.ctx is other.ctx
                and np.array_equal(self._arr, other._arr))

    def __repr__(self):
        return f"PolyVec(values={self.values!r}, domain={self.domain!r}, ctx={self.ctx!r})"


def _int_array(values, ctx: RingContext) -> np.ndarray:
    """ctx.m integers of any size as a 1-D object array of Python ints;
    anything operator.index refuses (a float) raises TypeError."""
    ints = np.fromiter(map(operator.index, values), dtype=object)
    if ints.size != ctx.m:
        raise ValueError(f"expected {ctx.m} residues, got {ints.size}")
    return ints


def _reduce(ints: np.ndarray, ctx: RingContext, domain: Domain = Domain.COEFFICIENT) -> PolyVec:
    """Wrap an object array of integers, reduced mod ctx.q."""
    return PolyVec._trusted(np.remainder(ints, ctx.q).astype(ctx._dtype, copy=False),
                            domain, ctx)


def make_context(q: int, m_cyclo: int, quad_d: Sequence[int] = ()) -> RingContext:
    """Validate parameters, search roots, and precompute tables (uncounted).

    psi is the smallest 2*m_cyclo-th root of -1 mod q: take the least quadratic
    non-residue x, found once, then psi0 = x^((q-1)/(2 m_cyclo)) has exact order
    2*m_cyclo, and psi0 * <psi0^2> enumerates every solution of
    y^{m_cyclo} = -1, so the minimum over that coset is global.  The coset,
    the odd powers of psi0, is built as the context tables are (see
    RingContext): log2(m_cyclo) doubling passes of numpy, then one min.
    Quadratic roots s_i = sqrt(d_i) come from Tonelli-Shanks with the same x,
    canonicalized to min(s, q-s).
    """
    q, m_cyclo = operator.index(q), operator.index(m_cyclo)
    if q >= _Q_CAP:
        raise ValueError(f"q = {q} does not fit in 62 bits")
    if not is_prime(q) or q == 2:
        raise ValueError(f"q = {q} is not an odd prime")
    if m_cyclo < 1 or m_cyclo & (m_cyclo - 1):
        raise ValueError(f"m_cyclo = {m_cyclo} is not a power of two")
    if (q - 1) % (2 * m_cyclo):
        raise ValueError(f"q = {q} is not 1 mod {2 * m_cyclo}; no negacyclic NTT")
    quad_d = tuple(map(operator.index, quad_d))
    if len(set(quad_d)) != len(quad_d):
        raise ValueError(f"duplicate d_i in {quad_d}")
    x = 2
    while pow(x, (q - 1) // 2, q) != q - 1:
        x += 1
    roots = []
    for d in quad_d:
        if d < 1:
            raise ValueError(f"d_i must be positive, got {d}")
        if any(e > 1 for _, e in factorize(d).factors):
            raise ValueError(f"d_i must be squarefree, got {d}")
        if pow(d, (q - 1) // 2, q) != 1:
            raise ValueError(f"{d} is a quadratic non-residue mod {q}")
        s = _sqrt_mod(d, q, x)
        roots.append(min(s, q - s))

    psi0 = pow(x, (q - 1) // (2 * m_cyclo), q)
    # the odd powers psi0^(2j+1), j < m_cyclo, in an order the min ignores
    psi = int(_bitrev_powers(psi0 * psi0 % q, m_cyclo.bit_length() - 1, q, psi0).min())
    assert pow(psi, m_cyclo, q) == q - 1
    return RingContext(q, m_cyclo, quad_d, psi, tuple(roots))


# ---------------------------------------------------------------------------
# Transform kernels, on residue arrays of the context's dtype.  A butterfly
# stage is a handful of numpy operations over a reshaped view that covers
# every block at once.  It forms a - b as a + (B - b) for a bound B above
# b, so uint64 never goes negative.  A pass with a twist (an NTT stage)
# enters with residues, takes B = q, and folds its sums, below 2q, back by
# one conditional subtraction (a remainder for Python ints).  The sign-only
# Hadamard passes reduce lazily: the i-th of them in a row enters with
# entries below B = 2^i q and leaves them below 2B, unreduced.  One
# in-place _mod runs before the next pass that multiplies and at the end
# of the transform.  In uint64 that needs 2^r q < 2^64, asserted when the
# plan is built; Python ints need no bound.  Products of two residues are
# reduced by _mod.
# Counter increments are batched per transform but tally exactly one mul per
# performed modular multiplication and one add per modular addition or
# subtraction; reductions, lazy or not, were never counted.

# Smallest uint64 array that _mod reduces by division rather than by
# np.remainder.  numpy divides by a scalar with a multiply and a shift
# (libdivide), so x - (x // q) * q costs 3.4 against 5.5 us at 1024
# contiguous entries and 40 against 135 us at 32768, but its three calls
# cost 2.1 against 0.9 us at 4-64 entries.  Timed with timeit (min of 5)
# on a 2-core Xeon, numpy 2.4.6, over contiguous arrays and the strided
# odd-half views of a butterfly stage; the two break even between 512
# contiguous and 1024 strided entries.
_DIVIDE_MIN = 1024


def _fold(x: np.ndarray, q: int, out: np.ndarray):
    """out = x mod q for x in [0, 2q); out must not be x."""
    if x.dtype == object:
        np.remainder(x, q, out=out)  # Python ints do not wrap below zero
    else:
        np.subtract(x, q, out=out)   # wraps to above x exactly when x < q
        np.minimum(x, out, out=out)


def _mod(a: np.ndarray, q: int):
    """a = a mod q in place.  A uint64 array of at least _DIVIDE_MIN
    entries subtracts t = (a // q) * q, exact because t <= a < 2^64 and
    a - t lies in [0, q); a // q is a fresh contiguous array even when a is
    a strided view."""
    if a.size < _DIVIDE_MIN or a.dtype == object:
        np.remainder(a, q, out=a)
    else:
        t = a // q
        t *= q
        np.subtract(a, t, out=a)


def _scale(a: np.ndarray, d, q: int):
    """a = a * d mod q in place; d broadcasts against a."""
    np.multiply(a, d, out=a)
    _mod(a, q)


def _butterflies(a: np.ndarray, out: np.ndarray, shape: tuple, bound: int):
    """out = (u + v, u + (bound - v)), unreduced, for every pair (u, v)
    along axis -2 of a.reshape(shape), every v at most bound; out has a's
    size and is not a."""
    view, s = a.reshape(shape), out.reshape(shape)
    v = view[..., 1, :]
    np.copyto(s[..., 0, :], v)
    np.subtract(bound, v, out=s[..., 1, :])
    np.add(s, view[..., :1, :], out=s)


# A transform runs from a plan of passes over the flat residue array, built
# once per context and direction.  A pass that butterflies index bit b
# views the array as (rows, 2, cols), rows = 2^(bits stored above b), so
# its odd half and twiddle views are strided, in contiguous runs of cols
# entries.  numpy iterates such an operand through its buffers when the
# runs are short (see _BUFSIZE), and even unbuffered each run costs a fixed
# overhead: a pass is fast only when few bits sit above its pair bit.  At
# m = 65536 a multiplication of the odd half costs about 0.5 ns per uint64
# entry at up to 8 rows; at 16-64 rows 1.0-1.2 ns under numpy's default
# buffer size and 0.4-0.75 ns under _BUFSIZE, and at 256-4096 rows
# 0.8-1.9 ns even under _BUFSIZE (timeit, min of 7, 2-core Xeon, numpy
# 2.4.6).  So each pass picks a layout, the natural index rotated so that
# its low `rot` bits lead; moving between layouts is one transposing copy.
# A phase (the NTT stages, the Hadamard axes) whose deepest pair bit would
# have more than 2^_MAX_DEPTH rows in natural order runs its later passes
# in a rotated layout, switching where the deepest pair bits before and
# after the switch are about equally deep.  On smaller rings the
# transposes cost about what they save.  Re-measured under _run's
# unbuffered scope by alternated round trips on the rings of 64-4096
# entries whose plans it changes: 4 and 6 within noise of 5, 7 up to 19 %
# slower.
_MAX_DEPTH = 5


class _Step(NamedTuple):
    """One pass in layout `rot`, on the array viewed as `shape`: butterflies
    across the (rows, 2, cols) view `bfly` (None: no butterflies), and a
    multiplication of the odd half `view[odd]` (the whole view without
    butterflies) by the broadcasting view `factors` of a context table,
    before the butterflies when `twist_first`, else after."""

    rot: int
    shape: tuple
    odd: tuple
    bfly: Optional[tuple]
    factors: Optional[np.ndarray]
    twist_first: bool


class _Plan(NamedTuple):
    nbits: int
    steps: tuple
    muls: int
    adds: int


def _step(nbits: int, rot: int, pair: Optional[int] = None, gbits=(0, 0),
          factors: Optional[np.ndarray] = None, twist_first: bool = True) -> _Step:
    """The pass pairing natural index bit `pair` and multiplying by
    factors[g], g the value of index bits gbits[0] <= b < gbits[1].

    The array gets one axis per run of layout-adjacent bits that play the
    same part, so that the factor table, reshaped by its own bit runs and
    transposed into layout order, broadcasts as a view, never a copy.
    """
    runs = []  # [part, bit count, lowest natural bit], leading bits first
    for b in [*range(rot - 1, -1, -1), *range(nbits - 1, rot - 1, -1)]:
        part = "pair" if b == pair else "g" if gbits[0] <= b < gbits[1] else "other"
        last = runs[-1] if runs else None
        if last and last[0] == part != "pair" and (part == "other" or last[2] == b + 1):
            last[1] += 1
            last[2] = b
        else:
            runs.append([part, 1, b])
    shape = tuple(1 << n for _, n, _ in runs)
    odd, bfly = (), None
    if pair is not None:
        p = next(i for i, run in enumerate(runs) if run[0] == "pair")
        odd = (slice(None),) * p + (1, ...)
        bfly = (math.prod(shape[:p]), 2, math.prod(shape[p + 1:]))
    if factors is not None:
        g_runs = [run for run in runs if run[0] == "g"]
        by_bit = sorted(g_runs, key=lambda run: -run[2])
        factors = factors.reshape([1 << run[1] for run in by_bit])
        factors = factors.transpose([by_bit.index(run) for run in g_runs])
        factors = factors[tuple(slice(None) if run[0] == "g" else None
                                for run in runs if run[0] != "pair")]
    return _Step(rot, shape, odd, bfly, factors, twist_first)


def _build_plan(ctx: RingContext, forward: bool) -> _Plan:
    """The tensor transform: u = log2 m_cyclo NTT stages in every block,
    the block diagonal, r Hadamard axes across blocks; or their inverse in
    reverse order, ending on the inverse diagonal, which folds in 1/m.  At
    r = 0 (the plain NTT) the forward has no diagonal and the inverse one is
    the single entry 1/m_cyclo; at u = 0 (the WHT) the diagonal takes the
    layout of the Hadamard axis next to it.

    NTT stage s pairs cyclotomic bit u-1-s, below the r block bits and s
    cyclotomic bits in natural order, and twists its odd half by
    table[2^s + g], g the value of those s bits.  From stage `split` on,
    the low u - split cyclotomic bits lead (split = 0, the blocks
    innermost, once 2^r >= m_cyclo).  Hadamard axis i pairs bit u+i, below
    r-1-i block bits; its first h axes run with bits up to u+h-1 leading.
    """
    u, r = ctx.log_mc, ctx.r
    nbits, m = u + r, ctx.m
    table = ctx._fwd if forward else ctx._inv
    split = u if r + u - 1 <= _MAX_DEPTH else max(0, (u - r + 1) // 2)
    h = r // 2 if r - 1 > _MAX_DEPTH else 0
    ntt = [_step(nbits, 0 if s < split else u - split, u - 1 - s, (u - s, u),
                 table[1 << s:2 << s], forward) for s in range(u)]
    hadamard = [_step(nbits, u + h if i < h else 0, u + i) for i in range(r)]
    if forward:
        diag = [_step(nbits, (ntt[-1:] or hadamard)[0].rot, None, (u, nbits),
                      ctx._diag)] if r else []
        steps = ntt + diag + hadamard
    else:
        diag = [_step(nbits, (ntt[:1] or hadamard[-1:])[0].rot, None, (u, nbits),
                      ctx._hybrid_idiag)]
        steps = hadamard + ntt[::-1] + diag
    # the WHT forward does not count its unit diagonal entry (e = 0)
    muls = u * (m // 2) + len(diag) * m - (forward and not u)
    # the r Hadamard passes in a row leave entries below 2^r q unreduced
    assert ctx._dtype is object or ctx.q << r < 1 << 64
    return _Plan(nbits, tuple(steps), muls, (u + r) * m)


def _rotate(src: np.ndarray, d: int, nbits: int, out: np.ndarray):
    """out = src with its last d index bits moved to the front."""
    np.copyto(out.reshape(1 << d, 1 << (nbits - d)), src.reshape(1 << (nbits - d), 1 << d).T)


# numpy sends an operand through its buffers, bufsize entries each, when
# the operand is not contiguous and its contiguous runs are shorter than
# half a buffer.  Under the default 8192 that catches the odd halves and
# twiddle views of every pass with 16 or more rows at m = 65536 (the
# comment on _MAX_DEPTH gives their cost), and the transposing copies of
# _rotate.  _run therefore sets the buffer size to _BUFSIZE, which leaves
# runs of 256 entries and more unbuffered, inside a np.errstate() scope
# that gives the caller's size back on exit (numpy >= 2.0).
# Entering the scope costs about 4 us, so arrays below _UNBUFFERED_MIN
# entries keep the default.  Alternated round trips, median of 20-40, on a
# 2-core Xeon with numpy 2.4.6: with the scope, rings of 16-1024 entries
# took 3-4 % longer, of 2048-4096 entries within 2 %, and of 8192-16384
# entries 12-20 % less.  Buffer sizes 128, 256 and 512 were within 3 % of
# each other at m = 8192 and 65536; 1024 was 2-5 % slower and 2048 7-27 %.
_BUFSIZE = 512
_UNBUFFERED_MIN = 4096


def _run(plan: _Plan, x: np.ndarray, ctx: RingContext) -> np.ndarray:
    """A new natural-order array: the plan applied to x, which is left as
    is."""
    if x.size < _UNBUFFERED_MIN:
        return _passes(plan, x, ctx)
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        return _passes(plan, x, ctx)


def _passes(plan: _Plan, x: np.ndarray, ctx: RingContext) -> np.ndarray:
    """The body of _run.  Works in two buffers, the array and the
    butterflies' output, which trade places at each change of layout and
    after each unreduced pass."""
    q, nbits = ctx.q, plan.nbits
    a, tmp = np.empty_like(x), np.empty_like(x)
    rot = plan.steps[0].rot
    _rotate(x, rot, nbits, a)
    lazy = 0  # unreduced Hadamard passes in a row: entries below 2^lazy q
    for st in plan.steps:
        if st.rot != rot:
            _rotate(a, (st.rot - rot) % nbits, nbits, tmp)
            a, tmp, rot = tmp, a, st.rot
        if st.factors is None:  # a Hadamard axis: sign-only, left unreduced
            _butterflies(a, tmp, st.bfly, q << lazy)
            a, tmp, lazy = tmp, a, lazy + 1
            continue
        if lazy:
            _mod(a, q)
            lazy = 0
        odd = a.reshape(st.shape)[st.odd]
        if st.twist_first:
            _scale(odd, st.factors, q)
        if st.bfly is not None:
            _butterflies(a, tmp, st.bfly, q)
            _fold(tmp, q, a)
        if not st.twist_first:
            _scale(odd, st.factors, q)
    if lazy:
        _mod(a, q)
    ctx.counter.muls += plan.muls
    ctx.counter.adds += plan.adds
    if rot:
        _rotate(a, nbits - rot, nbits, tmp)
        a = tmp
    return a


def _require(a: PolyVec, domain: Domain):
    if a.domain != domain:
        raise DomainError(f"expected a {domain.value}-domain vector, got {a.domain.value}")


def family(ctx: RingContext) -> str:
    """The degenerate shape ctx's transform has: "ntt" (r = 0), "wht"
    (m_cyclo = 1) or "hybrid" (both axes).  The scalar ring, m = 1, has no
    transform: ValueError."""
    if ctx.m == 1:
        raise ValueError("the scalar ring Z_q (m_cyclo = 1, r = 0) has no transform")
    return "ntt" if ctx.r == 0 else "wht" if ctx.m_cyclo == 1 else "hybrid"


def forward(a: PolyVec) -> PolyVec:
    """The tensor transform, coefficients -> evaluations.  Counted
    multiplications: (m/2) log2 m for the NTT, 2^r - 1 for the WHT (its unit
    diagonal entry is elided), (m/2) log2(m_cyclo) + m for the hybrid;
    (log2 m_cyclo + r) m additions."""
    ctx = a.ctx
    family(ctx)  # the scalar ring has none
    _require(a, Domain.COEFFICIENT)
    return PolyVec._trusted(_run(ctx._plan(True), a._arr, ctx), Domain.EVALUATION, ctx)


def inverse(a: PolyVec) -> PolyVec:
    """The inverse transform, evaluations -> coefficients, ending on one
    merged diagonal (m_cyclo 2^r prod s_i^{e_i})^{-1}.  Counted
    multiplications: (m/2) log2(m_cyclo) + m on every shape (the WHT's m
    includes its unit entry); (log2 m_cyclo + r) m additions."""
    ctx = a.ctx
    family(ctx)  # the scalar ring has none
    _require(a, Domain.EVALUATION)
    return PolyVec._trusted(_run(ctx._plan(False), a._arr, ctx), Domain.COEFFICIENT, ctx)


def _expect(ctx: RingContext, want: str):
    got = family(ctx)
    if got != want:
        raise ValueError(f"a {want} transform applied to a {got} context; use forward/inverse")


def ntt_forward(a: PolyVec) -> PolyVec:
    """forward() on a pure cyclotomic ring: the negacyclic NTT, entry i the
    evaluation at psi^(2 bitrev(i) + 1)."""
    _expect(a.ctx, "ntt")
    return forward(a)


def ntt_inverse(a: PolyVec) -> PolyVec:
    """inverse() on a pure cyclotomic ring."""
    _expect(a.ctx, "ntt")
    return inverse(a)


def wht_forward(a: PolyVec) -> PolyVec:
    """forward() on a pure multiquadratic ring: the scaled Walsh-Hadamard
    transform."""
    _expect(a.ctx, "wht")
    return forward(a)


def wht_inverse(a: PolyVec) -> PolyVec:
    """inverse() on a pure multiquadratic ring."""
    _expect(a.ctx, "wht")
    return inverse(a)


def hybrid_forward(a: PolyVec) -> PolyVec:
    """forward() on a ring with both axes (m_cyclo >= 2, r >= 1)."""
    _expect(a.ctx, "hybrid")
    return forward(a)


def hybrid_inverse(a: PolyVec) -> PolyVec:
    """inverse() on a ring with both axes (m_cyclo >= 2, r >= 1)."""
    _expect(a.ctx, "hybrid")
    return inverse(a)


def pointwise_mul(a: PolyVec, b: PolyVec) -> PolyVec:
    """Coordinatewise product in the evaluation domain; m counted
    multiplications.  Implements ring multiplication there."""
    if a.ctx is not b.ctx:
        raise ValueError("operands from different contexts")
    _require(a, Domain.EVALUATION)
    _require(b, Domain.EVALUATION)
    vals = np.multiply(a._arr, b._arr)
    _mod(vals, a.ctx.q)
    a.ctx.counter.muls += a.ctx.m
    return PolyVec._trusted(vals, Domain.EVALUATION, a.ctx)


def schoolbook_mul(a: PolyVec, b: PolyVec) -> PolyVec:
    """Quadratic-time oracle: expand the product monomial by monomial and
    reduce with x^{m_cyclo} = -1 and t_i^2 = d_i.  Counts one multiplication
    per coefficient product plus one per needed d-product factor."""
    if a.ctx is not b.ctx:
        raise ValueError("operands from different contexts")
    _require(a, Domain.COEFFICIENT)
    _require(b, Domain.COEFFICIENT)
    ctx = a.ctx
    q, mc, dprod = ctx.q, ctx.m_cyclo, ctx._dprod
    out = [0] * ctx.m
    muls = adds = 0
    bv = b.values
    for i1, u in enumerate(a.values):
        if u == 0:
            continue
        e1, j1 = divmod(i1, mc)
        for i2, v in enumerate(bv):
            e2, j2 = divmod(i2, mc)
            c = u * v % q
            muls += 1
            common = e1 & e2
            if common:
                c = c * dprod[common] % q
                muls += 1
            j = j1 + j2
            if j >= mc:  # negacyclic wraparound
                j -= mc
                c = q - c if c else 0
            idx = (e1 ^ e2) * mc + j
            out[idx] = (out[idx] + c) % q
            adds += 1
    ctx.counter.muls += muls
    ctx.counter.adds += adds
    return PolyVec(tuple(out), Domain.COEFFICIENT, ctx)


# ---------------------------------------------------------------------------
# RNS layer: coefficient-wise CRT across several ring-compatible primes.

@dataclass(frozen=True)
class RnsContext:
    contexts: tuple          # one RingContext per modulus, same (m_cyclo, quad_d)
    modulus_product: int     # Q = prod q_i, arbitrary precision

    @property
    def moduli(self) -> tuple:
        return tuple(c.q for c in self.contexts)


def make_rns_context(moduli: Sequence[int], m_cyclo: int,
                     quad_d: Sequence[int] = ()) -> RnsContext:
    moduli = tuple(map(operator.index, moduli))
    if not moduli:
        raise ValueError("an RNS needs at least one modulus")
    if len(set(moduli)) != len(moduli):
        raise ValueError(f"moduli must be pairwise distinct, got {moduli}")
    ctxs = tuple(make_context(q, m_cyclo, quad_d) for q in moduli)
    big_q = 1
    for q in moduli:
        big_q *= q
    return RnsContext(ctxs, big_q)


def rns_decompose(coeffs: Sequence[int], rns: RnsContext) -> List[PolyVec]:
    """Reduce arbitrary-precision coefficients into one PolyVec per modulus."""
    ints = _int_array(coeffs, rns.contexts[0])
    return [_reduce(ints, ctx) for ctx in rns.contexts]


def rns_reconstruct(parts: Sequence[PolyVec], rns: RnsContext) -> List[int]:
    """Explicit CRT back to integers in [0, Q); every limb must be in the
    coefficient domain."""
    if len(parts) != len(rns.contexts):
        raise ValueError(
            f"expected {len(rns.contexts)} limbs, got {len(parts)}")
    for part, ctx in zip(parts, rns.contexts):
        if part.ctx is not ctx:
            raise ValueError("limb bound to a different context (moduli mismatch)")
        _require(part, Domain.COEFFICIENT)
    big_q = rns.modulus_product
    basis = []
    for ctx in rns.contexts:
        qi = ctx.q
        rest = big_q // qi
        basis.append(rest * pow(rest % qi, qi - 2, qi))
    acc = sum(part._arr.astype(object) * b for part, b in zip(parts, basis))
    return np.remainder(acc, big_q).tolist()
