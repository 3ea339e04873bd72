"""Exact modular polynomial arithmetic with instrumented operation counts.

Three transform families over Z_q[x, t_1..t_r] / (x^{m_cyclo} + 1, t_i^2 - d_i):

  * negacyclic NTT for the power-of-two cyclotomic axis,
  * diagonal-scaled Walsh-Hadamard transform for the multiquadratic axes
    (linear multiplication count: only the diagonal multiplies, the
    butterflies are sign-only),
  * their tensor combination for the mixed ring,

plus a quadratic-time schoolbook multiplier used as the correctness oracle
and an RNS layer that CRT-splits big-integer coefficients across several
ring-compatible primes.

The transforms are vectorized and exact.  Each context picks one numpy dtype
for its tables and working arrays: uint64 when q < 2^32, where a product of
two residues stays below 2^64, otherwise object (Python integers) up to the
62-bit cap.  Both dtypes run the same kernels.  PolyVec.values is always a
tuple of Python integers, and the schoolbook oracle is pure-int.  Each
context carries a counter of data-dependent modular multiplications and
additions; table precomputation at context build time is deliberately not
counted.

Coefficient layout for the mixed ring: index e*m_cyclo + j holds the
coefficient of x^j * prod(t_i for set bits i of e).  The evaluation domain
uses the same flat layout with the cyclotomic axis transformed within each
block and the quadratic sign choices across blocks.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence

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


def _bitrev(x, bits: int):
    """Reverse the low `bits` bits of x, an int or an integer array."""
    out = x & 0  # 0 of x's type
    for _ in range(bits):
        out = (out << 1) | (x & 1)
        x = x >> 1
    return out


def _powers(x: int, n: int, q: int) -> List[int]:
    """x^i mod q for i < n."""
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * x % q
    return out


def _sqrt_mod(a: int, q: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime q."""
    a %= q
    if a == 0:
        return 0
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # write q-1 = odd * 2^twos, walk the 2-Sylow subgroup down
    odd, twos = q - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
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


@dataclass
class RingContext:
    """Parameters plus precomputed tables for one modulus.

    Immutable after construction apart from the counter.  Use make_context;
    the constructor trusts its inputs.  The transform tables are arrays of
    the dtype the kernels compute in (see the module docstring).
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
        mc, q = self.m_cyclo, self.q
        self._dtype = np.uint64 if q < 1 << 32 else object
        # bit-reversed twiddle tables; index len+i at butterfly stage len
        rev = _bitrev(np.arange(mc), self.log_mc)
        self._fwd = self._table(_powers(self.psi, mc, q))[rev]
        self._inv = self._table(_powers(pow(self.psi, q - 2, q), mc, q))[rev]
        self._mc_inv = pow(mc, q - 2, q) if mc > 1 else 1
        # diagonal tables over quadratic monomial masks
        diag = [1] * (1 << self.r)
        dprod = [1] * (1 << self.r)
        for i in range(self.r):
            for e in range(1 << i):
                diag[e | (1 << i)] = diag[e] * self.quad_roots[i] % q
                dprod[e | (1 << i)] = dprod[e] * (self.quad_d[i] % q) % q
        self._diag = self._table(diag)
        self._dprod = dprod
        inv2r = pow(1 << self.r, q - 2, q)
        self._idiag = self._table(inv2r * pow(d, q - 2, q) % q for d in diag)
        invm = pow(self.m % q, q - 2, q)
        self._hybrid_idiag = self._table(invm * pow(d, q - 2, q) % q for d in diag)

    def _table(self, residues) -> np.ndarray:
        return np.array(list(residues), dtype=self._dtype)

    def poly(self, values: Sequence[int], domain: Domain = Domain.COEFFICIENT) -> "PolyVec":
        """Reduce a length-m integer sequence mod q and wrap it."""
        vals = tuple(int(v) % self.q for v in values)
        if len(vals) != self.m:
            raise ValueError(f"expected {self.m} residues, got {len(vals)}")
        return PolyVec._trusted(vals, domain, self)

    def reset_counter(self):
        self.counter.reset()


@dataclass(frozen=True)
class PolyVec:
    """Length-m residue vector with a domain tag, bound to its context."""

    values: tuple
    domain: Domain
    ctx: RingContext

    def __post_init__(self):
        if len(self.values) != self.ctx.m:
            raise ValueError(
                f"expected {self.ctx.m} residues, got {len(self.values)}")
        q = self.ctx.q
        for v in self.values:
            if not 0 <= v < q:
                raise ValueError(f"residue {v} outside [0, {q})")

    @classmethod
    def _trusted(cls, values: tuple, domain: Domain, ctx: RingContext) -> "PolyVec":
        """Wrap Python-int residues already reduced mod q, skipping the O(m)
        range check of direct construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        object.__setattr__(p, "domain", domain)
        object.__setattr__(p, "ctx", ctx)
        return p


def make_context(q: int, m_cyclo: int, quad_d: Sequence[int] = ()) -> RingContext:
    """Validate parameters, search roots, and precompute tables (uncounted).

    psi is the smallest 2*m_cyclo-th root of -1 mod q: take any quadratic
    non-residue x, then psi0 = x^((q-1)/(2 m_cyclo)) has exact order
    2*m_cyclo, and psi0 * <psi0^2> enumerates every solution of
    y^{m_cyclo} = -1, so the minimum over that coset is global.  Quadratic
    roots s_i = sqrt(d_i) come from Tonelli-Shanks, canonicalized to
    min(s, q-s).
    """
    q, m_cyclo = int(q), int(m_cyclo)
    if not is_prime(q) or q == 2:
        raise ValueError(f"q = {q} is not an odd prime")
    if q >= _Q_CAP:
        raise ValueError(f"q = {q} does not fit in 62 bits")
    if m_cyclo < 1 or m_cyclo & (m_cyclo - 1):
        raise ValueError(f"m_cyclo = {m_cyclo} is not a power of two")
    if (q - 1) % (2 * m_cyclo):
        raise ValueError(f"q = {q} is not 1 mod {2 * m_cyclo}; no negacyclic NTT")
    quad_d = tuple(int(d) for d in quad_d)
    if len(set(quad_d)) != len(quad_d):
        raise ValueError(f"duplicate d_i in {quad_d}")
    roots = []
    for d in quad_d:
        if d < 1:
            raise ValueError(f"d_i must be positive, got {d}")
        if any(e > 1 for _, e in factorize(d).factors):
            raise ValueError(f"d_i must be squarefree, got {d}")
        if pow(d, (q - 1) // 2, q) != 1:
            raise ValueError(f"{d} is a quadratic non-residue mod {q}")
        s = _sqrt_mod(d, q)
        roots.append(min(s, q - s))

    x = 2
    while pow(x, (q - 1) // 2, q) != q - 1:
        x += 1
    psi0 = pow(x, (q - 1) // (2 * m_cyclo), q)
    gen = psi0 * psi0 % q
    psi, cur = psi0, psi0
    for _ in range(m_cyclo - 1):
        cur = cur * gen % q
        if cur < psi:
            psi = cur
    assert pow(psi, m_cyclo, q) == q - 1
    return RingContext(q, m_cyclo, quad_d, psi, tuple(roots))


# ---------------------------------------------------------------------------
# Transform kernels, in place on a flat residue array of the context's dtype.
# A butterfly stage is a handful of numpy operations over a reshaped view
# that covers every block at once.  Sums stay below 2q (a - b is formed as
# a + (q - b), so uint64 never goes negative) and are folded back by one
# conditional subtraction (a remainder for Python ints); products of two
# residues are reduced with %.
# Counter increments are batched per stage but tally exactly one mul per
# performed modular multiplication.

def _fold(x: np.ndarray, q: int, out: np.ndarray):
    """out = x mod q for x in [0, 2q); out must not be x."""
    if x.dtype == object:
        np.remainder(x, q, out=out)  # Python ints do not wrap below zero
    else:
        np.subtract(x, q, out=out)   # wraps to above x exactly when x < q
        np.minimum(x, out, out=out)


def _scale(a: np.ndarray, d, q: int):
    """a = a * d mod q in place; d broadcasts against a."""
    np.multiply(a, d, out=a)
    np.remainder(a, q, out=a)


def _butterflies(a: np.ndarray, tmp: np.ndarray, shape: tuple, q: int):
    """(u, v) -> (u + v, u - v) mod q for every pair along axis -2 of
    a.reshape(shape); tmp is scratch of a's size."""
    view, s = a.reshape(shape), tmp.reshape(shape)
    v = view[..., 1, :]
    np.copyto(s[..., 0, :], v)
    np.subtract(q, v, out=s[..., 1, :])
    np.add(s, view[..., :1, :], out=s)
    _fold(tmp, q, a)


def _ntt(a: np.ndarray, ctx: RingContext):
    """Forward negacyclic NTT of every length-m_cyclo block of a
    (Cooley-Tukey: twist the odd half, then butterfly)."""
    q, mc, cnt = ctx.q, ctx.m_cyclo, ctx.counter
    blocks, tmp = a.size // mc, np.empty_like(a)
    t, lvl = mc, 1
    while lvl < mc:
        t >>= 1
        shape = (blocks, lvl, 2, t)
        _scale(a.reshape(shape)[:, :, 1], ctx._fwd[lvl:2 * lvl, None], q)
        _butterflies(a, tmp, shape, q)
        cnt.muls += a.size // 2
        cnt.adds += a.size
        lvl <<= 1


def _intt(a: np.ndarray, ctx: RingContext):
    """Unscaled inverse of _ntt on every block, m_cyclo times the inverse
    (Gentleman-Sande: butterfly, then twist the odd half)."""
    q, mc, cnt = ctx.q, ctx.m_cyclo, ctx.counter
    blocks, tmp = a.size // mc, np.empty_like(a)
    t, lvl = 1, mc >> 1
    while lvl >= 1:
        shape = (blocks, lvl, 2, t)
        _butterflies(a, tmp, shape, q)
        _scale(a.reshape(shape)[:, :, 1], ctx._inv[lvl:2 * lvl, None], q)
        cnt.muls += a.size // 2
        cnt.adds += a.size
        t <<= 1
        lvl >>= 1


def _hadamard(a: np.ndarray, ctx: RingContext, block: int):
    # sign-only butterflies across the quadratic axes; block = entries that
    # share one quadratic mask (1 standalone, m_cyclo in the hybrid layout)
    tmp = np.empty_like(a)
    for i in range(ctx.r):
        _butterflies(a, tmp, (-1, 2, block << i), ctx.q)
    ctx.counter.adds += ctx.r * a.size


def _array(a: PolyVec) -> np.ndarray:
    return np.fromiter(a.values, dtype=a.ctx._dtype, count=len(a.values))


def _result(a: np.ndarray, domain: Domain, ctx: RingContext) -> PolyVec:
    return PolyVec._trusted(tuple(a.tolist()), domain, ctx)


def _require(a: PolyVec, domain: Domain):
    if a.domain != domain:
        raise DomainError(f"expected a {domain.value}-domain vector, got {a.domain.value}")


def _pure_cyclo(ctx: RingContext):
    if ctx.r:
        raise ValueError("context has a multiquadratic part; use hybrid_forward")
    if ctx.m_cyclo < 2:
        raise ValueError("NTT needs m_cyclo >= 2")


def _pure_quad(ctx: RingContext):
    if ctx.r == 0:
        raise ValueError("context has no multiquadratic part")
    if ctx.m_cyclo != 1:
        raise ValueError("context has a cyclotomic part; use hybrid_forward")


def ntt_forward(a: PolyVec) -> PolyVec:
    """Negacyclic NTT: coefficients -> evaluations at odd powers of psi,
    (m/2) log2 m counted multiplications."""
    ctx = a.ctx
    _pure_cyclo(ctx)
    _require(a, Domain.COEFFICIENT)
    vals = _array(a)
    _ntt(vals, ctx)
    return _result(vals, Domain.EVALUATION, ctx)


def ntt_inverse(a: PolyVec) -> PolyVec:
    """Inverse NTT, (m/2) log2 m + m counted multiplications (the +m is the
    final 1/m scaling)."""
    ctx = a.ctx
    _pure_cyclo(ctx)
    _require(a, Domain.EVALUATION)
    vals = _array(a)
    _intt(vals, ctx)
    _scale(vals, ctx._mc_inv, ctx.q)
    ctx.counter.muls += ctx.m
    return _result(vals, Domain.COEFFICIENT, ctx)


def wht_forward(a: PolyVec) -> PolyVec:
    """Scaled Walsh-Hadamard transform: multiply coefficient e by
    prod s_i^{e_i} (2^r - 1 counted multiplications; the unit e=0 factor is
    elided), then sign-only butterflies (r 2^r additions, zero
    multiplications)."""
    ctx = a.ctx
    _pure_quad(ctx)
    _require(a, Domain.COEFFICIENT)
    vals = _array(a)
    _scale(vals[1:], ctx._diag[1:], ctx.q)
    ctx.counter.muls += vals.size - 1
    _hadamard(vals, ctx, 1)
    return _result(vals, Domain.EVALUATION, ctx)


def wht_inverse(a: PolyVec) -> PolyVec:
    """Inverse: sign-only butterflies, then the merged diagonal
    (2^r prod s_i^{e_i})^{-1}, exactly 2^r counted multiplications."""
    ctx = a.ctx
    _pure_quad(ctx)
    _require(a, Domain.EVALUATION)
    vals = _array(a)
    _hadamard(vals, ctx, 1)
    _scale(vals, ctx._idiag, ctx.q)
    ctx.counter.muls += vals.size
    return _result(vals, Domain.COEFFICIENT, ctx)


def hybrid_forward(a: PolyVec) -> PolyVec:
    """Tensor transform: NTT within each quadratic-mask block, then a full
    diagonal (uniform m multiplications, unit factors included), then
    sign-only butterflies across blocks.  Counted multiplications exactly
    (m/2) log2(m_cyclo) + m."""
    ctx = a.ctx
    if ctx.r == 0 or ctx.m_cyclo < 2:
        raise ValueError("degenerate tensor: use ntt_forward or wht_forward directly")
    _require(a, Domain.COEFFICIENT)
    vals = _array(a)
    _ntt(vals, ctx)
    _scale(vals.reshape(-1, ctx.m_cyclo), ctx._diag[:, None], ctx.q)
    ctx.counter.muls += ctx.m
    _hadamard(vals, ctx, ctx.m_cyclo)
    return _result(vals, Domain.EVALUATION, ctx)


def hybrid_inverse(a: PolyVec) -> PolyVec:
    """Inverse tensor transform, same multiplication count as the forward:
    butterflies, unscaled inverse NTT per block, then one merged diagonal
    (m_cyclo 2^r prod s_i^{e_i})^{-1}."""
    ctx = a.ctx
    if ctx.r == 0 or ctx.m_cyclo < 2:
        raise ValueError("degenerate tensor: use ntt_inverse or wht_inverse directly")
    _require(a, Domain.EVALUATION)
    vals = _array(a)
    _hadamard(vals, ctx, ctx.m_cyclo)
    _intt(vals, ctx)
    _scale(vals.reshape(-1, ctx.m_cyclo), ctx._hybrid_idiag[:, None], ctx.q)
    ctx.counter.muls += ctx.m
    return _result(vals, Domain.COEFFICIENT, ctx)


def pointwise_mul(a: PolyVec, b: PolyVec) -> PolyVec:
    """Coordinatewise product in the evaluation domain; m counted
    multiplications.  Implements ring multiplication there."""
    if a.ctx is not b.ctx:
        raise ValueError("operands from different contexts")
    _require(a, Domain.EVALUATION)
    _require(b, Domain.EVALUATION)
    vals = _array(a)
    _scale(vals, _array(b), a.ctx.q)
    a.ctx.counter.muls += a.ctx.m
    return _result(vals, Domain.EVALUATION, a.ctx)


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
    for i1, u in enumerate(a.values):
        if u == 0:
            continue
        e1, j1 = divmod(i1, mc)
        for i2, v in enumerate(b.values):
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


def count_report(ctx: RingContext) -> dict:
    """Totals since construction or the last reset_counter()."""
    return {"muls": ctx.counter.muls, "adds": ctx.counter.adds}


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
    moduli = tuple(int(q) for q in moduli)
    if len(set(moduli)) != len(moduli):
        raise ValueError(f"moduli must be pairwise distinct, got {moduli}")
    ctxs = tuple(make_context(q, m_cyclo, quad_d) for q in moduli)
    big_q = 1
    for q in moduli:
        big_q *= q
    return RnsContext(ctxs, big_q)


def rns_decompose(coeffs: Sequence[int], rns: RnsContext) -> List[PolyVec]:
    """Reduce arbitrary-precision coefficients into one PolyVec per modulus."""
    coeffs = [int(c) for c in coeffs]
    return [ctx.poly(coeffs) for ctx in rns.contexts]


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
    m = rns.contexts[0].m
    out = []
    for j in range(m):
        acc = 0
        for part, b in zip(parts, basis):
            acc += part.values[j] * b
        out.append(acc % big_q)
    return out
