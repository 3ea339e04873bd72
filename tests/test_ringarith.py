"""Modular polynomial arithmetic: context construction, the three transform
families, multiplication counting, the schoolbook oracle, and the RNS layer.

The schoolbook path is the oracle for every transform-based product; counts
are asserted as exact integers against the closed forms.
"""
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcond import _checks
from ringcond import ringarith as ra
from ringcond.numtheory import factorize


def ctx_cyclo(q=97, m=8):
    return ra.make_context(q, m)


def ctx_quad(q=17, d=(2,)):
    return ra.make_context(q, 1, d)


def ctx_hybrid(q=12289, m=4, d=(2, 3)):
    return ra.make_context(q, m, d)


def rand_poly(ctx, rng):
    return ctx.poly([rng.randrange(ctx.q) for _ in range(ctx.m)])


def _bitrev(i, bits):
    """i with its low `bits` bits reversed."""
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


# ---------------------------------------------------------------------------
# context construction


def test_make_context_pinned_psi():
    # the canonical worked example: q=17, m=4 has psi=2 (2^4 = 16 = -1 mod 17)
    ctx = ra.make_context(17, 4)
    assert ctx.psi == 2
    assert pow(ctx.psi, ctx.m_cyclo, ctx.q) == ctx.q - 1


def test_make_context_pinned_quad_root():
    ctx = ra.make_context(17, 1, (2,))
    assert ctx.quad_roots == (6,)  # 6^2 = 36 = 2 mod 17; canonical min(6, 11)


def test_psi_is_smallest_solution():
    for q, m in [(17, 4), (97, 8), (257, 16), (7681, 256)]:
        ctx = ra.make_context(q, m)
        brute = min(
            y for y in range(1, q) if pow(y, m, q) == q - 1
        )
        assert ctx.psi == brute
    # a uint64 q with 2^16 solutions: the first y from 1 up that solves
    # y^(2^16) = -1, about 10^4 tries, against the minimum of the coset
    q, m = 3169320961, 1 << 16
    ctx = ra.make_context(q, m)
    assert ctx._fwd.dtype == np.uint64
    assert ctx.psi == next(y for y in range(1, q) if pow(y, m, q) == q - 1) == 10641


def test_quad_roots_are_canonical_square_roots():
    ctx = ra.make_context(12289, 1, (2, 3, 5))
    for d, s in zip(ctx.quad_d, ctx.quad_roots):
        assert s * s % ctx.q == d
        assert s <= ctx.q - s


def test_non_integral_parameters_are_rejected_not_truncated():
    with pytest.raises(TypeError):
        ra.make_context(12289.9, 4, (2,))
    with pytest.raises(TypeError):
        ra.make_context(12289, 4.5, (2,))
    with pytest.raises(TypeError):
        ra.make_context(12289, 4, (2.2,))
    with pytest.raises(TypeError):
        ra.make_rns_context((17.0, 97), 4)
    # numpy integers are integral and still accepted
    ctx = ra.make_context(np.int64(12289), np.int32(4), (np.int64(2),))
    assert (ctx.q, ctx.m_cyclo, ctx.quad_d) == (12289, 4, (2,))
    assert ra.make_rns_context((np.int64(17), 97), 4).moduli == (17, 97)


def test_make_context_validation():
    with pytest.raises(ValueError):
        ra.make_context(16, 4)  # q not prime
    with pytest.raises(ValueError):
        ra.make_context(17, 3)  # m not a power of two
    with pytest.raises(ValueError):
        ra.make_context(13, 8)  # 2m does not divide q-1
    with pytest.raises(ValueError):
        ra.make_context(17, 1, (3,))  # 3 is a quadratic non-residue mod 17
    with pytest.raises(ValueError):
        ra.make_context(17, 1, (2, 2))  # repeated d
    with pytest.raises(ValueError):
        ra.make_context(17, 1, (4,))  # not squarefree
    with pytest.raises(ValueError, match="d_i must be positive"):
        ra.make_context(12289, 4, (0,))
    import sympy

    with pytest.raises(ValueError, match="62 bits"):  # prime, but too large for the exact engine
        ra.make_context(int(sympy.nextprime(1 << 62)), 2)
    with pytest.raises(ValueError, match="62 bits"):  # past is_prime's range, refused by width
        ra.make_context(1 << 90, 1)


def test_scalar_ring_is_allowed_but_has_no_transform():
    # m_cyclo = 1 with no quadratic part: the ring is just Z_q
    ctx = ra.make_context(17, 1)
    a, b = ctx.poly([5]), ctx.poly([7])
    assert ra.schoolbook_mul(a, b).values == (35 % 17,)
    with pytest.raises(ValueError):
        ra.ntt_forward(a)
    with pytest.raises(ValueError):
        ra.wht_forward(a)
    with pytest.raises(ValueError, match="scalar ring"):
        ra.forward(a)
    with pytest.raises(ValueError, match="scalar ring"):
        ra.inverse(ra.PolyVec((5,), ra.Domain.EVALUATION, ctx))


def test_polyvec_validation():
    ctx = ctx_cyclo()
    with pytest.raises(ValueError):
        ctx.poly([1, 2, 3])  # wrong length
    # the convenience constructor reduces mod q ...
    assert ctx.poly([97] * 8).values == (0,) * 8
    assert ctx.poly([-1] * 8).values == (96,) * 8
    # ... while direct construction is strict about the residue range
    with pytest.raises(ValueError):
        ra.PolyVec((0,) * 7 + (97,), ra.Domain.COEFFICIENT, ctx)
    with pytest.raises(ValueError):
        ra.PolyVec((0,) * 7 + (-1,), ra.Domain.COEFFICIENT, ctx)
    with pytest.raises(ValueError, match=r"residue 98 outside \[0, 97\)"):
        ra.PolyVec((0, 5, 98, -1, 0, 0, 0, 0), ra.Domain.COEFFICIENT, ctx)


def test_public_constructors_coerce_or_reject_the_domain():
    ctx = ctx_cyclo()
    values = list(range(8))
    by_value = ctx.poly(values, domain="evaluation")
    assert by_value.domain is ra.Domain.EVALUATION
    assert ra.inverse(by_value) == ra.inverse(ctx.poly(values, ra.Domain.EVALUATION))
    assert ra.PolyVec(values, "coefficient", ctx).domain is ra.Domain.COEFFICIENT
    for bad in (None, "COEFFICIENT", 0):
        with pytest.raises(ValueError):
            ctx.poly(values, domain=bad)
        with pytest.raises(ValueError):
            ra.PolyVec(values, bad, ctx)


def test_coefficient_inputs_reject_floats_and_take_numpy_ints():
    # one integer conversion behind every entry point: no silent truncation
    ctx = ctx_cyclo()
    rns = ra.make_rns_context((17, 97), 8)
    floats = [1.9, 2.5, -0.5, 3.99, 0.0, 1.0, 2.0, 3.0]
    with pytest.raises(TypeError):
        ctx.poly(floats)
    with pytest.raises(TypeError):
        ra.rns_decompose(floats, rns)
    with pytest.raises(TypeError):
        ra.PolyVec([float(v) for v in range(8)], ra.Domain.COEFFICIENT, ctx)
    ints = np.arange(8, dtype=np.int64) * 31 - 100
    want = tuple(int(v) % 97 for v in ints)
    assert ctx.poly(ints).values == want
    assert ctx.poly(list(ints)).values == want
    assert ra.rns_decompose(ints, rns)[1].values == want
    direct = ra.PolyVec(np.array(want, dtype=np.uint64), ra.Domain.COEFFICIENT, ctx)
    assert direct == ctx.poly(want)


def test_rns_rejects_empty_modulus_list():
    with pytest.raises(ValueError):
        ra.make_rns_context((), 4)


def test_values_read_retains_nothing():
    # .values is built on each read, not cached next to the array
    ctx = ra.make_context(3221225473, 1 << 16)
    a = ctx.poly(range(ctx.m))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(a.values) == ctx.m
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


# ---------------------------------------------------------------------------
# negacyclic NTT


def test_ntt_output_ordering_is_bitrev_odd_powers():
    # entry i of the forward transform is a(psi^(2*bitrev(i)+1))
    ctx = ctx_cyclo(97, 8)
    rng = random.Random(5)
    a = rand_poly(ctx, rng)
    out = ra.ntt_forward(a)
    q, m = ctx.q, ctx.m
    for i in range(m):
        e = 2 * _bitrev(i, 3) + 1
        x = pow(ctx.psi, e, q)
        want = 0
        for c in reversed(a.values):
            want = (want * x + c) % q
        assert out.values[i] == want


def test_ntt_roundtrip_and_domains():
    ctx = ctx_cyclo()
    rng = random.Random(6)
    a = rand_poly(ctx, rng)
    f = ra.ntt_forward(a)
    assert f.domain == ra.Domain.EVALUATION
    back = ra.ntt_inverse(f)
    assert back.domain == ra.Domain.COEFFICIENT
    assert back.values == a.values
    with pytest.raises(ra.DomainError):
        ra.ntt_forward(f)
    with pytest.raises(ra.DomainError):
        ra.ntt_inverse(a)


def test_ntt_requires_pure_cyclotomic_context():
    with pytest.raises(ValueError):
        ra.ntt_forward(ctx_hybrid().poly([0] * 16))
    with pytest.raises(ValueError):
        ra.ntt_forward(ctx_quad().poly([0, 0]))


def test_ntt_counts_pinned_m8():
    ctx = ctx_cyclo(97, 8)
    a = ctx.poly(list(range(8)))
    ctx.reset_counter()
    ra.ntt_forward(a)
    assert (ctx.counter.muls, ctx.counter.adds) == (12, 24)
    ctx.reset_counter()
    ra.ntt_inverse(ra.ntt_forward(a))
    # forward (m/2)log m + inverse (m/2)log m + m scaling muls
    assert ctx.counter.muls == 12 + 12 + 8


@pytest.mark.parametrize("m", [2, 4, 16, 64, 1024])
def test_ntt_count_closed_form(m):
    q = 12289 if m <= 512 else 786433
    ctx = ra.make_context(q, m)
    a = ctx.poly([1] * m)
    ctx.reset_counter()
    ra.ntt_forward(a)
    lg = m.bit_length() - 1
    assert ctx.counter.muls == (m // 2) * lg
    assert ctx.counter.adds == m * lg


# ---------------------------------------------------------------------------
# scaled Walsh-Hadamard


def test_wht_worked_example_square():
    # (3 + 2x)^2 mod (x^2 - 2, 17): forward (15, 8), squares (4, 13),
    # inverse (0, 12), i.e. 12x
    ctx = ctx_quad(17, (2,))
    a = ctx.poly([3, 2])
    f = ra.wht_forward(a)
    assert f.values == (15, 8)
    sq = ra.pointwise_mul(f, f)
    assert sq.values == (4, 13)
    back = ra.wht_inverse(sq)
    assert back.values == (0, 12)


def test_wht_roundtrip_multi_prime():
    ctx = ra.make_context(12289, 1, (2, 3, 5))
    rng = random.Random(7)
    a = rand_poly(ctx, rng)
    assert ra.wht_inverse(ra.wht_forward(a)).values == a.values


def test_wht_counts_elide_unit_diagonal():
    ctx = ra.make_context(12289, 1, (2, 3, 5))  # r = 3
    a = ctx.poly([1] * 8)
    ctx.reset_counter()
    ra.wht_forward(a)
    # diagonal has 2^r - 1 non-unit entries (the e=0 cell multiplies by 1)
    assert ctx.counter.muls == 7
    assert ctx.counter.adds == 3 * 8
    ctx.reset_counter()
    ra.wht_inverse(ra.wht_forward(ctx.poly([1] * 8)))
    # inverse diagonal folds in 2^-r, so all 2^r entries count
    assert ctx.counter.muls == 7 + 8
    assert ctx.counter.adds == 48


def test_wht_counts_r4_adds():
    ctx = ra.make_context(12289, 1, (2, 3, 5, 7))
    a = ctx.poly([1] * 16)
    ctx.reset_counter()
    ra.wht_forward(a)
    assert ctx.counter.muls <= 16 and ctx.counter.muls == 15
    assert ctx.counter.adds == 4 * 16


def test_wht_requires_pure_quadratic_context():
    with pytest.raises(ValueError):
        ra.wht_forward(ctx_cyclo().poly([0] * 8))


# ---------------------------------------------------------------------------
# hybrid transform


def test_hybrid_roundtrip_and_counts():
    ctx = ctx_hybrid(12289, 4, (2, 3))  # m = 16
    rng = random.Random(8)
    a = rand_poly(ctx, rng)
    ctx.reset_counter()
    f = ra.hybrid_forward(a)
    # (m/2) log2(m_cyclo) + m = 8*2 + 16
    assert ctx.counter.muls == 32
    back = ra.hybrid_inverse(f)
    assert back.values == a.values
    # inverse costs the same as the forward by the merged diagonal
    assert ctx.counter.muls == 64


def test_hybrid_requires_both_axes():
    with pytest.raises(ValueError):
        ra.hybrid_forward(ctx_cyclo().poly([0] * 8))
    with pytest.raises(ValueError):
        ra.hybrid_forward(ctx_quad().poly([0, 0]))


# ---------------------------------------------------------------------------
# pointwise / schoolbook oracle agreement


def test_pointwise_requires_evaluation_domain():
    ctx = ctx_cyclo()
    a = ctx.poly([1] * 8)
    with pytest.raises(ra.DomainError):
        ra.pointwise_mul(a, a)


def test_pointwise_rejects_mixed_contexts():
    a = ra.ntt_forward(ctx_cyclo(97, 8).poly([1] * 8))
    b = ra.ntt_forward(ctx_cyclo(113, 8).poly([1] * 8))
    with pytest.raises(ValueError):
        ra.pointwise_mul(a, b)


def test_schoolbook_rejects_mixed_contexts():
    a = ctx_cyclo(97, 8).poly([1] * 8)
    b = ctx_cyclo(113, 8).poly([1] * 8)
    with pytest.raises(ValueError, match="different contexts"):
        ra.schoolbook_mul(a, b)


def test_schoolbook_identities():
    ctx = ctx_hybrid(12289, 4, (2, 3))
    one = ctx.poly([1] + [0] * 15)
    rng = random.Random(9)
    a = rand_poly(ctx, rng)
    assert ra.schoolbook_mul(a, one).values == a.values
    # x^(mc-1) * x = x^mc = -1 in the negacyclic factor
    x1 = ctx.poly([0, 1] + [0] * 14)
    x3 = ctx.poly([0, 0, 0, 1] + [0] * 12)
    got = ra.schoolbook_mul(x1, x3)
    want = [0] * 16
    want[0] = ctx.q - 1
    assert got.values == tuple(want)
    # t_i^2 = d_i: the generator of each quadratic factor squares to d_i
    t1 = [0] * 16
    t1[1 * ctx.m_cyclo] = 1  # mask e = 01: the sqrt(2) generator
    got = ra.schoolbook_mul(ctx.poly(t1), ctx.poly(t1))
    want = [0] * 16
    want[0] = 2
    assert got.values == tuple(want)


def _transform_pair(ctx):
    if ctx.r == 0:
        return ra.ntt_forward, ra.ntt_inverse
    if ctx.m_cyclo == 1:
        return ra.wht_forward, ra.wht_inverse
    return ra.hybrid_forward, ra.hybrid_inverse


@pytest.mark.parametrize(
    "maker",
    [
        lambda: ctx_cyclo(97, 8),
        lambda: ctx_cyclo(7681, 64),
        lambda: ctx_quad(17, (2,)),
        lambda: ra.make_context(12289, 1, (2, 3, 5)),
        lambda: ctx_hybrid(12289, 4, (2, 3)),
        lambda: ctx_hybrid(7681, 16, (5,)),
    ],
)
def test_transform_multiplication_matches_schoolbook(maker):
    ctx = maker()
    fwd, inv = _transform_pair(ctx)
    rng = random.Random(10)
    for _ in range(6):
        a, b = rand_poly(ctx, rng), rand_poly(ctx, rng)
        via_transform = inv(ra.pointwise_mul(fwd(a), fwd(b)))
        assert via_transform.values == ra.schoolbook_mul(a, b).values


# Both kernel dtypes: a prime just below 2^32 runs in uint64, where products
# of residues near q - 1 come within 2^-16 of 2^64; a 62-bit prime runs in
# Python ints.  Both are 1 mod 512 and have 2, 3 and 5 as squares.
Q_U64 = 4294937089
Q_OBJECT = 4611686018427379201


def _closed_counts(ctx):
    """(forward, inverse) as (muls, adds) from the closed forms."""
    m, r, lg = ctx.m, ctx.r, ctx.m_cyclo.bit_length() - 1
    if r == 0:
        return (m // 2 * lg, m * lg), (m // 2 * lg + m, m * lg)
    if ctx.m_cyclo == 1:  # the unit diagonal entry is not counted
        return (m - 1, r * m), (m, r * m)
    both = (m // 2 * lg + m, m * lg + r * m)
    return both, both


@pytest.mark.parametrize("q", [Q_U64, Q_OBJECT], ids=["uint64", "object"])
@pytest.mark.parametrize("mc, ds", [(64, ()), (1, (2, 3, 5)), (8, (2, 3))],
                         ids=["ntt", "wht", "hybrid"])
def test_transforms_exact_at_both_dtypes(q, mc, ds):
    ctx = ra.make_context(q, mc, ds)
    assert (q < 1 << 32) == (ctx._fwd.dtype == np.uint64)
    fwd, inv = _transform_pair(ctx)
    want_fwd, want_inv = _closed_counts(ctx)
    rng = random.Random(13)
    top = ctx.poly([q - 1] * ctx.m)
    mixed = ctx.poly([rng.choice((q - 1, q - 2, 1, rng.randrange(q))) for _ in range(ctx.m)])
    for a, b in [(top, top), (top, mixed), (mixed, rand_poly(ctx, rng))]:
        ctx.reset_counter()
        fa = fwd(a)
        assert (ctx.counter.muls, ctx.counter.adds) == want_fwd
        assert all(type(v) is int and 0 <= v < q for v in fa.values)
        ctx.reset_counter()
        assert inv(fa).values == a.values
        assert (ctx.counter.muls, ctx.counter.adds) == want_inv
        via_transform = inv(ra.pointwise_mul(fa, fwd(b)))
        assert via_transform.values == ra.schoolbook_mul(a, b).values


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=256), min_size=16, max_size=16),
       st.lists(st.integers(min_value=0, max_value=256), min_size=16, max_size=16))
def test_hybrid_homomorphism_property(xs, ys):
    ctx = ra.make_context(12289, 4, (2, 3))
    a = ctx.poly(xs)
    b = ctx.poly(ys)
    lhs = ra.hybrid_inverse(ra.pointwise_mul(ra.hybrid_forward(a), ra.hybrid_forward(b)))
    assert lhs.values == ra.schoolbook_mul(a, b).values


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7680), min_size=32, max_size=32))
def test_ntt_roundtrip_property(xs):
    ctx = ra.make_context(7681, 32)
    a = ctx.poly(xs)
    assert ra.ntt_inverse(ra.ntt_forward(a)).values == a.values


# ---------------------------------------------------------------------------
# RNS / CRT layer


def test_rns_pinned_limbs():
    rns = ra.make_rns_context((17, 97), 4)
    assert rns.moduli == (17, 97)
    assert rns.modulus_product == 1649
    parts = ra.rns_decompose([100, 0, 1648, 5], rns)
    assert parts[0].values == (15, 0, 1648 % 17, 5)
    assert parts[1].values == (3, 0, 1648 % 97, 5)
    back = ra.rns_reconstruct(parts, rns)
    assert back == [100, 0, 1648, 5]


def test_rns_rejects_duplicate_moduli():
    with pytest.raises(ValueError):
        ra.make_rns_context((17, 17), 4)


def test_rns_rejects_foreign_limbs():
    rns = ra.make_rns_context((17, 97), 4)
    other = ra.make_context(113, 4)
    parts = ra.rns_decompose([1, 2, 3, 4], rns)
    with pytest.raises(ValueError):
        ra.rns_reconstruct([parts[0], other.poly([1, 2, 3, 4])], rns)
    with pytest.raises(ValueError):
        ra.rns_reconstruct(parts[:1], rns)


def test_rns_reconstruct_requires_coefficient_domain():
    # CRT of evaluation-domain limbs would be plausible-looking wrong integers
    rns = ra.make_rns_context((17, 97), 4)
    parts = [ra.ntt_forward(p) for p in ra.rns_decompose([1, 2, 3, 4], rns)]
    with pytest.raises(ra.DomainError):
        ra.rns_reconstruct(parts, rns)
    with pytest.raises(ra.DomainError):
        ra.rns_reconstruct([ra.rns_decompose([1, 2, 3, 4], rns)[0], parts[1]], rns)


def test_rns_big_coefficient_multiply():
    # negacyclic product with coefficients far beyond any single modulus,
    # checked against exact integer arithmetic
    rns = ra.make_rns_context((7681, 12289, 15361), 8)
    big_q = rns.modulus_product
    rng = random.Random(11)
    a = [rng.randrange(10**6) for _ in range(8)]
    b = [rng.randrange(10**6) for _ in range(8)]
    prods = []
    for pa, pb in zip(ra.rns_decompose(a, rns), ra.rns_decompose(b, rns)):
        f = ra.ntt_forward(pa)
        g = ra.ntt_forward(pb)
        prods.append(ra.ntt_inverse(ra.pointwise_mul(f, g)))
    got = ra.rns_reconstruct(prods, rns)
    want = [0] * 8
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < 8:
                want[k] += ai * bj
            else:
                want[k - 8] -= ai * bj
    assert got == [w % big_q for w in want]


# ---------------------------------------------------------------------------
# counter hygiene


def test_counter_reset_and_batching():
    ctx = ctx_cyclo(97, 8)
    a = ctx.poly([1] * 8)
    ra.ntt_forward(a)
    assert ctx.counter.muls > 0
    ctx.reset_counter()
    assert (ctx.counter.muls, ctx.counter.adds) == (0, 0)


def test_pointwise_counts_one_mul_per_slot():
    ctx = ctx_cyclo(97, 8)
    f = ra.ntt_forward(ctx.poly([1] * 8))
    ctx.reset_counter()
    ra.pointwise_mul(f, f)
    assert ctx.counter.muls == 8
    assert ctx.counter.adds == 0


# ---------------------------------------------------------------------------
# PolyVec: a read-only residue array, with .values as a tuple of Python ints


@pytest.mark.parametrize("q", [12289, Q_OBJECT], ids=["uint64", "object"])
@pytest.mark.parametrize("mc, ds", [(16, ()), (1, (2, 3, 5)), (8, (2, 3))],
                         ids=["ntt", "wht", "hybrid"])
def test_polyvec_array_contract(q, mc, ds):
    ctx = ra.make_context(q, mc, ds)
    fwd, inv = _transform_pair(ctx)
    rng = random.Random(21)
    a, b = rand_poly(ctx, rng), rand_poly(ctx, rng)
    fa, fb = fwd(a), fwd(b)
    inputs = [(p, p._arr.copy()) for p in (a, b, fa, fb)]
    prod = ra.pointwise_mul(fa, fb)
    back = inv(prod)
    direct = ra.PolyVec(back.values, ra.Domain.COEFFICIENT, ctx)
    fwd(a), inv(fa)
    # no transform or product changed its input
    for p, snapshot in inputs:
        assert np.array_equal(p._arr, snapshot)
        assert p.values == tuple(snapshot.tolist())
    for p in (a, fa, prod, back, direct):
        assert type(p.values) is tuple and all(type(v) is int for v in p.values)
        assert p._arr.dtype == ctx._fwd.dtype and not p._arr.flags.writeable
        with pytest.raises(ValueError):
            p._arr[0] = 0
        with pytest.raises(AttributeError):
            p.domain = ra.Domain.EVALUATION
    # equality compares residues, domain and context, as the dataclass did
    assert direct == back and direct == ctx.poly(list(back.values))
    assert inv(fa) == a and a != fa and a != b
    assert a != ra.PolyVec(a.values, ra.Domain.EVALUATION, ctx)
    assert a != ra.make_context(q, mc, ds).poly(a.values)
    assert (a == a.values) is False
    with pytest.raises(TypeError):
        hash(a)
    # one store per vector; contexts compare by identity
    assert ra.PolyVec.__slots__ == ("_arr", "domain", "ctx")
    assert ra.RingContext.__eq__ is object.__eq__


# ---------------------------------------------------------------------------
# stage plans against the natural-layout kernels they replaced


def _ref_fold(x, q, out):
    if x.dtype == object:
        np.remainder(x, q, out=out)
    else:
        np.subtract(x, q, out=out)
        np.minimum(x, out, out=out)


def _ref_scale(a, d, q):
    np.multiply(a, d, out=a)
    np.remainder(a, q, out=a)


def _ref_butterflies(a, tmp, shape, q):
    view, s = a.reshape(shape), tmp.reshape(shape)
    v = view[..., 1, :]
    np.copyto(s[..., 0, :], v)
    np.subtract(q, v, out=s[..., 1, :])
    np.add(s, view[..., :1, :], out=s)
    _ref_fold(tmp, q, a)


def _ref_ntt(a, ctx):
    q, mc = ctx.q, ctx.m_cyclo
    blocks, tmp = a.size // mc, np.empty_like(a)
    t, lvl = mc, 1
    while lvl < mc:
        t >>= 1
        shape = (blocks, lvl, 2, t)
        _ref_scale(a.reshape(shape)[:, :, 1], ctx._fwd[lvl:2 * lvl, None], q)
        _ref_butterflies(a, tmp, shape, q)
        lvl <<= 1


def _ref_intt(a, ctx):
    q, mc = ctx.q, ctx.m_cyclo
    blocks, tmp = a.size // mc, np.empty_like(a)
    t, lvl = 1, mc >> 1
    while lvl >= 1:
        shape = (blocks, lvl, 2, t)
        _ref_butterflies(a, tmp, shape, q)
        _ref_scale(a.reshape(shape)[:, :, 1], ctx._inv[lvl:2 * lvl, None], q)
        t <<= 1
        lvl >>= 1


def _ref_hadamard(a, ctx):
    tmp = np.empty_like(a)
    for i in range(ctx.r):
        _ref_butterflies(a, tmp, (-1, 2, ctx.m_cyclo << i), ctx.q)


def _ref_forward(x, ctx):
    a = x.copy()
    _ref_ntt(a, ctx)
    if ctx.r:
        _ref_scale(a.reshape(-1, ctx.m_cyclo), ctx._diag[:, None], ctx.q)
        _ref_hadamard(a, ctx)
    return a


def _ref_inverse(x, ctx):
    a = x.copy()
    _ref_hadamard(a, ctx)
    _ref_intt(a, ctx)
    if ctx.r:
        _ref_scale(a.reshape(-1, ctx.m_cyclo), ctx._hybrid_idiag[:, None], ctx.q)
    else:
        _ref_scale(a, pow(ctx.m_cyclo, ctx.q - 2, ctx.q), ctx.q)
    return a


# q = 3 * 2^30 + 1 runs in uint64, the 62-bit q = 1 + 8796093022 * 2^18 in
# Python ints; both support every m_cyclo up to 2^17.
Q_U64_2POW30 = 3221225473
Q_OBJECT_2POW18 = 2305843009218936833


def _residue_ds(q, r):
    """The first r squarefree integers >= 2 that are squares mod q."""
    out, d = [], 2
    while len(out) < r:
        if (all(e == 1 for _, e in factorize(d).factors)
                and pow(d, (q - 1) // 2, q) == 1):
            out.append(d)
        d += 1
    return tuple(out)


def _oracle_tables(ctx):
    """The context tables by pure-int loops: powers of psi and of its
    inverse one entry at a time, indexed by bit reversal; the diagonal and
    d-products one mask at a time; each inverse diagonal entry by its own
    inversion, pow(d, q - 2, q)."""
    q, mc, r = ctx.q, ctx.m_cyclo, ctx.r

    def powers(x):
        out = [1] * mc
        for i in range(1, mc):
            out[i] = out[i - 1] * x % q
        return [out[_bitrev(i, ctx.log_mc)] for i in range(mc)]

    diag, dprod = [1] * (1 << r), [1] * (1 << r)
    for i in range(r):
        for e in range(1 << i):
            diag[e | 1 << i] = diag[e] * ctx.quad_roots[i] % q
            dprod[e | 1 << i] = dprod[e] * (ctx.quad_d[i] % q) % q
    invm = pow(ctx.m % q, q - 2, q)
    return {"_fwd": powers(ctx.psi), "_inv": powers(pow(ctx.psi, q - 2, q)),
            "_diag": diag, "_dprod": dprod,
            "_hybrid_idiag": [invm * pow(d, q - 2, q) % q for d in diag]}


_BENCH_Q12, _BENCH_Q13 = 3169320961, 20666646529  # bench --mcyclo 16 --r 12, 13


@pytest.mark.parametrize("q, mc, ds", [
    pytest.param(Q_U64_2POW30, 1 << 16, (), id="ntt-u64"),
    pytest.param(Q_U64_2POW30, 1, _residue_ds(Q_U64_2POW30, 12), id="wht-u64"),
    pytest.param(_BENCH_Q12, 16, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
                 id="16x12-u64"),
    pytest.param(_BENCH_Q13, 16, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43),
                 id="16x13-object"),
    pytest.param(Q_OBJECT_2POW18, 1 << 12, (), id="ntt-62bit"),
    pytest.param(Q_OBJECT_2POW18, 1, _residue_ds(Q_OBJECT_2POW18, 10), id="wht-62bit"),
    pytest.param(Q_OBJECT_2POW18, 16, _residue_ds(Q_OBJECT_2POW18, 12), id="16x12-62bit"),
    # q = 3 (mod 4), where Tonelli-Shanks takes no step past a^((q+1)/4)
    pytest.param(2**31 - 1, 1, _residue_ds(2**31 - 1, 8), id="wht-3mod4-u64"),
    pytest.param(2**61 - 1, 1, _residue_ds(2**61 - 1, 8), id="wht-3mod4-62bit"),
])
def test_tables_match_the_pure_int_oracle(q, mc, ds):
    ctx = ra.make_context(q, mc, ds)
    # a residue has one square root s <= q - s, so the roots are pinned
    for d, s in zip(ctx.quad_d, ctx.quad_roots):
        assert s * s % q == d and s <= q - s, d
    want = _oracle_tables(ctx)
    for name in ("_fwd", "_inv", "_diag", "_hybrid_idiag"):
        table = getattr(ctx, name)
        assert table.dtype == (np.uint64 if q < 1 << 32 else object), name
        assert table.tolist() == want[name], name
    assert ctx._dprod == want["_dprod"]
    assert all(type(v) is int for v in ctx._dprod)


def _plan_shapes():
    for q, cap in ((Q_U64_2POW30, 1 << 16), (Q_OBJECT_2POW18, 1 << 10)):
        for blocks in (1, 2, 64, 4096):
            mc = 1 if blocks > 1 else 2  # m_cyclo = 1: the WHT
            while mc * blocks <= cap:
                yield pytest.param(q, mc, blocks, id=f"{q.bit_length()}bit-mc{mc}-b{blocks}")
                mc <<= 1
    # r lazy Hadamard passes in a row leave entries below 2^r q: up to 2^44
    # at q just below 2^32 over 4096 blocks; the 62-bit q runs 8 axes in
    # two layouts
    for q, mc, blocks in ((Q_U64, 16, 4096), (Q_U64, 1, 4096), (Q_OBJECT, 4, 256)):
        yield pytest.param(q, mc, blocks, id=f"top{q.bit_length()}bit-mc{mc}-b{blocks}")


@pytest.mark.parametrize("q, mc, blocks", list(_plan_shapes()))
def test_stage_plans_match_natural_layout_kernels(q, mc, blocks):
    ctx = ra.make_context(q, mc, _residue_ds(q, blocks.bit_length() - 1))
    fwd, inv = _transform_pair(ctx)
    want_fwd, want_inv = _closed_counts(ctx)
    rng = np.random.default_rng(mc * blocks)
    x = rng.integers(0, q, ctx.m, dtype=np.uint64).astype(ctx._fwd.dtype)
    x[:2] = q - 1
    a = ctx.poly(x.tolist())
    ctx.reset_counter()
    fa = fwd(a)
    assert (ctx.counter.muls, ctx.counter.adds) == want_fwd
    assert np.array_equal(fa._arr, _ref_forward(x, ctx))
    ctx.reset_counter()
    back = inv(fa)
    assert (ctx.counter.muls, ctx.counter.adds) == want_inv
    assert np.array_equal(back._arr, _ref_inverse(fa._arr, ctx))
    assert np.array_equal(back._arr, x)
    # all q - 1 meets the inverse's leading Hadamard passes at their bound
    top = ctx.poly([q - 1] * ctx.m, ra.Domain.EVALUATION)
    out = inv(top)
    for arr in (fa._arr, out._arr):
        assert ((arr >= 0) & (arr < q)).all()
    assert np.array_equal(out._arr, _ref_inverse(top._arr, ctx))


@pytest.mark.parametrize("bufsize", [None, 4096], ids=["default", "caller-set"])
def test_transforms_leave_the_callers_buffer_size(monkeypatch, bufsize):
    big = ra.make_context(Q_U64_2POW30, 1 << 16)
    small = ctx_cyclo()
    seen = []
    passes = ra._passes
    monkeypatch.setattr(ra, "_passes", lambda *args: seen.append(np.getbufsize()) or passes(*args))
    outside = np.getbufsize()
    with np.errstate():
        if bufsize:
            np.setbufsize(bufsize)
        want = np.getbufsize()
        a = rand_poly(big, random.Random(37))
        fa = ra.forward(a)
        assert np.getbufsize() == want
        assert ra.inverse(fa) == a
        assert np.getbufsize() == want
        ra.forward(rand_poly(small, random.Random(37)))
        assert np.getbufsize() == want
    assert np.getbufsize() == outside
    # the large ring ran unbuffered, the small one under the caller's size
    assert seen == [ra._BUFSIZE, ra._BUFSIZE, want]


def test_ntt_65536_against_direct_evaluation():
    # independent of both kernels: entry i is a(psi^(2 bitrev(i) + 1))
    q, m = Q_U64_2POW30, 1 << 16
    ctx = ra.make_context(q, m)
    rng = random.Random(17)
    a = rand_poly(ctx, rng)
    out = ra.ntt_forward(a)
    coeffs = a.values[::-1]
    for i in rng.sample(range(m), 16):
        x = pow(ctx.psi, 2 * _bitrev(i, 16) + 1, q)
        want = 0
        for c in coeffs:
            want = (want * x + c) % q
        assert out.values[i] == want, i


# ---------------------------------------------------------------------------
# the division path of _mod, at uint64 arrays of _DIVIDE_MIN entries and more

# 2^32 - 2^20 + 1: prime, 1 mod 2^20, with 2, 3, 5 and 7 as squares
Q_U64_2POW20 = 4293918721


@pytest.mark.parametrize("q", [Q_U64, Q_OBJECT], ids=["uint64", "object"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_mod_matches_remainder_around_the_crossover(q, offset):
    n = ra._DIVIDE_MIN + offset
    k = random.Random(23).randrange(2, q - 1)
    products = [0, 1, q - 1, (q - 1) ** 2, k * q, k * q - 1, (q - 1) * q, (q - 1) * q - 1]
    dtype = np.uint64 if q < 1 << 32 else object
    whole = np.array((products * (2 * n))[:2 * n], dtype=dtype)
    for a in (whole[:n].copy(), whole[::2]):  # contiguous, and strided like a stage's odd half
        want = np.remainder(a, q)
        ra._mod(a, q)
        assert a.dtype == want.dtype and np.array_equal(a, want)


@pytest.mark.parametrize("q, mc, ds", [(Q_U64, 256, (2, 3, 5)), (Q_U64_2POW20, 2048, ())],
                         ids=["hybrid256x8", "ntt2048"])
def test_transforms_exact_through_the_division_path(q, mc, ds):
    ctx = ra.make_context(q, mc, ds)
    assert ctx._fwd.dtype == np.uint64 and ctx.m // 2 >= ra._DIVIDE_MIN
    fwd, inv = _transform_pair(ctx)
    want_fwd, want_inv = _closed_counts(ctx)
    rng = random.Random(29)
    top = ctx.poly([q - 1] * ctx.m)
    mixed = ctx.poly([rng.choice((q - 1, q - 2, 1, rng.randrange(q))) for _ in range(ctx.m)])
    evals = []
    for a in (top, mixed):
        ctx.reset_counter()
        fa = fwd(a)
        assert (ctx.counter.muls, ctx.counter.adds) == want_fwd
        assert np.array_equal(fa._arr, _ref_forward(a._arr, ctx))
        ctx.reset_counter()
        back = inv(fa)
        assert (ctx.counter.muls, ctx.counter.adds) == want_inv
        assert np.array_equal(back._arr, _ref_inverse(fa._arr, ctx))
        assert back == a
        evals.append(fa)
    product = ra.pointwise_mul(*evals)
    assert np.array_equal(product._arr, np.remainder(evals[0]._arr * evals[1]._arr, q))
    assert inv(product).values == ra.schoolbook_mul(top, mixed).values


# ---------------------------------------------------------------------------
# fault injection: the plans read the live context tables


def _roundtrip_failures(ctx):
    return _checks.check_transform_roundtrips(trials=2, ctx=ctx)


@pytest.mark.parametrize("mc, ds", [(8, ()), (256, ()), (4, (2, 3)), (16, (2, 3, 5, 7, 11, 13))],
                         ids=["ntt8", "ntt256", "hybrid4x4", "hybrid16x64"])
def test_roundtrip_detects_corrupted_inverse_twiddle(mc, ds):
    ctx = ra.make_context(Q_U64_2POW30, mc, _residue_ds(Q_U64_2POW30, len(ds)))
    assert not _roundtrip_failures(ctx)  # builds and uses the plans first
    ctx._inv[mc - 1] = ctx._inv[mc - 1] * 3 % ctx.q
    assert _roundtrip_failures(ctx)


@pytest.mark.parametrize("mc, r", [(256, 0), (1024, 0), (16, 6), (16, 7)])
def test_roundtrip_detects_corrupted_late_stage_twiddle(mc, r):
    # index >= sqrt(m_cyclo): only stages in a rotated layout read it
    ctx = ra.make_context(Q_U64_2POW30, mc, _residue_ds(Q_U64_2POW30, r))
    assert not _roundtrip_failures(ctx)
    steps = ctx._plan(True).steps
    assert any(st.rot for st in steps)
    i = mc - 2
    assert i >= math.isqrt(mc)
    ctx._fwd[i] = ctx._fwd[i] * 5 % ctx.q
    assert _roundtrip_failures(ctx)


def test_plans_hold_views_of_context_tables():
    for mc, ds in ((4096, ()), (16, _residue_ds(12289, 7)), (64, (2, 3, 5)),
                   (1, _residue_ds(12289, 7))):
        ctx = ra.make_context(12289 if mc <= 64 else Q_U64_2POW30, mc, ds)
        for forward, tables in ((True, (ctx._fwd, ctx._diag)),
                                (False, (ctx._inv, ctx._hybrid_idiag))):
            steps = ctx._plan(forward).steps
            assert len({st.rot for st in steps}) > 1
            for st in steps:
                if st.factors is not None:
                    assert any(np.shares_memory(st.factors, t) for t in tables)
                    assert st.factors.size <= max(t.size for t in tables)


def test_rns_layer_mixed_dtypes_returns_python_ints():
    # a 62-bit limb computes in Python ints, the others in uint64
    rns = ra.make_rns_context((97, 12289, Q_OBJECT), 4, (2,))
    rng = random.Random(19)
    coeffs = [rng.randrange(-(1 << 200), 1 << 200) for _ in range(8)]
    parts = ra.rns_decompose(coeffs, rns)
    for part, q in zip(parts, rns.moduli):
        assert part.values == tuple(c % q for c in coeffs)
    back = ra.rns_reconstruct(parts, rns)
    assert back == [c % rns.modulus_product for c in coeffs]
    assert all(type(v) is int for v in back)
    with pytest.raises(ValueError):
        ra.rns_decompose(coeffs[:7], rns)
