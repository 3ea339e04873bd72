"""Matrix kernel: precision carried by the dtype, exact compensated products,
inversion paths, and the explicit Vandermonde inverse.

mpmath at 200 bits is the oracle for anything the double/extended paths must
approximate.
"""
import math

import mpmath
import numpy as np
import pytest

from ringcond import linalg
from ringcond.embeddings import primitive_roots_of_unity
from ringcond.numtheory import cyclotomic_poly


@pytest.fixture(autouse=True)
def _oracle_precision():
    old = mpmath.mp.prec
    mpmath.mp.prec = 220  # the oracle must out-resolve everything under test
    yield
    mpmath.mp.prec = old


def _mp_matrix(a):
    """numpy complex matrix -> exact mpmath matrix (doubles embed exactly)."""
    n, m = a.shape
    out = mpmath.matrix(n, m)
    for i in range(n):
        for j in range(m):
            v = complex(a[i, j])
            out[i, j] = mpmath.mpc(v.real, v.imag)
    return out


def _mp_norm(m):
    return float(mpmath.sqrt(sum(abs(v) ** 2 for v in m)))


def _rand_complex(n, rng_seed=7):
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# frobenius / kronecker


def test_frobenius_known_values():
    assert linalg.frobenius(np.eye(4)) == pytest.approx(2.0)
    a = np.array([[3.0, 4.0]])
    assert linalg.frobenius(a) == pytest.approx(5.0)
    z = np.array([[3 + 4j]])
    assert linalg.frobenius(z) == pytest.approx(5.0)


def test_frobenius_multiplicative_under_kron():
    a = _rand_complex(5, 1)
    b = _rand_complex(3, 2)
    k = linalg.kronecker(a, b)
    assert k.shape == (15, 15)
    assert linalg.frobenius(k) == pytest.approx(
        linalg.frobenius(a) * linalg.frobenius(b), rel=1e-13
    )


def test_kronecker_block_structure():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 5], [6, 7]])
    k = linalg.kronecker(a, b)
    assert np.array_equal(k[:2, 2:], 2 * b)
    assert np.array_equal(k[2:, :2], 3 * b)


def test_condition_number_multiplicative_under_kron():
    a = _rand_complex(4, 3)
    b = _rand_complex(5, 4)
    got = linalg.condition_number(linalg.kronecker(a, b))
    want = linalg.condition_number(a) * linalg.condition_number(b)
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# exact compensated gemm


@pytest.mark.parametrize("n", [2, 5, 12, 33])
def test_gemm_exact_dd_matches_mpmath(n):
    a = _rand_complex(n, 11).astype(np.complex128)
    b = _rand_complex(n, 12).astype(np.complex128)
    hi, lo = linalg._gemm_exact_dd(a, b)
    want = _mp_matrix(a) * _mp_matrix(b)
    err = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            got = mpmath.mpc(float(hi[i, j].real), float(hi[i, j].imag)) + mpmath.mpc(
                float(lo[i, j].real), float(lo[i, j].imag)
            )
            err[i, j] = got - want[i, j]
    assert _mp_norm(err) <= 2.0**-95 * _mp_norm(want)


def test_gemm_exact_dd_extreme_scales():
    # row/column scaling spans ~2^80: the chunking must stay exact per entry
    a = _rand_complex(6, 13).astype(np.complex128)
    b = _rand_complex(6, 14).astype(np.complex128)
    a *= np.exp2(np.linspace(-40, 40, 6))[:, None]
    b *= np.exp2(np.linspace(35, -35, 6))[None, :]
    hi, lo = linalg._gemm_exact_dd(a, b)
    want = _mp_matrix(a) * _mp_matrix(b)
    for i in range(6):
        for j in range(6):
            got = mpmath.mpc(float(hi[i, j].real), float(hi[i, j].imag)) + mpmath.mpc(
                float(lo[i, j].real), float(lo[i, j].imag)
            )
            mag = abs(want[i, j])
            if mag:
                assert abs(got - want[i, j]) / mag <= 2.0**-88


def test_two_sum_is_error_free():
    a = np.float64(1.0)
    b = np.float64(2.0**-60)
    s, e = linalg._two_sum(a, b)
    assert float(s) == 1.0
    assert float(e) == 2.0**-60


# ---------------------------------------------------------------------------
# inversion


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_invert_double_residual(n):
    a = _rand_complex(n, 21)
    x = linalg.invert(a)
    assert x.dtype == np.complex128
    r = np.eye(n) - a @ x
    assert linalg.frobenius(r) <= 1e-12 * max(1.0, linalg.frobenius(x))


def test_invert_real_input_promotes():
    # real input is promoted by its own dtype, never by outside state
    for dtype, want in ((np.float64, np.complex128), (np.int64, np.complex128),
                        (np.longdouble, np.clongdouble)):
        x = linalg.invert(np.array([[2, 0], [0, 4]], dtype=dtype))
        assert x.dtype == want
        assert np.allclose(x.astype(np.complex128), np.diag([0.5, 0.25]))


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.invert(np.ones((2, 3)))


def test_invert_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(linalg.SingularMatrixError, match="pivot magnitude"):
        linalg.invert(a)
    with pytest.raises(linalg.SingularMatrixError, match="pivot magnitude"):
        linalg.invert(a.astype(np.clongdouble))


@pytest.mark.parametrize("n", [3, 8, 20])
def test_invert_extended_beats_double(n):
    roots = np.exp(2j * np.pi * np.arange(n) / (2 * n + 1))
    a = linalg.vandermonde(roots)
    x = linalg.invert(a.astype(np.clongdouble))
    assert x.dtype == np.clongdouble
    # residual measured at 200 bits against the exact doubles inside a
    mp_a = _mp_matrix(a.astype(np.complex128))
    mp_x = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            hi = complex(np.complex128(x[i, j]))
            lo = complex(np.complex128(x[i, j] - np.clongdouble(hi)))
            mp_x[i, j] = mpmath.mpc(hi.real, hi.imag) + mpmath.mpc(lo.real, lo.imag)
    r = mpmath.eye(n) - mp_a * mp_x
    # well under double roundoff: the refinement really added bits
    assert _mp_norm(r) <= 1e-17 * _mp_norm(mp_x) * _mp_norm(mp_a)


def test_invert_extended_falls_back_when_seed_cannot_refine(monkeypatch):
    calls = []
    orig = linalg._plain_lu_invert

    def spy(a):
        calls.append(a.dtype)
        return orig(a)

    monkeypatch.setattr(linalg, "_plain_lu_invert", spy)
    eps = 1e-17  # representable in clongdouble, far below double resolution
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.clongdouble)
    a[1, 1] += np.clongdouble(eps)
    x = linalg.invert(a)
    assert calls, "expected the in-dtype LU fallback to engage"
    r = np.eye(2, dtype=np.clongdouble) - a @ x
    # cond ~ 1e17: the double seed's residual is O(10); the fallback keeps it tiny
    assert float(linalg.frobenius(r)) <= 1e-1 * float(linalg.frobenius(x))


def test_plain_lu_matches_lapack():
    a = _rand_complex(16, 31)
    assert np.allclose(linalg._plain_lu_invert(a), np.linalg.inv(a), atol=1e-11)


# ---------------------------------------------------------------------------
# Vandermonde and its explicit inverse


def test_vandermonde_layout():
    v = linalg.vandermonde([2.0, 3.0])
    assert np.allclose(v, [[1, 2], [1, 3]])
    v = linalg.vandermonde(np.array([1j]))
    assert v.shape == (1, 1) and v[0, 0] == 1


def test_vandermonde_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate roots"):
        linalg.vandermonde([1.0, 2.0, 1.0 + 1e-15])
    # distinct but close: must pass
    linalg.vandermonde([1.0, 1.0 + 1e-9])


def test_vandermonde_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.vandermonde(np.ones((2, 2)))
    with pytest.raises(ValueError):
        linalg.vandermonde([])


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_explicit_inverse_is_inverse(n):
    rng = np.random.default_rng(n)
    roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = linalg.vandermonde(roots)
    w = linalg.vandermonde_inverse_explicit(roots)
    cond = linalg.condition_number(v)
    assert linalg.frobenius(v @ w - np.eye(n)) <= 1e-13 * cond


def test_explicit_inverse_matches_exact_rationals():
    # integer roots: the exact inverse has rational entries computable by hand
    roots = [1.0, 2.0, 3.0]
    w = linalg.vandermonde_inverse_explicit(roots)
    want = np.array([[3.0, -3.0, 1.0], [-2.5, 4.0, -1.5], [0.5, -1.0, 0.5]])
    assert np.allclose(w, want, atol=1e-13)


def test_explicit_inverse_extended_dtype():
    roots = np.array([1.0, 2.0, 4.0], dtype=np.longdouble)
    assert linalg.vandermonde(roots).dtype == np.clongdouble
    assert linalg.vandermonde_inverse_explicit(roots).dtype == np.clongdouble
    assert linalg.vandermonde_inverse_explicit([1.0, 2.0, 4.0]).dtype == np.complex128


@pytest.mark.parametrize("n", [251, 1280])
def test_explicit_inverse_large_unit_circle_sets(n):
    # unit-circle root sets consumed along the arc lose every significant
    # digit by a few hundred roots; the builder must stay accurate to
    # dimension 512 regardless of the order the roots arrive in
    k = np.array([j for j in range(1, n) if math.gcd(j, n) == 1])
    roots = np.exp(2j * np.pi * k / n)
    w_lu = linalg.invert(linalg.vandermonde(roots))
    w_ex = linalg.vandermonde_inverse_explicit(roots)
    assert np.max(np.abs(w_ex - w_lu) / np.abs(w_lu)) <= 1e-8


def _leja_order_masked(roots):
    # reference greedy loop: consumed roots are tracked in a mask and reset
    # to -inf after every step
    n = roots.size
    order = np.empty(n, dtype=np.intp)
    taken = np.zeros(n, dtype=bool)
    gain = np.zeros(n)
    j = int(np.argmax(np.abs(roots)))
    for t in range(n):
        order[t] = j
        taken[j] = True
        with np.errstate(divide="ignore"):
            gain += np.log(np.abs(roots - roots[j]).astype(np.float64))
        gain[taken] = -np.inf
        if t + 1 < n:
            j = int(np.argmax(gain))
    return order


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_explicit_inverse_equals_masked_leja_reference(precision, monkeypatch):
    rng = np.random.default_rng(11)
    real = linalg.PRECISIONS[precision]
    dtype = np.promote_types(real, np.complex128)
    sets = [primitive_roots_of_unity(n, real=real) for n in (2, 7, 105, 1280)]
    sets.append((rng.standard_normal(40) + 1j * rng.standard_normal(40)).astype(dtype))
    for roots in sets:
        assert np.array_equal(linalg._leja_order(roots), _leja_order_masked(roots))
        got = linalg.vandermonde_inverse_explicit(roots)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_leja_order", _leja_order_masked)
            want = linalg.vandermonde_inverse_explicit(roots)
        assert got.dtype == dtype and np.array_equal(got, want)


def _root_products(roots):
    # P'(r_j) = prod_{k != j} (r_j - r_k), straight from the definition
    return np.array([np.prod(z - np.delete(roots, j)) for j, z in enumerate(roots)])


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("n", [2, 7, 36, 105, 173, 360, 1155])
def test_lagrange_inverse_of_exact_cyclotomic_matches_leja_product(n, precision):
    real = linalg.PRECISIONS[precision]
    roots = primitive_roots_of_unity(n, real=real)
    got = linalg.lagrange_inverse(roots, cyclotomic_poly(n).astype(real),
                                  _root_products(roots))
    want = linalg.vandermonde_inverse_explicit(roots)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lagrange_inverse_validates_its_inputs():
    roots = primitive_roots_of_unity(12)
    poly = cyclotomic_poly(12).astype(np.float64)
    deriv = _root_products(roots)
    bad_calls = [
        lambda: linalg.lagrange_inverse(roots, cyclotomic_poly(12), deriv),  # int64
        lambda: linalg.lagrange_inverse(roots, poly.astype(np.float32), deriv),
        lambda: linalg.lagrange_inverse(roots.astype(np.clongdouble), poly, deriv),
        lambda: linalg.lagrange_inverse(roots, poly[:-1], deriv),
        lambda: linalg.lagrange_inverse(roots, 2 * poly, deriv),  # not monic
        lambda: linalg.lagrange_inverse(np.r_[roots[:3], roots[0]],
                                        np.array([1.0, 0, 0, 0, 1]), deriv),  # duplicate
        lambda: linalg.lagrange_inverse(roots, poly, deriv[:3]),
        lambda: linalg.lagrange_inverse(roots, poly, deriv.real),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()
    w = linalg.lagrange_inverse(roots, poly.astype(roots.dtype), deriv)
    assert np.allclose(linalg.vandermonde(roots) @ w, np.eye(4), atol=1e-14)
