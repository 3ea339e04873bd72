"""Dense complex matrix kernel at the precision of its input arrays.

Frobenius norms, Kronecker products, matrix inversion (LAPACK at double
precision, a compensated double-double Newton refinement at extended
precision, and a generic pivoted LU used for cross-checks and error
reporting), plus Vandermonde construction and its explicit O(n^2) Lagrange
inverse from a given polynomial and its derivative at the roots (the
cyclotomic caller, `embeddings.cyclotomic_vandermonde_inverse`, passes the
exact integer Phi_n and closed-form Phi_n'(zeta)).

Precision model: matrices are plain numpy arrays and their dtype is their
precision; there is no module state.  complex128 (``double``) uses LAPACK.
clongdouble (``extended``, x87 80-bit storage) carries inversions at >= 106
effective significand bits through error-free-split BLAS products, which
on a single core is two orders of magnitude faster than scalar long-double
loops.  Real input is promoted by its own dtype: float64 and integers to
complex128, longdouble to clongdouble.  `PRECISIONS` maps the two names to
their real dtypes.
"""
from __future__ import annotations

import numpy as np

PRECISIONS = {"double": np.float64, "extended": np.longdouble}


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular to working precision."""


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_complex(a: np.ndarray) -> np.ndarray:
    # real input keeps its precision: float64 and integers -> complex128,
    # longdouble -> clongdouble
    if np.iscomplexobj(a):
        return a
    return a.astype(np.promote_types(a.dtype, np.complex128))


def frobenius(a):
    """Frobenius norm sqrt(sum |a_ij|^2), in the array's real dtype."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        s = (a.real * a.real).sum() + (a.imag * a.imag).sum()
    else:
        s = (a * a).sum()
    return np.sqrt(s)


def kronecker(a, b) -> np.ndarray:
    """Kronecker product, dtype-promoting block matrix (a_ij * b)."""
    return np.kron(np.asarray(a), np.asarray(b))


def _plain_lu_invert(a: np.ndarray) -> np.ndarray:
    """Generic in-place LU with partial pivoting; works for any complex dtype.

    Kept as the reference path: it is the only one that runs entirely in the
    array's own dtype, and it reports the offending pivot when the matrix is
    singular to working precision.
    """
    a = _as_square(a)
    n = a.shape[0]
    A = a.copy()
    B = np.eye(n, dtype=A.dtype)
    scale = np.abs(A).max()
    eps = float(np.finfo(A.dtype).eps)
    tiny = n * eps * float(scale)
    for k in range(n):
        col = np.abs(A[k:, k])
        j = int(np.argmax(col))
        pm = float(col[j])
        if pm <= tiny:
            raise SingularMatrixError(
                f"matrix is singular to working precision: pivot magnitude "
                f"{pm:.3e} at elimination column {k} (threshold {tiny:.3e})"
            )
        if j:
            A[[k, k + j], :] = A[[k + j, k], :]
            B[[k, k + j], :] = B[[k + j, k], :]
        A[k + 1 :, k] = A[k + 1 :, k] / A[k, k]
        if k + 1 < n:
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
            B[k + 1 :, :] -= np.outer(A[k + 1 :, k], B[k, :])
    for k in range(n - 1, -1, -1):
        if k + 1 < n:
            B[k, :] -= A[k, k + 1 :].dot(B[k + 1 :, :])
        B[k, :] = B[k, :] / A[k, k]
    return B


# ---------------------------------------------------------------------------
# Extended-precision inversion: LAPACK seed + one Newton step whose residual
# I - A*X is computed exactly through error-free chunked BLAS products.


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _split_chunks(m: np.ndarray, scale_exp: np.ndarray, t: int, k: int, axis: int):
    """Split complex double matrix into k chunk matrices of <= t mantissa bits.

    scale_exp holds per-row (axis=0) or per-column (axis=1) binary exponents;
    chunk i carries bits [e - i*t, e - (i+1)*t) of each entry, exactly.
    """
    if axis == 0:
        exp = scale_exp[:, None]
    else:
        exp = scale_exp[None, :]
    chunks = []
    rr, ii = np.array(m.real), np.array(m.imag)
    for i in range(1, k + 1):
        sh = i * t - exp
        qr = np.ldexp(np.round(np.ldexp(rr, sh)), -sh)
        qi = np.ldexp(np.round(np.ldexp(ii, sh)), -sh)
        rr = rr - qr
        ii = ii - qi
        chunks.append(qr + 1j * qi)
    return chunks


def _max_exponents(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=1 - axis)
    mx = np.where(mx == 0, 1.0, mx)
    return np.ceil(np.log2(mx)).astype(np.int64)


def _gemm_exact_dd(a: np.ndarray, b: np.ndarray):
    """a @ b for complex128 inputs with ~2^-100 relative accuracy, as (hi, lo).

    Entries are split into mantissa chunks narrow enough that every chunk
    product accumulates exactly in a double-precision BLAS gemm: a real part
    sums 2n products of up to 2^(2t) units, so 2t + 1 + log2(n) <= 53.  The
    partial products are then recombined with compensated summation.
    """
    n = a.shape[1]
    t = max((52 - int(np.ceil(np.log2(max(n, 2))))) // 2, 8)
    k = int(np.ceil(53.0 / t)) + 1
    ea = _max_exponents(a, axis=0)
    eb = _max_exponents(b, axis=1)
    ca = _split_chunks(a, ea, t, k, axis=0)
    cb = _split_chunks(b, eb, t, k, axis=1)
    hi = np.zeros_like(a, shape=(a.shape[0], b.shape[1]))
    lo = np.zeros_like(hi)
    for i in range(k):
        for j in range(k):
            if i + j > k:
                continue  # below 2^-(t*(k+1)) of the result scale
            p = ca[i] @ cb[j]
            hi, e = _two_sum(hi, p)
            lo = lo + e
    hi, e = _two_sum(hi, lo)
    return hi, e


def _invert_extended(a: np.ndarray) -> np.ndarray:
    """Inverse of a clongdouble matrix to better than extended accuracy.

    LAPACK double inverse, then Newton refinement X <- X + X(I - AX) with the
    residual computed in ~106-bit compensated arithmetic.  Falls back to the
    in-dtype LU when LAPACK flags singularity or refinement cannot contract.
    """
    a = _as_square(a)
    n = a.shape[0]
    ahi = a.astype(np.complex128)
    alo = (a - ahi).astype(np.complex128)
    try:
        x = np.linalg.inv(ahi)
    except np.linalg.LinAlgError:
        return _plain_lu_invert(a)
    eye = np.eye(n, dtype=np.complex128)
    xhi, xlo = x, None  # lo part appears only after the first correction
    for _ in range(2):
        p_hi, p_lo = _gemm_exact_dd(ahi, xhi)
        r_hi, e1 = _two_sum(eye, -p_hi)
        r_lo = e1 - p_lo - alo @ xhi
        if xlo is not None:
            r_lo = r_lo - ahi @ xlo
        rnorm = float(np.abs(frobenius(r_hi + r_lo)))
        if rnorm > 0.25 * np.sqrt(n):
            return _plain_lu_invert(a)  # LAPACK seed too inaccurate to refine
        dx = xhi @ r_hi
        dx_lo = xhi @ r_lo if xlo is None else xlo @ r_hi + xhi @ r_lo
        xhi, e = _two_sum(xhi, dx)
        xlo = (e if xlo is None else xlo + e) + dx_lo
        if rnorm < 1e-9 * n:
            break
    return xhi.astype(np.clongdouble) + xlo.astype(np.clongdouble)


def invert(a) -> np.ndarray:
    """Matrix inverse at the array's precision.

    complex128 goes through LAPACK; clongdouble through the compensated
    refinement path; real input is promoted by its own dtype first (float64
    to complex128, longdouble to clongdouble).  Singular matrices raise
    SingularMatrixError carrying the pivot magnitude.
    """
    a = _as_complex(_as_square(a))
    if a.dtype == np.dtype(np.clongdouble):
        return _invert_extended(a)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # rerun the reference LU purely to report which pivot collapsed
        return _plain_lu_invert(a)


def condition_number(a):
    """Frobenius condition number ||A|| * ||A^{-1}||."""
    a = _as_square(a)
    return frobenius(a) * frobenius(invert(a))


# ---------------------------------------------------------------------------
# Vandermonde matrices and their explicit Lagrange inverse.


def _check_distinct(roots: np.ndarray):
    n = roots.size
    scale = float(np.abs(roots).max()) if n else 0.0
    tol = 1e-12 * max(scale, 1e-300)
    for i in range(n - 1):
        d = np.abs(roots[i + 1 :] - roots[i])
        if d.size and float(d.min()) <= tol:
            j = i + 1 + int(np.argmin(d))
            raise ValueError(
                f"duplicate roots: |roots[{i}] - roots[{j}]| = {float(d.min()):.3e} "
                f"within relative tolerance 1e-12"
            )


def _as_roots(roots) -> np.ndarray:
    """A nonempty 1-D array of distinct roots, complex at its own precision."""
    roots = np.atleast_1d(np.asarray(roots))
    if roots.ndim != 1 or roots.size < 1:
        raise ValueError("roots must be a nonempty 1-D sequence")
    roots = _as_complex(roots)
    _check_distinct(roots)
    return roots


def vandermonde(roots) -> np.ndarray:
    """Square Vandermonde matrix, row i = (1, r_i, r_i^2, ..., r_i^{n-1})."""
    roots = _as_roots(roots)
    n = roots.size
    v = np.empty((n, n), dtype=roots.dtype)
    v[:, 0] = 1
    for j in range(1, n):
        v[:, j] = v[:, j - 1] * roots
    return v


def lagrange_inverse(roots, poly, derivative) -> np.ndarray:
    """Inverse Vandermonde from the roots, their polynomial and its
    derivative at each root, in O(n^2).

    `poly` holds the ascending coefficients of the monic P(x) = prod_k (x - r_k)
    in the roots' real or complex dtype, and `derivative` the values P'(r_j)
    in the roots' dtype.  Column j of the inverse holds the coefficients of
    the Lagrange basis polynomial L_j = P / ((x - r_j) P'(r_j)), from one
    synthetic division per column.  The result is only as accurate as its
    inputs: the cyclotomic polynomials have exact integer coefficients and
    closed-form derivatives at their roots.
    """
    roots = _as_roots(roots)
    n = roots.size
    p = np.asarray(poly)
    if p.dtype not in (roots.real.dtype, roots.dtype):
        raise ValueError(f"poly must have dtype {roots.real.dtype} or {roots.dtype}, "
                         f"got {p.dtype}")
    if p.shape != (n + 1,) or p[n] != 1:
        raise ValueError(f"poly must be the {n + 1} ascending coefficients of a monic "
                         f"polynomial of degree {n}")
    d = np.asarray(derivative)
    if d.dtype != roots.dtype or d.shape != (n,):
        raise ValueError(f"derivative must be {n} values of dtype {roots.dtype}")
    # column j: the coefficients of P / (x - r_j), by synthetic division
    # vectorized across all columns
    q = np.empty((n, n), dtype=roots.dtype)
    q[n - 1, :] = p[n]
    for i in range(n - 2, -1, -1):
        np.multiply(roots, q[i + 1], out=q[i])
        q[i] += p[i + 1]
    q /= d
    return q
