"""Dense complex matrix kernel at the precision of its input arrays.

Frobenius norms, matrix inversion (LAPACK at double precision, a
compensated double-double Newton refinement at extended precision, and a
generic pivoted LU used for cross-checks and error reporting) and the
Frobenius condition number.  The cyclotomic Vandermonde matrices and their
explicit O(phi^2) inverse are built in `embeddings`, from a conductor.

Precision model: matrices are plain numpy arrays and their dtype is their
precision; there is no module state.  complex128 (``double``) uses LAPACK.
clongdouble (``extended``, x87 80-bit storage) carries inversions at >= 106
effective significand bits through error-free-split BLAS products, one
gemm per anti-diagonal of mantissa-chunk pairs, which on a single core is
two orders of magnitude faster than scalar long-double loops.  Real input
is promoted by its own dtype: float64 and integers to complex128,
longdouble to clongdouble.  `PRECISIONS` maps the two names to their real
dtypes.
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
# Extended-precision inversion: LAPACK seed + Newton steps whose residual
# I - A*X is computed exactly through error-free chunked BLAS products.


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _split(m: np.ndarray, t: int, k: int):
    """Split the rows of a complex double matrix into k chunks of t bits.

    Row r is scaled by 2^-e[r] once (exact) so that all its parts lie in
    (-1/2, 1/2).  Chunk i = 0..k-1 then peels the nearest multiple of
    2^-(i+1)t off every part as (x + sigma) - sigma with
    sigma = 1.5 * 2^(52 - (i+1)t), which rounds half to even exactly; each
    chunk entry is at most 2^(t-1) of its unit.  Returns e and the list of
    k chunk matrices.
    """
    x = np.ascontiguousarray(m).view(np.float64)  # re, im interleaved
    e = np.frexp(np.abs(x).max(axis=1))[1] + 1
    x = np.ldexp(x, -e[:, None])
    chunks = []
    for i in range(k):
        sigma = 1.5 * 2.0 ** (52 - (i + 1) * t)
        q = (x + sigma) - sigma
        x = x - q
        chunks.append(q.view(np.complex128))
    return e, chunks


def _gemm_exact_dd(a: np.ndarray, b: np.ndarray):
    """a @ b for complex128 inputs with ~2^-100 relative accuracy, as (hi, lo).

    Rows of a and columns of b are split into k = ceil(53/t) + 1 chunks of
    t bits (`_split`).  Chunk products with i + j = s share one unit, so each
    anti-diagonal s = 0..k is one gemm of a's chunks side by side against
    b's stacked in reverse order: k + 1 gemms; pairs with i + j > k lie below
    2^-(k+1)t and are dropped (Ozaki, Ogita, Oishi, Rump 2012).  A real part
    sums at most k pairs times 2n products of at most 2^(2t-2) units, so
    2t - 1 + log2(kn) <= 53 keeps every gemm exact (t = 21, k = 4 at
    n = 480).  The anti-diagonal sums are recombined with compensated
    summation and scaled back by 2^(e_a[r] + e_b[c]).
    """
    n = a.shape[1]
    for t in range(26, 0, -1):  # the widest t that keeps every gemm exact
        k = -(-53 // t) + 1
        if k * n <= 2 ** (54 - 2 * t):
            break
    ea, ca = _split(a, t, k)
    eb, cb = _split(b.T, t, k)
    ca = np.concatenate(ca, axis=1)
    cb = np.concatenate(cb[::-1], axis=1).T

    def diagonal(s):  # the one gemm of anti-diagonal s
        i0, i1 = max(0, s - k + 1), min(s, k - 1)
        return ca[:, i0 * n:(i1 + 1) * n] @ cb[(k - 1 - s + i0) * n:(k - s + i1) * n]

    hi, lo = diagonal(0), 0
    for s in range(1, k + 1):
        hi, e = _two_sum(hi, diagonal(s))
        lo = lo + e
    hi, lo = _two_sum(hi, lo)
    scale = np.exp2(ea[:, None] + eb[None, :])
    return hi * scale, lo * scale


def _invert_extended(a: np.ndarray) -> np.ndarray:
    """Inverse of a clongdouble matrix, accurate to about extended precision.

    LAPACK double inverse, then up to two Newton steps X <- X + X(I - AX)
    with the residual R computed in ~106-bit compensated arithmetic and XR
    in double: R is far below 1, so XR's rounding lies far below extended
    precision.  Falls back to the in-dtype LU when LAPACK flags singularity
    or refinement cannot contract.

    No accuracy beyond extended is promised: the chunks truncate each part
    at 2^-(kt-1) of its row's largest part, so small entries of badly scaled
    rows lose bits.  Measured against a 220-bit mpmath inverse on the
    12 x 12 Vandermonde on the nodes k/33 (kappa_F about 1e13): the forward
    error ||X - A^-1||_F is 2.2e-19 of ||A^-1||_F, about 2 eps of
    np.longdouble, and ||I - AX||_F is 3e-6 of the bound
    eps ||A||_F ||X||_F that the tests assert.
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
        xhi, e = _two_sum(xhi, xhi @ (r_hi + r_lo))
        xlo = e if xlo is None else xlo + e
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
    if a.shape[0] == 0:
        return a.copy()  # the empty matrix is its own inverse at either precision
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
