"""The five BLAS/LAPACK routines the solver calls, bound with ctypes from the
OpenBLAS that numpy already loads.

numpy's wheels link an ILP64 OpenBLAS that exports every routine as
``scipy_<routine>_64_``; ``dlsym`` on numpy's ``_umath_linalg`` extension
finds them among its dependencies. So the solver needs no second BLAS and no
scipy. The Fortran ABI: every integer is 64-bit and passed by pointer, as is
every scalar; arrays are column-major with their leading dimension; each
character argument is passed by pointer, and its hidden ``size_t`` length
follows all the other arguments. ctypes releases the GIL for each call.

Each wrapper copies an input only where scipy's f2py wrapper of the same
routine (with the options the solver passes) copied it, so the arrays and
their memory orders are the same as there: a Fortran-ordered input is read in
place, any other is copied to Fortran order first.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg

_lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t


def _routine(name: str, *argtypes):
    symbol = f"scipy_{name}_64_"
    try:
        function = getattr(_lib, symbol)
    except AttributeError:
        raise ImportError(f"numpy's BLAS/LAPACK library does not export {symbol}") from None
    function.argtypes = argtypes
    function.restype = None
    return function


# uplo, trans, n, k, alpha, a, lda, beta, c, ldc
_dsyrk = _routine(
    "dsyrk", _CHAR, _CHAR, _INT, _INT, _DOUBLE, _ARRAY, _INT, _DOUBLE, _ARRAY, _INT, _LEN, _LEN
)
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_dtrmm = _routine("dtrmm", *(_CHAR,) * 4, _INT, _INT, _DOUBLE, _ARRAY, _INT, _ARRAY, _INT, *(_LEN,) * 4)
# uplo, diag, n, a, lda, info
_dtrtri = _routine("dtrtri", _CHAR, _CHAR, _INT, _ARRAY, _INT, _INT, _LEN, _LEN)
# uplo, n, a, lda, info
_dpotrf = _routine("dpotrf", _CHAR, _INT, _ARRAY, _INT, _INT, _LEN)
# uplo, n, nrhs, a, lda, b, ldb, info
_dpotrs = _routine("dpotrs", _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT, _LEN)

_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def _fortran(a, copy: bool = False) -> np.ndarray:
    """``a`` as a Fortran-ordered float64 matrix; copied if ``copy`` or if it
    is not one already."""
    a = np.array(a, dtype=np.float64, order="F", copy=copy or None)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
    return a


def _square(a: np.ndarray, n: int | None = None) -> int:
    """Order of the square matrix ``a``, which must be ``n`` if given; a
    wrong shape would make the routine read out of bounds."""
    n = a.shape[0] if n is None else n
    if a.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got shape {a.shape}")
    return n


def dsyrk(alpha: float, a, trans: int = 0) -> np.ndarray:
    """Upper triangle of alpha a a^T (``trans=0``) or alpha a^T a (``trans=1``),
    in a new Fortran-ordered matrix whose strict lower triangle is zero."""
    a = _fortran(a)
    n, k = a.shape[::-1] if trans else a.shape
    c = np.zeros((n, n), order="F")
    _dsyrk(
        b"U", b"T" if trans else b"N", _i64(n), _i64(k), _f64(alpha), a.ctypes.data,
        _i64(max(1, a.shape[0])), _f64(0.0), c.ctypes.data, _i64(max(1, n)), 1, 1,
    )  # fmt: skip
    return c


def dtrmm(alpha: float, a, b, side: int = 0, trans_a: int = 0, overwrite_b: int = 0) -> np.ndarray:
    """alpha op(a) b (``side=0``) or alpha b op(a) (``side=1``) for the upper
    triangle of a, with op(a) = a^T when ``trans_a``. The product overwrites b
    when ``overwrite_b`` and b is Fortran-ordered; otherwise a copy of b."""
    a = _fortran(a)
    b = _fortran(b, copy=not overwrite_b)
    m, n = b.shape
    _square(a, n if side else m)
    _dtrmm(
        b"R" if side else b"L", b"U", b"T" if trans_a else b"N", b"N", _i64(m), _i64(n),
        _f64(alpha), a.ctypes.data, _i64(max(1, a.shape[0])), b.ctypes.data, _i64(max(1, m)),
        1, 1, 1, 1,
    )  # fmt: skip
    return b


def dtrtri(c) -> tuple[np.ndarray, int]:
    """Inverse of the upper triangle of c and LAPACK's info; overwrites c when
    it is Fortran-ordered."""
    c = _fortran(c)
    n = _square(c)
    info = _i64()
    _dtrtri(b"U", b"N", _i64(n), c.ctypes.data, _i64(max(1, n)), info, 1, 1)
    return c, info.value


def dpotrf(a) -> tuple[np.ndarray, int]:
    """Upper Cholesky factor R of a = R^T R, in a copy of a whose strict lower
    triangle keeps a's entries, and LAPACK's info."""
    c = _fortran(a, copy=True)
    n = _square(c)
    info = _i64()
    _dpotrf(b"U", _i64(n), c.ctypes.data, _i64(max(1, n)), info, 1)
    return c, info.value


def dpotrs(c, b) -> tuple[np.ndarray, int]:
    """Solution X of R^T R X = b for the upper Cholesky factor R in c, in a
    copy of b, and LAPACK's info."""
    c = _fortran(c)
    x = _fortran(b, copy=True)
    n = _square(c, x.shape[0])
    info = _i64()
    _dpotrs(
        b"U", _i64(n), _i64(x.shape[1]), c.ctypes.data, _i64(max(1, n)), x.ctypes.data,
        _i64(max(1, n)), info, 1,
    )  # fmt: skip
    return x, info.value
