"""The solver's symmetric positive definite (SPD) linear algebra, on the
BLAS/LAPACK routines dsyrk, dpotrf, dpotrs, dtrtri and dtrmm of the OpenBLAS
that numpy already loads.

numpy's wheels link an ILP64 OpenBLAS that exports every routine as
``scipy_<routine>_64_``; ``dlsym`` on numpy's ``_umath_linalg`` extension
finds them among its dependencies. So the solver needs no second BLAS and no
scipy. The Fortran ABI: every integer is 64-bit and passed by pointer, as is
every scalar; arrays are column-major with their leading dimension; each
character argument is passed by pointer, and its hidden ``size_t`` length
follows all the other arguments. ctypes releases the GIL for each call.

Every operation works on upper triangles: ``gram`` fills one, and
``cholesky`` and ``spd_inverse_factor`` read no more. A system with d
right-hand sides is solved against the factor of ``cholesky`` by
``spd_solve``, so that the factorization can be made ahead of the
right-hand side. A system with n
right-hand sides is applied as A^{-1} = Ri Ri^T, where Ri is the inverse of
the upper Cholesky factor A = R^T R, by two triangular products; these run at
about twice the speed of the two triangular solves they replace. A C-ordered
matrix B is read in place as the Fortran-ordered B^T, so the products are
formed on B^T and come back C-ordered.

``cholesky`` and ``spd_inverse_factor`` own their A, and ``spd_apply_left``
and ``spd_apply_right`` their B: where that argument already has the layout
the routine writes (a writeable Fortran-ordered float64 A, or a writeable
C-ordered float64 B, whose transpose is Fortran-ordered) the result is
formed in its memory, so the caller hands over a matrix it no longer reads;
otherwise the routine works on a copy and leaves the argument intact.
``spd_solve`` returns a new matrix. No operation writes to any other
argument. A nonzero info from dpotrf, dpotrs or dtrtri raises
``numpy.linalg.LinAlgError``. ``blas_threads`` reports how many threads that
OpenBLAS runs each call on.
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


def _function(symbol: str, restype, *argtypes):
    try:
        function = getattr(_lib, symbol)
    except AttributeError:
        raise ImportError(f"numpy's BLAS/LAPACK library does not export {symbol}") from None
    function.argtypes = argtypes
    function.restype = restype
    return function


def _routine(name: str, *argtypes):
    return _function(f"scipy_{name}_64_", None, *argtypes)


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
_get_num_threads = _function("scipy_openblas_get_num_threads64_", ctypes.c_int)

_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def blas_threads() -> int:
    """Number of threads numpy's OpenBLAS runs each call on, as set by
    ``OPENBLAS_NUM_THREADS`` or the CPU count at load time."""
    return _get_num_threads()


def _fortran(a, copy: bool = False) -> np.ndarray:
    """``a`` as a Fortran-ordered float64 matrix; copied if ``copy`` or if it
    is not one already."""
    a = np.array(a, dtype=np.float64, order="F", copy=copy or None)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
    return a


def _owned(a) -> np.ndarray:
    """``a`` as a Fortran-ordered float64 matrix for a routine to write its
    result into: ``a`` itself if it is a writeable one already, else a copy."""
    a = np.asarray(a)
    return _fortran(a, copy=not a.flags.writeable)


def _square(a: np.ndarray, n: int | None = None) -> int:
    """Order of the square matrix ``a``, which must be ``n`` if given; a
    wrong shape would make the routine read out of bounds."""
    n = a.shape[0] if n is None else n
    if a.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got shape {a.shape}")
    return n


def _check(routine: str, info: ctypes.c_int64) -> None:
    """Raise LinAlgError on LAPACK's nonzero ``info``."""
    if info.value < 0:
        raise np.linalg.LinAlgError(f"{routine}: argument {-info.value} had an illegal value")
    if info.value > 0:
        if routine == "dpotrf":
            why = f"leading minor {info.value} is not positive definite"
        else:
            why = f"diagonal entry {info.value} of the Cholesky factor is zero"
        raise np.linalg.LinAlgError(f"{routine}: {why}")


def gram(M, scale: float = 1.0, outer: bool = False) -> np.ndarray:
    """Upper triangle of scale M^T M, or of scale M M^T with ``outer``, by
    one dsyrk call, in a new matrix whose strict lower triangle is zero."""
    a = _fortran(M.T)
    n, k = a.shape[::-1] if outer else a.shape
    c = np.zeros((n, n), order="F")
    _dsyrk(
        b"U", b"T" if outer else b"N", _i64(n), _i64(k), _f64(scale), a.ctypes.data,
        _i64(max(1, a.shape[0])), _f64(0.0), c.ctypes.data, _i64(max(1, n)), 1, 1,
    )  # fmt: skip
    return c


def cholesky(A) -> np.ndarray:
    """Upper Cholesky factor R of SPD A = R^T R, formed in A's memory where A
    has the layout (see the module docstring), else in a Fortran-ordered copy
    of A; its strict lower triangle keeps A's entries."""
    R = _owned(A)
    n = _square(R)
    info = _i64()
    _dpotrf(b"U", _i64(n), R.ctypes.data, _i64(max(1, n)), info, 1)
    _check("dpotrf", info)
    return R


def spd_solve(R, B) -> np.ndarray:
    """Solution X of A X = B for SPD A, from its factor R = ``cholesky(A)``,
    in a new Fortran-ordered matrix."""
    R = _fortran(R)
    X = _fortran(B, copy=True)
    n = _square(R, X.shape[0])
    info = _i64()
    _dpotrs(
        b"U", _i64(n), _i64(X.shape[1]), R.ctypes.data, _i64(max(1, n)), X.ctypes.data,
        _i64(max(1, n)), info, 1,
    )  # fmt: skip
    _check("dpotrs", info)
    return X


def spd_inverse_factor(A) -> np.ndarray:
    """Ri = R^{-1} for the upper Cholesky factor R of SPD A, so that
    A^{-1} = Ri Ri^T, formed where ``cholesky(A)`` forms R. Only the upper
    triangle of Ri is meaningful."""
    Ri = cholesky(A)
    n = Ri.shape[0]
    info = _i64()
    _dtrtri(b"U", b"N", _i64(n), Ri.ctypes.data, _i64(max(1, n)), info, 1, 1)
    _check("dtrtri", info)
    return Ri


def _apply(B, Ri: np.ndarray, side: bytes, first: bytes, second: bytes) -> np.ndarray:
    """W op_1(Ri) op_2(Ri) (``side`` b"R") or op_2(Ri) op_1(Ri) W (b"L") on
    W = B^T, one dtrmm call per op, returned as its C-ordered transpose; op(Ri)
    is the upper triangle of Ri (b"N") or its transpose (b"T"). W is B's
    memory where B is C-ordered (see the module docstring), else a
    Fortran-ordered copy of B^T."""
    W = _owned(B.T)
    Ri = _fortran(Ri)
    m, n = W.shape
    k = _square(Ri, n if side == b"R" else m)
    args = (
        _i64(m), _i64(n), _f64(1.0), Ri.ctypes.data, _i64(max(1, k)), W.ctypes.data,
        _i64(max(1, m)), 1, 1, 1, 1,
    )  # fmt: skip
    _dtrmm(side, b"U", first, b"N", *args)
    _dtrmm(side, b"U", second, b"N", *args)
    return W.T


def spd_apply_left(Ri, B) -> np.ndarray:
    """A^{-1} B = (B^T Ri Ri^T)^T for Ri = ``spd_inverse_factor(A)``."""
    return _apply(B, Ri, b"R", b"N", b"T")


def spd_apply_right(B, Ri) -> np.ndarray:
    """B A^{-1} = (Ri Ri^T B^T)^T for Ri = ``spd_inverse_factor(A)``."""
    return _apply(B, Ri, b"L", b"T", b"N")
