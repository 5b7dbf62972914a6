"""Dense complex linear algebra on small matrices.

Everything here operates on plain ``numpy.ndarray`` values (complex128) and
treats them as immutable. The vectorization convention is column-stacking,
so ``vec(U @ K @ V) == kron(V.T, U) @ vec(K)`` holds for all conformable
operands; every Choi-matrix construction in the package relies on it.

Input is checked once, where it enters: :func:`as_matrix` coerces it and
rejects non-finite entries, and :func:`require_hermitian` is the one
Hermiticity check. The partial trace and transpose and the LAPACK
eigensolvers (``_partial_trace``, ``_partial_transpose``, ``_eigh``,
``_eigvalsh``) then run unchecked on arrays the package has validated,
such as ``ChoiMatrix.matrix``. All of them take ``(..., n, n)`` stacks;
one matrix is the N=1 case and needs no reshaping. Tolerances are
explicit arguments throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimension, NotHermitian, NumericalFailure

#: Relative Hermiticity tolerance, times max(1, ||m||_F).
HERMITICITY_RTOL = 1e-10


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries.

    With ``stacked`` an ``(..., rows, cols)`` stack is accepted as well.
    """
    m = np.asarray(a, dtype=np.complex128)
    if (m.ndim < 2 if stacked else m.ndim != 2) or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise InvalidDimension(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidDimension("matrix entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def first_violation(residual, bound):
    """Index of the first entry with ``residual > bound``, or None when none.

    One matrix gives the index ``()``; a stack gives its row index.
    """
    bad = np.asarray(residual > bound)
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def row_suffix(index) -> str:
    """Message suffix naming a stack row; empty for one matrix."""
    return f" (row {', '.join(map(str, index))})" if index else ""


def entry_scale(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = max(1, the largest |entry|) of a matrix, or of each matrix of a
    stack, and m / s. The squares in a norm of m / s cannot overflow, so
    s times that norm is the norm of m, inf only past the float range;
    undivided, the squares overflow for entries above about 1e154."""
    s = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return s, m / s[..., None, None]


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, sqrt(<a, a>), for comparisons. The residuals that
    error messages print are ``np.linalg.norm``'s."""
    return math.sqrt(np.vdot(a, a).real)


def _partial_trace(m: np.ndarray, dim_a: int, dim_b: int, traced: int) -> np.ndarray:
    """Trace out factor ``traced`` (0 or 1) of a (dim_a * dim_b) square matrix."""
    t = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if traced == 0:
        return np.einsum("...ijik->...jk", t)
    if traced == 1:
        return np.einsum("...ijkj->...ik", t)
    raise InvalidDimension(f"traced must be 0 or 1, got {traced!r}")


def _partial_transpose(m: np.ndarray, dim_a: int, dim_b: int, transposed: int) -> np.ndarray:
    """Transpose factor ``transposed`` (0 or 1) of a (dim_a * dim_b) square matrix."""
    t = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if transposed not in (0, 1):
        raise InvalidDimension(f"transposed must be 0 or 1, got {transposed!r}")
    # the factor's row and column axes sit 2 apart: -4/-2 for the first, -3/-1 for the second
    t = t.swapaxes(-4, -2) if transposed == 0 else t.swapaxes(-3, -1)
    return t.reshape(m.shape)


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, unpacking as ``w, v``.

    ``eigenvalues`` are real and ascending; column ``i`` of ``eigenvectors``
    is the unit eigenvector for ``eigenvalues[i]``. Both arrays are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Hermitian part of a square matrix (or of each matrix of a stack)
    that is Hermitian within tolerance.

    Raises :class:`NotHermitian`, naming ``what``, the stack row and the
    residual ``||m - m^dag||_F``, when that residual exceeds
    ``HERMITICITY_RTOL * max(1, ||m||_F)``. Both sides are compared divided
    by s of :func:`entry_scale`, where neither norm can overflow;
    undivided, both overflowed to inf, and ``inf > inf`` is false.
    """
    if m.shape[-2] != m.shape[-1]:
        raise NotHermitian(f"{what} of shape {m.shape} is not square")
    h = m.conj().swapaxes(-1, -2)
    s, ms = entry_scale(m)
    residual = np.linalg.norm(ms - ms.conj().swapaxes(-1, -2), axis=(-2, -1))
    bound = HERMITICITY_RTOL * np.maximum(np.linalg.norm(ms, axis=(-2, -1)), 1.0 / s)
    bad = first_violation(residual, bound)
    if bad is not None:
        with np.errstate(over="ignore"):
            residual, bound = residual[bad] * s[bad], bound[bad] * s[bad]
        raise NotHermitian(
            f"{what}{row_suffix(bad)} is not Hermitian: ||m - m^dag||_F = {residual:.3e} exceeds {bound:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        part = (m + h) / 2.0
    past = ~np.isfinite(part)
    if past.any():
        # halving first keeps a sum past the float range finite, but is kept
        # to those entries: 5e-324 / 2 rounds to 0
        part[past] = m[past] / 2.0 + h[past] / 2.0
    return part


def _eigh(a: np.ndarray) -> HermitianEigen:
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
