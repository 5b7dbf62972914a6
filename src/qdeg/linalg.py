"""Dense complex linear algebra on small matrices.

Everything here operates on plain ``numpy.ndarray`` values (complex128) and
treats them as immutable. The vectorization convention is column-stacking,
so ``vec(U @ K @ V) == kron(V.T, U) @ vec(K)`` holds for all conformable
operands; every Choi-matrix construction in the package relies on it.

Hermitian eigendecompositions are LAPACK's (``numpy.linalg.eigh`` and
``eigvalsh``), behind one Hermiticity check; tolerances are explicit
arguments throughout.

The checks and the underscore cores (``_partial_trace``,
``_partial_transpose``, ``_eigh``, ``_eigvalsh``) also take ``(..., n, n)``
stacks; one matrix is the N=1 case and needs no reshaping. The cores skip
coercion and checks: they are for arrays the package has already validated,
such as ``ChoiMatrix.matrix``. The public functions coerce their input and
reject non-finite entries.
"""

from __future__ import annotations

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


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product (a tensor b)."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization, returned as a 1-D array.

    ``vec(A)[j * rows + i] == A[i, j]``.
    """
    return as_matrix(a).reshape(-1, order="F")


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if cols is None:
        cols = v.size // rows
    if rows * cols != v.size:
        raise InvalidDimension(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def _check_bipartite(m: np.ndarray, dim_a: int, dim_b: int) -> None:
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise InvalidDimension(
            f"matrix shape {m.shape} does not match {dim_a}x{dim_b} bipartite split"
        )


def partial_trace(m, dim_a: int, dim_b: int, traced: int) -> np.ndarray:
    """Trace out one tensor factor of a (dim_a * dim_b) square matrix.

    ``traced=0`` removes the first factor (returns a dim_b matrix),
    ``traced=1`` the second. The total trace is preserved.
    """
    m = as_matrix(m)
    _check_bipartite(m, dim_a, dim_b)
    return _partial_trace(m, dim_a, dim_b, traced)


def _partial_trace(m: np.ndarray, dim_a: int, dim_b: int, traced: int) -> np.ndarray:
    t = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if traced == 0:
        return np.einsum("...ijik->...jk", t)
    if traced == 1:
        return np.einsum("...ijkj->...ik", t)
    raise InvalidDimension(f"traced must be 0 or 1, got {traced!r}")


def partial_transpose(m, dim_a: int, dim_b: int, transposed: int) -> np.ndarray:
    """Transpose one tensor factor of a (dim_a * dim_b) square matrix.

    Applying it twice on the same factor returns the input exactly.
    """
    m = as_matrix(m)
    _check_bipartite(m, dim_a, dim_b)
    return _partial_transpose(m, dim_a, dim_b, transposed)


def _partial_transpose(m: np.ndarray, dim_a: int, dim_b: int, transposed: int) -> np.ndarray:
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
    ``HERMITICITY_RTOL * max(1, ||m||_F)``.
    """
    if m.shape[-2] != m.shape[-1]:
        raise NotHermitian(f"{what} of shape {m.shape} is not square")
    h = m.conj().swapaxes(-1, -2)
    residual = np.linalg.norm(m - h, axis=(-2, -1))
    bound = HERMITICITY_RTOL * np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1.0)
    bad = first_violation(residual, bound)
    if bad is not None:
        raise NotHermitian(
            f"{what}{row_suffix(bad)} is not Hermitian: ||m - m^dag||_F = "
            f"{residual[bad]:.3e} exceeds {bound[bad]:.3e}"
        )
    return (m + h) / 2.0


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


def hermitian_eigen(m) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    The returned arrays are read-only, so one decomposition can be shared.
    """
    return _eigh(require_hermitian(as_matrix(m)))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (LAPACK ``eigvalsh``)."""
    return _eigvalsh(require_hermitian(as_matrix(m)))

