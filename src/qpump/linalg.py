"""Dense complex matrix algebra for small open-system generators.

Conventions used throughout the package:

* Density matrices and operators are plain ``numpy`` complex arrays.
* Vectorization is **column-stacking**: column ``j`` of an ``n x n`` matrix
  occupies slots ``j*n .. j*n+n-1`` of the vector (Fortran order), so entry
  ``(i, j)`` sits at ``i + n*j`` and ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``
  (the form of the reference superoperators in :mod:`qpump.steady`).
* A superoperator on an ``n``-dimensional Hilbert space is an ``n^2 x n^2``
  complex matrix acting on column-stacked density matrices.

Hilbert dimensions stay at most 10, so everything is dense and double
precision.  The kernel solve takes a matrix and its trace row: a whole
superoperator, or the invariant block that :mod:`qpump.steady` rounds from
its extended-precision action on the stationary sector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "SuperOp",
    "DegenerateKernelError",
    "NoKernelError",
    "vectorize",
    "devectorize",
    "trace_row",
    "stationary_vector",
    "propagate",
    "KERNEL_RESIDUAL_RTOL",
    "KERNEL_DEGENERACY_RTOL",
]

# Residual gate for the kernel solve, relative to the sup-norm of the generator.
KERNEL_RESIDUAL_RTOL = 1e-10
# Two singular values below this (relative to the largest) signal a non-unique
# steady state; none below it signals an empty kernel.
KERNEL_DEGENERACY_RTOL = 1e-9
# Reciprocal condition estimate below which the trace-constrained solve is
# not trusted: a near-degenerate kernel can satisfy the residual gate with a
# meaningless mixture, so such systems are sent to the SVD diagnostics.
KERNEL_RCOND_FLOOR = 1e-13


class DegenerateKernelError(np.linalg.LinAlgError):
    """The generator has more than one stationary state (kernel dim > 1)."""


class NoKernelError(np.linalg.LinAlgError):
    """The generator has no stationary state within tolerance."""


def vectorize(m: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.reshape(-1, order="F")


def devectorize(v: np.ndarray, n: int) -> np.ndarray:
    """Invert :func:`vectorize` for an ``n x n`` matrix."""
    v = np.asarray(v)
    if v.size != n * n:
        raise ValueError(f"vector of length {v.size} is not {n}x{n}")
    return v.reshape((n, n), order="F")


def trace_row(n: int) -> np.ndarray:
    """Row vector representing tr(.) on column-stacked ``n x n`` matrices."""
    row = np.zeros(n * n, dtype=complex)
    row[:: n + 1] = 1.0
    return row


@dataclass(frozen=True)
class SuperOp:
    """A superoperator on an ``dim``-dimensional Hilbert space.

    ``matrix`` is ``dim^2 x dim^2`` and acts on column-stacked density
    matrices.  Instances are treated as immutable; operations on them are
    pure functions, so they are safe to share across threads.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.dim * self.dim
        if self.matrix.shape != (d2, d2):
            raise ValueError(
                f"superoperator for dim {self.dim} must be {d2}x{d2}, "
                f"got {self.matrix.shape}"
            )


def _rcond_estimate(lu: np.ndarray, anorm: float) -> float:
    """LAPACK reciprocal condition estimate from an LU factorization, real
    or complex by the factor's dtype."""
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, anorm)
    if info != 0:
        return 0.0
    return float(rcond)


def _kernel_diagnostics(matrix: np.ndarray) -> np.ndarray:
    """Singular-value based kernel extraction with uniqueness checks.

    Raises :class:`NoKernelError` / :class:`DegenerateKernelError` per the
    relative threshold ``KERNEL_DEGENERACY_RTOL``; otherwise returns the
    right singular vector of the smallest singular value.
    """
    _, s, vh = np.linalg.svd(matrix)
    largest = s[0] if s[0] > 0 else 1.0
    if s[-1] > KERNEL_DEGENERACY_RTOL * largest:
        raise NoKernelError(
            f"smallest singular value {s[-1]:.3e} exceeds "
            f"{KERNEL_DEGENERACY_RTOL:.0e} x {largest:.3e}; no stationary state"
        )
    if len(s) > 1 and s[-2] < KERNEL_DEGENERACY_RTOL * largest:
        raise DegenerateKernelError(
            f"two smallest singular values {s[-2]:.3e}, {s[-1]:.3e} below "
            f"{KERNEL_DEGENERACY_RTOL:.0e} x {largest:.3e}; steady state not unique"
        )
    return vh[-1].conj()


def _normalize_trace(v: np.ndarray, trace: np.ndarray) -> np.ndarray:
    tr = trace @ v
    if abs(tr) < 1e-12 * np.max(np.abs(v)):
        raise DegenerateKernelError(
            "kernel vector has (near-)zero trace; stationary state ill-defined"
        )
    return v / tr


def stationary_vector(op: SuperOp) -> np.ndarray:
    """Solve ``op.matrix @ v = 0`` with ``devectorize(v)`` of unit trace, by
    the gated kernel solve below on the whole generator.

    Raises
    ------
    NoKernelError
        A non-finite generator entry, or no singular value small enough for
        a stationary state.
    DegenerateKernelError
        More than one stationary state within tolerance.
    """
    return _stationary_vector_and_factor(op.matrix, trace_row(op.dim))[0]


def _stationary_vector_and_factor(mat: np.ndarray, trace: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Kernel vector ``v`` of ``mat`` with ``trace @ v == 1``, and the LU
    factor it came from, for a whole generator or an invariant block of it.

    The primary path replaces the first row with ``trace`` and solves (plus
    one step of iterative refinement).  If that fails its condition or
    residual gate, an SVD of ``mat`` gives the vector and doubles as the
    uniqueness diagnostic.  The factor is returned on that path too, so
    that a caller can refine the state without factoring again."""
    scale = np.max(np.abs(mat))
    if not np.isfinite(scale):
        # an overflowed rate; neither the LU nor the SVD can use such a matrix
        raise NoKernelError(f"generator has non-finite entries (max |L| = {scale})")
    if scale == 0.0:
        raise DegenerateKernelError("zero generator: every state is stationary")
    m = mat.copy()
    m[0, :] = trace
    b = np.zeros(len(m), dtype=m.dtype)
    b[0] = 1.0
    with warnings.catch_warnings():
        # conditioning is judged explicitly below; scipy's own
        # ill-conditioned-matrix warning would only duplicate it
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(m, check_finite=False)
    v = None
    if _rcond_estimate(lu[0], np.abs(m).sum(axis=0).max()) >= KERNEL_RCOND_FLOOR:
        v = sla.lu_solve(lu, b, check_finite=False)
        v = v + sla.lu_solve(lu, b - m @ v, check_finite=False)
    if v is not None and np.all(np.isfinite(v)):
        try:
            v = _normalize_trace(v, trace)
        except DegenerateKernelError:
            v = None
    if v is not None and np.max(np.abs(mat @ v)) <= KERNEL_RESIDUAL_RTOL * scale:
        return v, lu

    # Replacement solve failed: run the SVD path, which either produces a
    # usable kernel vector or explains the failure.
    v = _normalize_trace(_kernel_diagnostics(mat), trace)
    if np.max(np.abs(mat @ v)) > KERNEL_RESIDUAL_RTOL * scale:
        raise NoKernelError(
            "kernel residual exceeds tolerance even on the singular-vector path"
        )
    return v, lu


def propagate(op: SuperOp, rho0: np.ndarray, dt: float | None = None,
              steps: int = 1000) -> np.ndarray:
    """Approximate ``expm(op.matrix * dt * steps) @ rho0`` by fixed-step RK4.

    ``dt`` defaults to ``0.1 / max|matrix|``, conservative for classical
    4th-order stepping at these dimensions.  The integrator never
    renormalizes: trace drift is the caller's divergence diagnostic (callers
    should confirm convergence by step halving).
    """
    mat = op.matrix
    if dt is None:
        scale = np.max(np.abs(mat))
        if scale == 0.0:
            return np.array(rho0, dtype=complex, copy=True)
        dt = 0.1 / scale
    v = vectorize(np.asarray(rho0, dtype=complex)).copy()
    for _ in range(steps):
        k1 = mat @ v
        k2 = mat @ (v + (0.5 * dt) * k1)
        k3 = mat @ (v + (0.5 * dt) * k2)
        k4 = mat @ (v + dt * k3)
        v += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return devectorize(v, op.dim)
