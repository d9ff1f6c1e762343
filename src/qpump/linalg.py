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
precision, and numpy is the only dependency.  One screen,
:func:`_kernel_decisions`, gives the kernel verdict of every stack, a
chain's rate matrices (:mod:`qpump.steady`), the optimizer's maximizers,
one array padded to their largest N (:mod:`qpump.experiments`), or the one
superoperator of :func:`stationary_vector`, the oracles' route, on its
condition alone: :func:`_matrix_verdict` fails every point that fails.  Only
:func:`stationary_vector` falls back to an SVD (:func:`_svd_kernel`).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

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
# Reciprocal condition below which the trace-constrained solve is not
# trusted: a near-degenerate kernel can satisfy the residual gate with a
# meaningless mixture, so such a point fails.
KERNEL_RCOND_FLOOR = 1e-13
# A kernel vector whose trace is below this (relative to its largest entry)
# cannot be normalized to a state.
KERNEL_TRACE_RTOL = 1e-12


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


def _normalize_trace(v: np.ndarray, trace: np.ndarray) -> np.ndarray | None:
    """``v`` divided by its trace, or None if that trace does not stand clear
    of zero: at least ``KERNEL_TRACE_RTOL`` of the vector's largest entry."""
    tr = (v * trace).sum()
    return v / tr if np.abs(tr) >= KERNEL_TRACE_RTOL * np.abs(v).max() else None


def stationary_vector(op: SuperOp) -> np.ndarray:
    """Solve ``op.matrix @ v = 0`` with ``devectorize(v)`` of unit trace, on
    the kernel verdict of :func:`_kernel_decisions` for the one generator.

    Above the condition floor the vector is the first column of the inverse
    plus one step of iterative refinement.  A generator below the floor or
    exactly singular, or a vector that fails the trace, finiteness or
    residual gate, goes to the SVD path (:func:`_svd_kernel`), the oracles'
    fallback, which no chain solve takes.

    Raises
    ------
    NoKernelError
        A non-finite generator entry, or no singular value small enough for
        a stationary state.
    DegenerateKernelError
        More than one stationary state within tolerance.
    """
    trace = trace_row(op.dim)
    (inv,), errors, (scale,) = _kernel_decisions(op.matrix[None], trace)
    if errors and not 0.0 < scale < np.inf:
        raise errors[0]  # a zero or non-finite generator, which the SVD cannot take either
    if not errors:
        m = op.matrix.copy()
        m[0] = trace
        v = inv[:, 0].copy()  # contiguous: the products take BLAS's unit-stride path
        b = np.zeros(len(m), dtype=m.dtype)
        b[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the gates
            v = _normalize_trace(v + inv @ (b - m @ v), trace)
            if (v is not None and np.isfinite(v).all()
                    and np.abs(op.matrix @ v).max() <= KERNEL_RESIDUAL_RTOL * scale):
                return v
    return _svd_kernel(op.matrix, trace, scale)


def _kernel_decisions(mats: np.ndarray, trace: np.ndarray, sizes: list[int] | None = None
                      ) -> tuple[np.ndarray, dict[int, np.linalg.LinAlgError], np.ndarray]:
    """The kernel verdict of each matrix of a stack ``mats[k]``, (K, n, n):
    whole generators, a chain's rate matrices, or the optimizer's maximizers,
    rate matrices of the ``sizes[k]`` padded with zeros to n.  Returns ``(inv,
    errors, scale)``: each trace-row matrix's inverse, each failing point's
    error by its index, and ``max |mats[k]|``.

    ``trace`` is the trace row, of ones for a padded stack, whose padding
    becomes a block that the scaling of :func:`_matrix_verdict` makes an
    identity: its columns sum to 1 in the matrix and the inverse, and every
    real column sums to at least 1 in the matrix (its trace entry), as does
    the inverse's first (``ones @ M^-1`` is the first unit row), so no 1-norm
    moves.  One inversion of the unscaled stack, the scaling folded into its
    norms, gives each point's condition and keeps each inverse that of its
    matrix alone.  A point passes there only at twice the floor; any other is
    judged by :func:`_matrix_verdict` on its own unpadded block, which alone
    fails a point, with a NaN inverse that no refinement runs through.  An
    exactly singular (or non-finite) matrix fails the stack, which is then
    inverted point by point."""
    n, m = len(trace), mats.copy()
    size = np.abs(m)
    scale = size.max(axis=(1, 2))
    s = _rows_scale(scale)[:, None]
    m[:, 0, :] = trace
    if sizes is not None and min(sizes) < n:  # the padding, an identity once its rows are over s
        pad = np.array(sizes)[:, None] <= np.arange(n)
        np.copyto(m[:, 0], 0.0, where=pad)
        np.copyto(m.reshape(len(m), -1)[:, ::n + 1], s, where=pad)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # an exactly singular (or non-finite) matrix
        inv = np.full_like(m, np.nan)  # no condition: judged below
        for k in range(len(m)) if len(m) > 1 else ():
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[k:k + 1] = np.linalg.inv(m[k:k + 1])
    # (D M)^-1 is M^-1 with its columns but the first times s (D divides
    # the rows but the trace row by s, exactly); column sums as products
    # with ones, faster than a middle-axis sum
    ones = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):  # only a matrix of no use overflows
        cols = ones @ np.abs(inv)
        cols[:, 1:] *= s
        rcond = (1.0 / (ones[1:] @ size[:, 1:] / s + np.abs(trace)).max(axis=1)
                 / cols.max(axis=1))
    # no condition (0 or NaN: a non-finite matrix, an overflowed inverse) passes
    above = rcond >= 2.0 * KERNEL_RCOND_FLOOR
    if above.all():
        return inv, {}, scale
    errors = {}
    with np.errstate(over="ignore"):  # the inverse of a matrix of no use sums past the range
        for k in np.flatnonzero(~above):
            own = n if sizes is None else sizes[k]
            exc = _matrix_verdict(mats[k, :own, :own], trace[:own], scale[k])
            if exc is not None:
                errors[int(k)], inv[k] = exc, np.nan
    return inv, errors, scale


def _rows_scale(scale):
    """The power of two at or below ``scale`` (a float or elementwise),
    which divides the rows of a trace-row matrix but the trace row, exactly."""
    if isinstance(scale, np.ndarray):
        return np.ldexp(0.5, np.frexp(scale)[1])
    return math.ldexp(0.5, math.frexp(scale)[1])


def _matrix_verdict(mat: np.ndarray, trace, scale: float) -> np.linalg.LinAlgError | None:
    """The kernel verdict of one matrix of ``max |mat|`` ``scale``, for a
    chain point and the optimizer's maximizer alike: None where it stands,
    else its error.  With its rows but the first over :func:`_rows_scale`
    and its first row replaced with ``trace``, a matrix whose exact 1-norm
    reciprocal condition reaches ``KERNEL_RCOND_FLOOR`` has a unique kernel,
    whose trace the trace row fixes."""
    if not math.isfinite(scale):  # an overflowed rate
        return NoKernelError(f"generator has non-finite entries (max |L| = {scale})")
    if scale == 0.0:
        return DegenerateKernelError("zero generator: every state is stationary")
    m = mat / _rows_scale(scale)
    m[0] = trace
    try:
        rcond = 1.0 / np.abs(m).sum(axis=0).max() / np.abs(np.linalg.inv(m)).sum(axis=0).max()
    except np.linalg.LinAlgError:  # exactly singular
        rcond = 0.0
    if rcond >= KERNEL_RCOND_FLOOR:
        return None
    return DegenerateKernelError(  # NaN: an inverse that overflowed
        f"reciprocal condition {rcond if rcond >= 0.0 else 0.0:.3e} below "
        f"{KERNEL_RCOND_FLOOR:.0e}; stationary state numerically degenerate")


def _svd_kernel(mat: np.ndarray, trace: np.ndarray, scale: float) -> np.ndarray:
    """The unit-trace kernel vector of one matrix from its SVD
    (:func:`_kernel_diagnostics`), held to the trace and residual gates of
    the primary path; ``scale`` is ``max |mat|``."""
    v = _normalize_trace(_kernel_diagnostics(mat), trace)
    if v is None:
        raise DegenerateKernelError(
            "kernel vector has (near-)zero trace; stationary state ill-defined"
        )
    if np.max(np.abs(mat @ v)) > KERNEL_RESIDUAL_RTOL * scale:
        raise NoKernelError("kernel residual exceeds tolerance even on the singular-vector path")
    return v


def propagate(op: SuperOp, rho0: np.ndarray, dt: float | None = None,
              steps: int = 1000) -> np.ndarray:
    """Approximate ``expm(op.matrix * dt * steps) @ rho0`` by fixed-step RK4.

    ``dt`` defaults to ``0.1 / max|matrix|``, conservative for classical
    4th-order stepping at these dimensions.  The integrator never
    renormalizes: trace drift is the caller's divergence diagnostic (callers
    should confirm convergence by step halving).

    On a linear generator one RK4 step is the fixed matrix
    ``T = sum_{k<=4} (dt L)^k / k!``, so ``steps`` steps are ``T^steps @ v``,
    formed by repeated squaring of ``T`` in about log2(steps) products.
    """
    mat = op.matrix
    if dt is None:
        scale = np.max(np.abs(mat))
        if scale == 0.0:
            return np.array(rho0, dtype=complex, copy=True)
        dt = 0.1 / scale
    v = vectorize(np.asarray(rho0, dtype=complex)).copy()
    step = term = np.eye(len(mat), dtype=complex)
    for k in range(1, 5):
        term = term @ (dt * mat) / k
        step = step + term
    while steps:
        if steps & 1:
            v = step @ v
        steps >>= 1
        step = step @ step if steps else step
    return devectorize(v, op.dim)
