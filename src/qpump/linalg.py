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
precision, and numpy is the only dependency.  The kernel solve takes a stack
of matrices and their trace row: a stack of one whole superoperator
(:func:`stationary_vector`), or the rate matrices of the ideal pump's ladder
or of the three-qubit fridge's eight-state chain, one per point of a sweep,
whose kernel decisions it makes.  It inverts the stack in one
``numpy.linalg.inv`` call (an LU factorization per matrix) and gates each
point on its own.
"""

from __future__ import annotations

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
# Reciprocal condition estimate below which the trace-constrained solve is
# not trusted: a near-degenerate kernel can satisfy the residual gate with a
# meaningless mixture, so such systems are sent to the SVD diagnostics.
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


def trace_row(n: int, dtype=complex) -> np.ndarray:
    """Row vector representing tr(.) on column-stacked ``n x n`` matrices."""
    row = np.zeros(n * n, dtype=dtype)
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


def _reciprocal_condition(m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Exact 1-norm reciprocal condition ``1 / (|M|_1 |M^-1|_1)`` of a matrix
    or of each matrix of a stack, from its inverse.  LAPACK's gecon estimates
    ``|M^-1|_1`` from below, so its estimate is never smaller than this."""
    return 1.0 / np.abs(m).sum(axis=-2).max(axis=-1) / np.abs(inv).sum(axis=-2).max(axis=-1)


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


def _normalize_trace(v: np.ndarray, trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector of ``v`` (one, or a stack along the first axis) divided by
    its trace, and whether that trace stands clear of zero: at least
    ``KERNEL_TRACE_RTOL`` of the vector's largest entry.  A vector whose
    trace does not is returned undivided."""
    tr = (v * trace).sum(axis=-1)
    ok = np.abs(tr) >= KERNEL_TRACE_RTOL * np.abs(v).max(axis=-1)
    return v / np.where(ok, tr, 1.0)[..., None], ok


def stationary_vector(op: SuperOp) -> np.ndarray:
    """Solve ``op.matrix @ v = 0`` with ``devectorize(v)`` of unit trace, by
    the gated kernel solve below on a stack of one whole generator.

    Raises
    ------
    NoKernelError
        A non-finite generator entry, or no singular value small enough for
        a stationary state.
    DegenerateKernelError
        More than one stationary state within tolerance.
    """
    v, _, errors = _stationary_vectors(op.matrix[None], trace_row(op.dim))
    if errors:
        raise errors[0]
    return v[0]


def _stationary_vectors(mats: np.ndarray, trace: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """Kernel vectors ``v[k]`` of a stack of matrices ``mats[k]``, each with
    ``trace @ v[k] == 1``, the inverse of each trace-constrained matrix, and
    the kernel errors by point index, for whole generators or invariant
    blocks of them.

    Every point is judged on its own.  The primary path replaces the first
    row of each matrix with ``trace`` and inverts the stack; the first
    column of an inverse, plus one step of iterative refinement, is the
    vector.  A point whose exact 1-norm reciprocal condition
    ``1 / (|M|_1 |M^-1|_1)`` is below ``KERNEL_RCOND_FLOOR``, or that fails
    the trace or residual gate, gets its vector from an SVD of its matrix,
    which doubles as the uniqueness diagnostic.  A point with no unique
    stationary state does not stop the others: its
    :class:`NoKernelError` or :class:`DegenerateKernelError` is returned
    under its index, and its vector and inverse are NaN, so that the caller
    can judge the points in order.  An exactly singular (or non-finite)
    matrix fails the stacked inversion, so such a stack is solved point by
    point and only that point leaves the primary path.  The inverses are
    returned on every path, so that a caller can refine the states without
    factoring again."""
    scale = np.abs(mats).max(axis=(1, 2))
    m = mats.copy()
    m[:, 0, :] = trace
    try:
        inv = np.linalg.inv(m) if (np.isfinite(scale) & (scale > 0.0)).all() else None
    except np.linalg.LinAlgError:
        inv = None
    if inv is None and len(m) > 1:
        parts = [_stationary_vectors(mat[None], trace) for mat in mats]
        errors = {k: exc for k, part in enumerate(parts) for exc in part[2].values()}
        return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
                errors)
    errors = {}
    if inv is None:
        if not np.isfinite(scale[0]):
            # an overflowed rate; neither the inverse nor the SVD can use such a matrix
            errors[0] = NoKernelError(f"generator has non-finite entries (max |L| = {scale[0]})")
        elif scale[0] == 0.0:
            errors[0] = DegenerateKernelError("zero generator: every state is stationary")
        if errors:
            nan = np.full_like(m, np.nan)
            return nan[:, 0], nan, errors
        # exactly singular: the SVD below decides, and a refinement can only
        # go through the pseudo-inverse
        inv, rcond = np.linalg.pinv(m), np.zeros(1)
    else:
        rcond = _reciprocal_condition(m, inv)
    v = inv[:, :, 0].copy()  # contiguous: the sums below then run in one order for any P
    b = np.zeros(m.shape[1], dtype=m.dtype)
    b[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        # the inverse of a point below the condition floor may overflow;
        # the gates drop such a point, whatever its arithmetic gives here
        v = v + (inv @ (b - (m @ v[..., None])[..., 0])[..., None])[..., 0]
        v, ok = _normalize_trace(v, trace)
        ok &= (rcond >= KERNEL_RCOND_FLOOR) & np.isfinite(v).all(axis=1)
        ok &= np.abs(mats @ v[..., None]).max(axis=(1, 2)) <= KERNEL_RESIDUAL_RTOL * scale

    # Replacement solve failed: run the SVD path, which either produces a
    # usable kernel vector or explains the failure.
    for k in np.flatnonzero(~ok):
        try:
            v[k], traced = _normalize_trace(_kernel_diagnostics(mats[k]), trace)
            if not traced:
                raise DegenerateKernelError(
                    "kernel vector has (near-)zero trace; stationary state ill-defined"
                )
            if np.max(np.abs(mats[k] @ v[k])) > KERNEL_RESIDUAL_RTOL * scale[k]:
                raise NoKernelError(
                    "kernel residual exceeds tolerance even on the singular-vector path"
                )
        except (NoKernelError, DegenerateKernelError) as exc:
            errors[int(k)] = exc
            v[k], inv[k] = np.nan, np.nan
    return v, inv, errors


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
