import numpy as np
import pytest

import qpump
from qpump.linalg import (
    DegenerateKernelError,
    NoKernelError,
    SuperOp,
    _kernel_diagnostics,
    _stationary_vectors,
    devectorize,
    propagate,
    stationary_vector,
    trace_row,
    vectorize,
)
from qpump.pump import BathSpec, decay_rates
from qpump.steady import build_dissipator, hamiltonian_commutator

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def kron(a, b):
    """Kronecker product with complex promotion, shape (ra*rb, ca*cb)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def trace_defect(op):
    """``max |tr_row @ matrix|`` relative to ``max |matrix|``: how badly the
    superoperator fails to annihilate the trace; ~1e-16 for a generator of
    trace-preserving dynamics."""
    scale = np.max(np.abs(op.matrix))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(trace_row(op.dim) @ op.matrix)) / scale)


def reference_kron(a, b):
    """Direct entrywise Kronecker definition, independent of numpy's."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def thermal_qubit_superop(omega=1.0, temperature=2.0, gamma=0.3):
    ham = np.diag([0.0, omega]).astype(complex)
    rates = decay_rates(BathSpec("cold", temperature, gamma), omega)
    mat = hamiltonian_commutator(ham).matrix + build_dissipator(SIGMA_MINUS, rates).matrix
    return SuperOp(2, mat), omega / temperature


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([0.0, 1.0]), np.eye(2))
        assert np.array_equal(out, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_lowering_times_identity_column_mapping(self):
        # |10> (index 2) must map to |00> (index 0); check the whole matrix
        # against the entrywise definition as well.
        out = kron(SIGMA_MINUS, np.eye(2))
        assert np.array_equal(out, reference_kron(SIGMA_MINUS, np.eye(2)))
        col = out[:, 2]
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(col, expected)

    def test_associativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                       for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) <= 1e-12


class TestVectorize:
    def test_identity(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))

    def test_column_stacking_convention(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vectorize(m), np.array([1, 3, 2, 4], dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(devectorize(vectorize(m), 5), m)

    def test_devectorize_length_mismatch(self):
        with pytest.raises(ValueError):
            devectorize(np.zeros(5), 2)

    def test_sandwich_identity(self):
        # vec(A X B) == kron(B.T, A) vec(X): the convention every
        # superoperator here is assembled with.
        rng = np.random.default_rng(11)
        a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(3))
        lhs = vectorize(a @ x @ b)
        rhs = kron(b.T, a) @ vectorize(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestStationaryVector:
    def test_thermal_qubit_gibbs(self):
        op, beta_omega = thermal_qubit_superop()
        v = stationary_vector(op)
        rho = devectorize(v, 2)
        z = 1.0 + np.exp(-beta_omega)
        assert abs(rho[0, 0] - 1.0 / z) < 1e-12
        assert abs(rho[1, 1] - np.exp(-beta_omega) / z) < 1e-12

    def test_classical_rate_generator(self):
        # populations of [[-r, s], [r, -s]] embedded on the diagonal
        r, s = 0.7, 0.2
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0], mat[0, 3] = -r, s
        mat[3, 0], mat[3, 3] = r, -s
        mat[1, 1] = mat[2, 2] = -0.5 * (r + s)
        v = stationary_vector(SuperOp(2, mat))
        rho = devectorize(v, 2)
        assert abs(rho[0, 0] - s / (r + s)) < 1e-12
        assert abs(rho[1, 1] - r / (r + s)) < 1e-12

    def test_pump_matches_rate_oracle(self):
        import qpump

        cfg = qpump.ideal_pump(3, 102.6, 1.4, 7.1e3, 1.57e3, 54.25,
                               3.5e-3, 5.1e-3, 8.8e-3)
        v = stationary_vector(qpump.build_liouvillian(cfg))
        pops = np.real(np.diag(devectorize(v, 3)))
        oracle = qpump.pauli_rate_oracle(cfg)
        assert np.max(np.abs(pops - oracle.populations)) < 1e-10

    def test_output_invariants(self):
        import qpump

        cfg = qpump.ideal_pump(6, 2.0, 0.4, 40.0, 8.0, 2.0, 4e-3, 4e-3, 4e-3)
        op = qpump.build_liouvillian(cfg)
        v = stationary_vector(op)
        rho = devectorize(v, 6)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        eig = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        assert eig.min() >= -1e-10
        assert np.max(np.abs(op.matrix @ v)) <= 1e-10 * np.max(np.abs(op.matrix))

    def test_check_uniqueness_path_agrees(self):
        # the LU path against the SVD diagnostic it falls back to
        op, _ = thermal_qubit_superop()
        v_fast = stationary_vector(op)
        v_svd = _kernel_diagnostics(op.matrix)
        v_svd = v_svd / np.trace(devectorize(v_svd, op.dim))
        assert np.max(np.abs(v_fast - v_svd)) < 1e-8

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_generator_has_no_kernel(self, bad):
        # an overflowed rate must fail as NoKernelError before the LU and the
        # SVD, which would raise a plain LinAlgError on such a matrix
        op, _ = thermal_qubit_superop()
        matrix = op.matrix.copy()
        matrix[3, 0] = bad
        with pytest.raises(NoKernelError, match="non-finite"):
            stationary_vector(SuperOp(op.dim, matrix))

    def test_degenerate_kernel_detected(self):
        # dissipation touches only levels 0<->1 of a 4-level space: levels
        # 2, 3 are dark, so the stationary state is not unique
        jump = np.zeros((4, 4), dtype=complex)
        jump[0, 1] = 1.0
        op = build_dissipator(jump, decay_rates(BathSpec("cold", 1.0, 0.5), 1.0))
        with pytest.raises(DegenerateKernelError):
            stationary_vector(op)

    def test_no_kernel_detected(self):
        with pytest.raises(NoKernelError):
            stationary_vector(SuperOp(2, -np.eye(4, dtype=complex)))

    def test_zero_generator_rejected(self):
        with pytest.raises(DegenerateKernelError):
            stationary_vector(SuperOp(2, np.zeros((4, 4), dtype=complex)))


class TestStationaryVectors:
    """The stacked kernel solve that stationary_vector runs on a stack of one."""

    @staticmethod
    def pumps():
        # three 4-level generators of one shape
        return [qpump.build_liouvillian(qpump.ideal_pump(4, 2.0, w_c, 40.0, 8.0, 2.0,
                                                         5e-3, 5e-3, 5e-3)).matrix
                for w_c in (0.3, 0.5, 0.7)]

    def test_stack_matches_one_matrix_at_a_time(self):
        mats = np.array(self.pumps())
        v, inv, _ = _stationary_vectors(mats, trace_row(4))
        for k, mat in enumerate(mats):
            v1, inv1, _ = _stationary_vectors(mat[None], trace_row(4))
            assert np.array_equal(v[k], v1[0]) and np.array_equal(inv[k], inv1[0])

    def test_singular_matrix_is_solved_alone(self, monkeypatch):
        # a 4-level generator whose levels 2 and 3 are dark has an exactly
        # singular trace-constrained matrix; it fails the stacked inversion,
        # the stack is solved point by point, and only that point reaches
        # the SVD diagnostics, which find its kernel not unique
        jump = np.zeros((4, 4), dtype=complex)
        jump[0, 1] = 1.0
        dark = build_dissipator(jump, decay_rates(BathSpec("cold", 1.0, 0.5), 1.0)).matrix
        good = self.pumps()
        inversions, diagnosed = [], []
        inv, diagnostics = np.linalg.inv, qpump.linalg._kernel_diagnostics
        monkeypatch.setattr(np.linalg, "inv",
                            lambda m: inversions.append(m.shape) or inv(m))
        monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics",
                            lambda m: diagnosed.append(m) or diagnostics(m))
        v, inverses, errors = _stationary_vectors(np.array([good[0], good[1], dark]),
                                                  trace_row(4))
        assert inversions == [(3, 16, 16), (1, 16, 16), (1, 16, 16), (1, 16, 16)]
        assert len(diagnosed) == 1 and np.array_equal(diagnosed[0], dark)
        assert list(errors) == [2] and isinstance(errors[2], DegenerateKernelError)
        assert np.isnan(v[2]).all() and np.isnan(inverses[2]).all()
        assert np.array_equal(v[:2], _stationary_vectors(np.array(good[:2]), trace_row(4))[0])

    def test_failing_points_are_reported_by_index(self):
        # a non-finite and a zero generator each fail on their own, under
        # their own index, and leave the good point's solution as it is alone
        good = self.pumps()
        bad = good[1].copy()
        bad[3, 0] = np.inf
        v, inv, errors = _stationary_vectors(np.array([good[0], bad, np.zeros((16, 16), complex)]),
                                             trace_row(4))
        assert list(errors) == [1, 2]
        assert isinstance(errors[1], NoKernelError) and "non-finite" in str(errors[1])
        assert isinstance(errors[2], DegenerateKernelError)
        assert np.isnan(v[1:]).all() and np.isnan(inv[1:]).all()
        v0, inv0, errors0 = _stationary_vectors(good[0][None], trace_row(4))
        assert np.array_equal(v[0], v0[0]) and np.array_equal(inv[0], inv0[0]) and not errors0


class TestPropagate:
    def test_zero_generator_is_identity(self):
        rho0 = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        out = propagate(SuperOp(2, np.zeros((4, 4), dtype=complex)), rho0, steps=10)
        assert np.array_equal(out, rho0)

    def test_thermal_qubit_relaxes_to_gibbs(self):
        op, beta_omega = thermal_qubit_superop()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        out = propagate(op, rho0, steps=4000)
        z = 1.0 + np.exp(-beta_omega)
        assert abs(out[0, 0] - 1.0 / z) < 1e-9
        assert abs(np.trace(out) - 1.0) < 1e-8

    def test_pump_propagation_matches_null_space(self):
        import qpump

        cfg = qpump.ideal_pump(4, 2.0, 0.5, 40.0, 8.0, 2.0, 5e-3, 5e-3, 5e-3)
        op = qpump.build_liouvillian(cfg)
        v = stationary_vector(op)
        rho0 = np.eye(4, dtype=complex) / 4.0
        out = propagate(op, rho0, steps=120_000)
        assert np.max(np.abs(out - devectorize(v, 4))) < 1e-7
        assert abs(np.trace(out) - 1.0) < 1e-8

    def test_step_halving_converges(self):
        op, _ = thermal_qubit_superop()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        scale = np.max(np.abs(op.matrix))
        coarse = propagate(op, rho0, dt=0.1 / scale, steps=500)
        fine = propagate(op, rho0, dt=0.05 / scale, steps=1000)
        assert np.max(np.abs(coarse - fine)) < 1e-9


def test_trace_defect_of_generators():
    import qpump

    op, _ = thermal_qubit_superop()
    assert trace_defect(op) <= 1e-10
    cfg = qpump.ideal_pump(5, 102.6, 1.4, 7.1e3, 1.57e3, 54.25,
                           3.5e-3, 5.1e-3, 8.8e-3)
    assert trace_defect(qpump.build_liouvillian(cfg)) <= 1e-10


def test_superop_shape_validation():
    with pytest.raises(ValueError):
        SuperOp(3, np.zeros((4, 4), dtype=complex))
