import re
import warnings

import numpy as np
import pytest

import qpump
from qpump.linalg import (
    DegenerateKernelError,
    NoKernelError,
    SuperOp,
    _kernel_decisions,
    _kernel_diagnostics,
    _matrix_verdict,
    _svd_kernel,
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

    def test_generator_at_the_edge_of_the_double_range(self, monkeypatch):
        # a pump generator times 2^1000 (max |L| 1.06e308): the inverse of
        # its unscaled trace-row matrix loses the condition to underflow,
        # and its scaled matrix, inverted itself, holds it, so the kernel
        # solve gives the unscaled generator's state, with no SVD (whose
        # largest singular value overflows, so that it called the kernel
        # not unique)
        cfg = qpump.ideal_pump(3, 102.6, 40.0, 7.1e3, 1.57e3, 54.25, 0.35, 5.1e-3, 8.8e-3)
        op = qpump.build_liouvillian(cfg)
        scaled = SuperOp(3, op.matrix * 2.0 ** 500 * 2.0 ** 500)
        diagnosed = []
        monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics", diagnosed.append)
        assert np.max(np.abs(stationary_vector(scaled) - stationary_vector(op))) < 1e-13
        assert not diagnosed


def below_floor(floor: str) -> str:
    """The message of a point below the condition floor ``floor``, as a
    pattern: it carries the point's condition."""
    return (r"reciprocal condition \d\.\d{3}e[+-]\d+ below " + re.escape(floor)
            + "; stationary state numerically degenerate")


class TestStackedDecisions:
    """The kernel verdicts of a stack of whole generators, each point
    judged as it is alone."""

    @staticmethod
    def pumps():
        # three 4-level generators of one shape
        return [qpump.build_liouvillian(qpump.ideal_pump(4, 2.0, w_c, 40.0, 8.0, 2.0,
                                                         5e-3, 5e-3, 5e-3)).matrix
                for w_c in (0.3, 0.5, 0.7)]

    def test_stack_matches_one_matrix_at_a_time(self):
        mats = np.array(self.pumps())
        inv, errors, _ = _kernel_decisions(mats, trace_row(4))
        assert not errors
        for k, mat in enumerate(mats):
            assert np.array_equal(inv[k], _kernel_decisions(mat[None], trace_row(4))[0][0])

    def test_singular_matrix_is_solved_alone(self, monkeypatch):
        # a 4-level generator whose levels 2 and 3 are dark has an exactly
        # singular trace-constrained matrix; it fails the stacked inversion,
        # the stack is inverted point by point, and only that point fails,
        # its scaled matrix (inverted last) at condition 0, with no SVD
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
        inverses, errors, _ = _kernel_decisions(np.array([good[0], good[1], dark]), trace_row(4))
        assert inversions == [(3, 16, 16), (1, 16, 16), (1, 16, 16), (1, 16, 16), (16, 16)]
        assert not diagnosed
        assert list(errors) == [2] and isinstance(errors[2], DegenerateKernelError)
        assert str(errors[2]).startswith("reciprocal condition 0.000e+00 below 1e-13")
        assert np.isnan(inverses[2]).all()
        alone = _kernel_decisions(np.array(good[:2]), trace_row(4))[0]
        assert np.array_equal(inverses[:2], alone)

    def test_failing_points_are_reported_by_index(self):
        # a non-finite and a zero generator each fail on their own, under
        # their own index, and leave the good point's inverse as it is alone
        good = self.pumps()
        bad = good[1].copy()
        bad[3, 0] = np.inf
        inv, errors, *_ = _kernel_decisions(np.array([good[0], bad, np.zeros((16, 16), complex)]),
                                            trace_row(4))
        assert list(errors) == [1, 2]
        assert isinstance(errors[1], NoKernelError) and "non-finite" in str(errors[1])
        assert isinstance(errors[2], DegenerateKernelError)
        assert np.isnan(inv[1:]).all()
        inv0, errors0, *_ = _kernel_decisions(good[0][None], trace_row(4))
        assert np.array_equal(inv[0], inv0[0]) and not errors0


class TestKernelDecisions:
    """The kernel verdicts alone, which the chain solves and the optimizer's
    maximizer take with no kernel vector."""

    @staticmethod
    def mixed():
        # a good point, a zero (degenerate) generator, a non-finite one and an
        # exactly singular one, whose levels 2 and 3 are dark
        good = TestStackedDecisions.pumps()[0]
        bad = good.copy()
        bad[3, 0] = np.inf
        jump = np.zeros((4, 4), dtype=complex)
        jump[0, 1] = 1.0
        dark = build_dissipator(jump, decay_rates(BathSpec("cold", 1.0, 0.5), 1.0)).matrix
        return np.array([good, np.zeros((16, 16), complex), bad, dark])

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2)])
    def test_decisions_are_those_of_the_kernel_solve(self, order):
        # each point of the stack fails where stationary_vector fails alone,
        # with its error: the zero and the non-finite generator with its
        # text, the singular one at condition 0, where stationary_vector's
        # SVD finds the kernel not unique
        mats = self.mixed()[list(order)]
        inv, errors, _ = _kernel_decisions(mats, trace_row(4))
        alone = {}
        for k, mat in enumerate(mats):
            try:
                stationary_vector(SuperOp(4, mat))
            except np.linalg.LinAlgError as exc:
                alone[k] = exc
        assert list(errors) == list(alone) == [k for k in range(4) if order[k] != 0]
        assert [type(e) for e in errors.values()] == [type(e) for e in alone.values()]
        singular = order.index(3)
        assert [str(e) for k, e in errors.items() if k != singular] == \
            [str(e) for k, e in alone.items() if k != singular]
        assert str(errors[singular]).startswith("reciprocal condition 0.000e+00")
        assert str(alone[singular]).startswith("two smallest singular values")
        good = order.index(0)
        assert np.array_equal(inv[good], _kernel_decisions(mats[good][None], trace_row(4))[0][0])
        assert np.isfinite(inv[good]).all()
        assert np.isnan(np.delete(inv, good, axis=0)).all()

    def test_condition_is_scale_free(self, monkeypatch):
        # a stack of 4-level ladder rate matrices with every rate times 2^k:
        # the condition that the floor judges does not follow k, as the rows
        # but the trace row are divided by a power of two of their scale;
        # with the trace row left at 1 it would
        rates = np.array([[3.0, 1.0, 2.0, 0.5, 4.0, 1.5], [0.2, 0.1, 5.0, 0.05, 1.0, 0.9],
                          [7.0, 6.5, 0.3, 0.2, 2.0, 0.1]])
        mats = qpump.steady._ladder(4).blocks(rates.T)
        for floor, below in ((1e-2, []), (0.5, [0, 1, 2])):
            monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", floor)
            for k in (-300, -40, 0, 40, 300):
                inv, errors, _ = _kernel_decisions(np.ldexp(mats, k), np.ones(4))
                assert sorted(errors) == below
                assert all(isinstance(e, DegenerateKernelError) for e in errors.values())
                assert np.isnan(inv[below]).all()
                assert np.isfinite(np.delete(inv, below, axis=0)).all()
        trace_rows = [np.ldexp(mats, k) for k in (0, 40)]
        for m in trace_rows:
            m[:, 0, :] = 1.0
        plain = [1.0 / np.linalg.cond(m, 1) for m in trace_rows]
        assert (plain[0] > 1e-2).all() and (plain[1] < 1e-13).all()

    def test_points_below_the_floor_fail_and_the_oracle_keeps_the_svd(self, monkeypatch):
        # every point below the floor: each fails with its condition and a
        # NaN inverse, and no SVD runs; stationary_vector alone falls back
        # to the SVD, whose vector is the kernel solve's
        mats = np.array(TestStackedDecisions.pumps())
        above = [stationary_vector(SuperOp(4, mat)) for mat in mats]
        diagnosed = []
        diagnostics = qpump.linalg._kernel_diagnostics
        monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics",
                            lambda m: diagnosed.append(m) or diagnostics(m))
        monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
        inv, errors, scale = _kernel_decisions(mats, trace_row(4))
        assert list(errors) == [0, 1, 2] and not diagnosed
        assert all(isinstance(e, DegenerateKernelError)
                   and re.fullmatch(below_floor("1e+00"), str(e))
                   for e in errors.values())
        assert np.isnan(inv).all()
        for k, mat in enumerate(mats):
            v = stationary_vector(SuperOp(4, mat))
            assert np.array_equal(v, _svd_kernel(mat, trace_row(4), scale[k]))
            assert np.max(np.abs(v - above[k])) < 1e-8
        assert len(diagnosed) == 2 * len(mats)


def ladder(n, rates, k=0):
    """The rate matrix of an n-level ladder of the six rates (work, hot,
    cold; down then up), times 2^k."""
    return np.ldexp(qpump.steady._ladder(n).blocks(np.array(rates)[:, None])[0], k)


def own_rcond(mat):
    """The condition that _matrix_verdict judges, written out: rows but the
    first over the power of two at or below max|M|, the first row ones."""
    m = mat / qpump.linalg._rows_scale(np.abs(mat).max())
    m[0] = 1.0
    return 1.0 / np.abs(m).sum(axis=0).max() / np.abs(np.linalg.inv(m)).sum(axis=0).max()


def weak(eps):
    """Rates that couple a ladder's cold pairs of levels by ``eps`` alone:
    the condition falls with ``eps``, and at 0 the pairs are closed classes."""
    return [eps, eps, eps, eps, 3.0, 1.0]


def overflowed(mat, bad):
    """``mat`` with the rate from level 0 to level 1, and so level 0's
    out-rate, at ``bad``."""
    mat = mat.copy()
    mat[1, 0], mat[0, 0] = bad, -bad
    return mat


def padded_verdicts(mats):
    """The verdict of each chain rate matrix of ``mats``, of mixed sizes,
    from one stack of them padded with zeros to the largest: None or its error."""
    sizes = [len(mat) for mat in mats]
    stack = np.zeros((len(mats), max(sizes), max(sizes)))
    for block, mat in zip(stack, mats):
        block[:len(mat), :len(mat)] = mat
    _, errors, _ = _kernel_decisions(stack, np.ones(max(sizes)), sizes)
    return [errors.get(k) for k in range(len(mats))]


class TestChainVerdicts:
    """The stacked verdict of chain rate matrices of mixed sizes, padded to
    the largest: a screen whose verdicts are those of each matrix alone."""

    @staticmethod
    def corpus():
        # name -> matrix, at N = 3..10 and scales from 2^-40 to 2^900
        return {
            "pass_3": ladder(3, [1.0, 2.0, 3.0, 0.5, 1.0, 1.5], 40),
            "pass_5": ladder(5, [0.2, 0.1, 5.0, 0.05, 1.0, 0.9], -40),
            "pass_10": ladder(10, [7.0, 6.5, 0.3, 0.2, 2.0, 0.1]),
            "pass_8": ladder(8, [3.0, 1.0, 2.0, 0.5, 4.0, 1.5], 900),
            "near_4": ladder(4, weak(8e-13)),  # just above the floor
            "below_6": ladder(6, weak(1e-15), -30),
            "zero_7": np.zeros((7, 7)),
            "inf_3": overflowed(ladder(3, [1.0] * 6), np.inf),
            "nan_10": overflowed(ladder(10, [1.0] * 6), np.nan),
            "singular_9": ladder(9, weak(0.0)),  # five closed classes
        }

    def test_corpus_spans_the_cases(self):
        mats = self.corpus()
        assert sorted(len(m) for m in mats.values()) == [3, 3, 4, 5, 6, 7, 8, 9, 10, 10]
        floor = qpump.linalg.KERNEL_RCOND_FLOOR
        assert all(own_rcond(mats[k]) >= 1e3 * floor for k in mats if k.startswith("pass"))
        assert floor < own_rcond(mats["near_4"]) < 2.0 * floor
        assert own_rcond(mats["below_6"]) < floor
        with pytest.raises(np.linalg.LinAlgError):
            own_rcond(mats["singular_9"])

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_verdict_is_that_of_the_matrix_alone(self, singular, seed):
        # in any order and with or without an exactly singular point: None
        # where _matrix_verdict alone passes the matrix, else its error's
        # type and words; the stack itself raises no RuntimeWarning
        corpus = self.corpus()
        if not singular:
            del corpus["singular_9"]
        names = list(np.random.default_rng(seed).permutation(list(corpus)))
        mats = [corpus[name] for name in names]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = padded_verdicts(mats)
        assert len(verdicts) == len(mats)
        for name, mat, exc in zip(names, mats, verdicts):
            alone = _matrix_verdict(mat, 1.0, np.abs(mat).max())
            assert (type(exc), str(exc)) == (type(alone), str(alone)), name
            assert (exc is None) == (name.startswith("pass") or name == "near_4"), name

    def test_screen_passes_only_points_clear_of_the_floor(self, monkeypatch):
        # a point is judged alone where the padded stack puts it below twice
        # the floor or cannot judge it, and only there: the padding, placed
        # after the scaling, moves no point's condition
        corpus = self.corpus()
        del corpus["singular_9"]
        names = list(corpus)
        judged = []
        verdict = qpump.linalg._matrix_verdict
        monkeypatch.setattr(qpump.linalg, "_matrix_verdict",
                            lambda mat, *args: judged.append(len(mat)) or verdict(mat, *args))
        padded_verdicts([corpus[name] for name in names])
        assert judged == [len(corpus[name]) for name in names
                          if not name.startswith("pass")]

    def test_singular_stack_is_inverted_point_by_point(self, monkeypatch):
        # an exactly singular matrix fails the stack's one inversion: every
        # point is then inverted alone, and only the points that do not pass
        # so are judged alone
        corpus = self.corpus()
        judged, inversions = [], []
        verdict, inv = qpump.linalg._matrix_verdict, np.linalg.inv
        monkeypatch.setattr(qpump.linalg, "_matrix_verdict",
                            lambda mat, *args: judged.append(len(mat)) or verdict(mat, *args))
        monkeypatch.setattr(np.linalg, "inv", lambda m: inversions.append(m.shape) or inv(m))
        verdicts = padded_verdicts(list(corpus.values()))
        assert judged == [len(m) for name, m in corpus.items() if not name.startswith("pass")]
        assert inversions[:len(corpus) + 1] == [(len(corpus), 10, 10)] + [(1, 10, 10)] * len(corpus)
        assert str(verdicts[-1]).startswith("reciprocal condition 0.000e+00 below 1e-13")

    def test_same_size_stack_judges_a_point_near_the_floor_alone(self, monkeypatch):
        # a chain's stack of one size passes a point only at twice the floor:
        # one whose own condition lies between the floor and twice it is
        # judged by _matrix_verdict alone, which passes it, and its inverse
        # is the one it has alone
        near = ladder(4, weak(8e-13))
        mats = np.array([ladder(4, [3.0, 1.0, 2.0, 0.5, 4.0, 1.5]), near,
                         ladder(4, [0.2, 0.1, 5.0, 0.05, 1.0, 0.9])])
        floor = qpump.linalg.KERNEL_RCOND_FLOOR
        assert floor < own_rcond(near) < 2.0 * floor
        judged = []
        verdict = qpump.linalg._matrix_verdict
        monkeypatch.setattr(qpump.linalg, "_matrix_verdict",
                            lambda mat, *args: judged.append(mat) or verdict(mat, *args))
        inv, errors, _ = _kernel_decisions(mats, np.ones(4))
        assert len(judged) == 1 and np.array_equal(judged[0], near)
        assert not errors
        m = near.copy()
        m[0] = 1.0
        assert np.array_equal(inv[1], np.linalg.inv(m))


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
