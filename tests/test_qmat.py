import warnings

import numpy as np
import pytest

from discordium.qmat import (
    BipartiteState,
    DensityMatrix,
    PureState,
    bell_state,
    classical_state,
    eigh,
    ginibre_state,
    partial_trace,
    product_state,
    purify,
    tensor_product,
    werner,
)


def rand_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            np.testing.assert_allclose(
                np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b), atol=1e-12
            )

    def test_basis_bookkeeping(self):
        # |0><0| (x) |1><1| occupies the (1,1) entry in A-major order
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor_product(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(out, expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestPartialTrace:
    def test_bell_marginals(self):
        rho = bell_state()
        for side in "AB":
            np.testing.assert_allclose(
                partial_trace(rho, side).matrix, np.eye(2) / 2, atol=1e-12
            )

    def test_product_state(self):
        rng = np.random.default_rng(2)
        a, b = rand_density(2, rng), rand_density(3, rng)
        rho = product_state(a, b)
        np.testing.assert_allclose(partial_trace(rho, "A").matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "B").matrix, b.matrix, atol=1e-12)

    def test_trace_preserved(self):
        rho = ginibre_state(2, 3, 4, seed=5)
        for side in "AB":
            red = partial_trace(rho, side)
            assert abs(np.trace(red.matrix) - 1) < 1e-12

    def test_bad_label(self):
        with pytest.raises(ValueError):
            partial_trace(bell_state(), "C")


class TestEigh:
    def test_diagonal(self):
        evals, _ = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(evals, [1, 2, 3])

    def test_maximally_mixed(self):
        evals, _ = eigh(np.eye(2) / 2)
        np.testing.assert_allclose(evals, [0.5, 0.5])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            evals, v = eigh(h)
            np.testing.assert_allclose(v @ np.diag(evals) @ v.conj().T, h, atol=1e-10)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigh(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_each_member(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            g = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
            h = g + g.conj().transpose(0, 2, 1)
            evals, evecs = eigh(h)
            for k in range(5):
                want_vals, want_vecs = eigh(h[k])
                assert evals[k].tobytes() == want_vals.tobytes()
                assert evecs[k].tobytes() == want_vecs.tobytes()

    def test_stack_rejects_one_non_hermitian_member(self):
        h = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(h)
        with pytest.raises(ValueError, match="square"):
            eigh(np.ones((3, 2, 3)))


class TestPurify:
    def test_pure_input(self):
        psi = np.array([1, 1j, 0]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        out = purify(rho)
        assert out.dim_pair == (3, 1)
        np.testing.assert_allclose(partial_trace(out, "A").matrix, rho.matrix, atol=1e-10)

    def test_maximally_mixed_qubit(self):
        out = purify(DensityMatrix(np.eye(2) / 2))
        coefficients = np.linalg.svd(out.amplitudes.reshape(out.dim_pair), compute_uv=False)
        np.testing.assert_allclose(coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_roundtrip_rank2(self):
        rho = ginibre_state(2, 2, 2, seed=9).state
        out = purify(rho)
        assert out.dim_pair == (4, 2)
        np.testing.assert_allclose(partial_trace(out, "A").matrix, rho.matrix, atol=1e-10)

    def test_roundtrip_sweep(self):
        # 200 seeded states across dims 2..4, every rank
        rng = np.random.default_rng(11)
        count = 0
        while count < 200:
            dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, dim + 1))
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real)
            out = purify(rho)
            assert out.dim_pair[1] == rho.rank
            np.testing.assert_allclose(
                partial_trace(out, "A").matrix, rho.matrix, atol=1e-10
            )
            count += 1


class TestGenerators:
    def test_werner_endpoint(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(
            werner(1.0).matrix, np.outer(singlet, singlet), atol=1e-12
        )

    def test_classical_diag(self):
        rho = classical_state(
            [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_ginibre_deterministic(self):
        a = ginibre_state(2, 2, 4, seed=7)
        b = ginibre_state(2, 2, 4, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_ginibre_rank_control(self):
        assert ginibre_state(2, 2, 2, seed=0).state.rank == 2
        assert ginibre_state(2, 3, 1, seed=0).state.rank == 1

    def test_generated_states_valid(self):
        rng = np.random.default_rng(17)
        for k in range(20):
            rho = ginibre_state(2, 3, int(rng.integers(1, 7)), seed=k)
            m = rho.matrix
            assert np.abs(m - m.conj().T).max() <= 1e-10
            assert abs(np.trace(m) - 1) <= 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            werner(1.5)
        with pytest.raises(ValueError):
            classical_state([0.7, 0.7], [np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValueError):
            ginibre_state(2, 2, 5, seed=0)


class TestInvariantValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(2) / 2
        m = m.astype(complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_factorization(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 3, DensityMatrix(np.eye(4) / 4))

    def test_rank(self):
        assert DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0])).rank == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = bad
        # rejected up front, by name, before any check could warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(m)
            with pytest.raises(ValueError, match="non-finite"):
                PureState((2, 2), np.array([bad, 0.0, 0.0, 0.0]))
            with pytest.raises(ValueError, match="non-finite"):
                classical_state([bad, 0.5], [np.eye(2) / 2, np.eye(2) / 2])

    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_immutability(self):
        rho = bell_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestSpectrum:
    def test_equals_eigvalsh_of_hermitian_part(self):
        rng = np.random.default_rng(40)
        for dim in (2, 3, 4, 6):
            rho = rand_density(dim, rng)
            # drift of 1e-12 in the anti-Hermitian part, within HERM_TOL
            drift = 1e-12 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            m = rho.matrix + drift - drift.conj().T
            dm = DensityMatrix(m)
            expected = np.linalg.eigvalsh((m + m.conj().T) / 2)
            assert np.array_equal(dm.spectrum, expected)
            assert dm.rank == np.count_nonzero(expected > 1e-9)

    def test_read_only(self):
        dm = bell_state().state
        assert not dm.spectrum.flags.writeable
        with pytest.raises(ValueError):
            dm.spectrum[0] = 1.0

    def test_not_in_repr_or_init(self):
        a = DensityMatrix(np.eye(2) / 2)
        assert "spectrum" not in repr(a)
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(2) / 2, spectrum=np.ones(2))
