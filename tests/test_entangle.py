import numpy as np
import pytest

from discordium.discord import _discord_PE
from discordium.entangle import (
    binary_entropy,
    concurrence_2q,
    eof_2q,
    eof_via_decomposition,
    koashi_winter_residual,
    purify_with_qubit_ancilla,
)
from discordium.entropy import von_neumann
from discordium.measure import from_neumark, random_unitary
from discordium.optimize import OptimizerConfig
from discordium.qmat import (
    DensityMatrix,
    PureState,
    bell_state,
    classical_state,
    ginibre_density,
    ginibre_state,
    partial_trace,
    product_state,
    purify,
    tensor_product,
)

# frozen: h((1 + sqrt(1 - 0.25)) / 2), thirty-digit evaluation
EOF_AT_C_HALF = 0.3545789026652699

CFG = OptimizerConfig(restarts=5, max_iters=4000, seed=0)


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence_2q(bell_state().state) - 1.0) < 1e-10

    def test_product(self):
        rng = np.random.default_rng(0)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        assert concurrence_2q(rho.state) < 1e-8

    def test_werner_law(self):
        from discordium.qmat import werner

        for p in (0.0, 1 / 3, 0.6, 1.0):
            expected = max(0.0, (3 * p - 1) / 2)
            assert abs(concurrence_2q(werner(p).state) - expected) < 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence_2q(DensityMatrix(np.eye(2) / 2))

    def test_pure_states(self):
        # C(psi) = |<psi| sy x sy |psi*>|; the rank-1 input is where the
        # eigenvalue route lost ~1e-8 to its near-zero eigenvalues
        rng = np.random.default_rng(11)
        syy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            expected = abs(v.conj() @ syy @ v.conj())
            rho = DensityMatrix(np.outer(v, v.conj()))
            assert abs(concurrence_2q(rho) - expected) < 1e-14


class TestEof2q:
    def test_endpoints(self):
        assert abs(eof_2q(bell_state().state).eof - 1.0) < 1e-10
        rng = np.random.default_rng(1)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        assert eof_2q(rho.state).eof < 1e-7

    def test_value_at_c_half(self):
        assert abs(binary_entropy((1 + np.sqrt(0.75)) / 2) - EOF_AT_C_HALF) < 1e-12
        # werner(2/3) has concurrence exactly 1/2
        from discordium.qmat import werner

        res = eof_2q(werner(2 / 3).state)
        assert abs(res.concurrence - 0.5) < 1e-10
        assert abs(res.eof - EOF_AT_C_HALF) < 1e-9

    def test_formula_invariant(self):
        rng = np.random.default_rng(2)
        for k in range(20):
            rho = ginibre_state(2, 2, int(rng.integers(1, 5)), seed=k).state
            res = eof_2q(rho)
            expected = binary_entropy((1 + np.sqrt(1 - res.concurrence**2)) / 2)
            assert abs(res.eof - expected) < 1e-12


class TestEofViaDecomposition:
    def test_pure_input(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi))
        res = eof_via_decomposition(rho, 2, 2, 4, CFG)
        assert abs(res.eof - 1.0) < 1e-6  # pure: infimum is the marginal entropy

    def test_separable_mixture(self):
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]))
        assert eof_via_decomposition(rho, 2, 2, 4, CFG).eof < 1e-6

    def test_matches_wootters(self):
        for seed in range(8):
            rho = ginibre_state(2, 2, 2, seed=100 + seed).state
            closed = eof_2q(rho).eof
            numeric = eof_via_decomposition(rho, 2, 2, 4, CFG).eof
            assert abs(numeric - closed) < 1e-4
            # an infimum approximated from above
            assert numeric >= closed - 1e-4

    def test_k_below_rank_rejected(self):
        rho = ginibre_state(2, 2, 4, seed=3).state
        with pytest.raises(ValueError):
            eof_via_decomposition(rho, 2, 2, 3, CFG)


class TestPurifyWithQubitAncilla:
    def test_rank_one_pads(self):
        psi = np.array([1, 1, 0, 0]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi))
        out = purify_with_qubit_ancilla(rho)
        assert out.dim_pair == (4, 2)
        np.testing.assert_allclose(partial_trace(out, "A").matrix, rho.matrix, atol=1e-10)

    def test_rank_three_rejected(self):
        with pytest.raises(ValueError):
            purify_with_qubit_ancilla(ginibre_state(2, 2, 3, seed=4).state)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_is_purify_padded_to_a_qubit(self, rank):
        rho = ginibre_state(2, 2, rank, seed=6).state
        amps = np.zeros((4, 2), dtype=complex)
        amps[:, :rank] = purify(rho).amplitudes.reshape(4, rank)
        out = purify_with_qubit_ancilla(rho)
        assert out.dim_pair == (4, 2)
        assert np.array_equal(out.amplitudes, amps.ravel())


class TestKoashiWinter:
    def test_pure_state(self):
        # rank-1 input: both sides reduce to S(rho_A)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho_dm = DensityMatrix(np.outer(v, v.conj()))
        from discordium.qmat import BipartiteState

        rho = BipartiteState(2, 2, rho_dm)
        assert koashi_winter_residual(rho, 4, CFG) < 1e-6

    def test_classical_diag(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        assert koashi_winter_residual(rho, 4, CFG) < 1e-5

    def test_random_rank2(self):
        for seed in range(5):
            rho = ginibre_state(2, 2, 2, seed=200 + seed)
            assert koashi_winter_residual(rho, 4, CFG) < 1e-4

    def test_local_unitary_invariance(self):
        rho = ginibre_state(2, 2, 2, seed=6)
        base = koashi_winter_residual(rho, 4, CFG)
        u = random_unitary(2, np.random.default_rng(7))
        big = tensor_product(u, np.eye(2))
        from discordium.qmat import BipartiteState

        rotated = BipartiteState(
            2, 2, DensityMatrix(big @ rho.matrix @ big.conj().T)
        )
        assert abs(koashi_winter_residual(rotated, 4, CFG) - base) < 1e-6

    def test_optimal_measurement_attains_eof(self):
        # the decomposition induced by the optimal extension basis evaluates
        # the EOF cost of rho_BC
        rho = ginibre_state(2, 2, 2, seed=8)
        res = _discord_PE(rho, 4, CFG, search=True)
        vecs = from_neumark(res.measurement).vectors
        psi = purify_with_qubit_ancilla(rho.state)
        amp = psi.amplitudes.reshape(2, 4)  # (A index, BC index)
        total = 0.0
        for v in vecs:
            w = v.conj() @ amp  # unnormalized decomposition vector on BC
            q = float(np.vdot(w, w).real)
            if q < 1e-12:
                continue
            red = np.outer(w, w.conj()).reshape(2, 2, 2, 2)
            red_b = np.trace(red, axis1=1, axis2=3) / q
            total += q * von_neumann(DensityMatrix(red_b))
        closed = eof_2q(
            partial_trace(PureState((2, 4), psi.amplitudes), "B")
        ).eof
        assert abs(total - closed) < 1e-4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            koashi_winter_residual(ginibre_state(2, 3, 2, seed=9), 4, CFG)
        with pytest.raises(ValueError):
            koashi_winter_residual(ginibre_state(2, 2, 3, seed=10), 4, CFG)
