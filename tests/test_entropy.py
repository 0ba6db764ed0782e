import math
import pathlib

import numpy as np
import pytest

from discordium.cli import load_state

from discordium.entropy import (
    _xlog2x,
    conditional_entropy,
    entropy_of_spectrum,
    mutual_information,
    relative_entropy,
    von_neumann,
)
from discordium.measure import apply_one_sided, random_kraus
from discordium.qmat import (
    BipartiteState,
    DensityMatrix,
    bell_state,
    classical_state,
    ginibre_density,
    ginibre_state,
    partial_trace,
    product_state,
    tensor_product,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# frozen: 1 - log2(3)/2, hand evaluation of tr(rho log rho) - tr(rho log sigma)
REL_ENT_HALF_VS_3414 = 0.20751874963942196


def rand_density(dim, rng, rank=None):
    return ginibre_density(dim, rank or dim, rng)


class TestXlog2x:
    def test_zero_and_negative_rounding(self):
        out = _xlog2x(np.array([-1e-17, 0.0, 0.5, 1.0]))
        assert out.tolist() == [0.0, 0.0, -0.5, 0.0]

    def test_unmasked_on_nonnegative_input(self):
        # the form the optimizer loops were tuned on, down to eigenvalues
        # far below any tolerance
        rng = np.random.default_rng(0)
        lam = np.concatenate([rng.random(500), 1e-15 * rng.random(500), [0.0]])
        assert np.array_equal(_xlog2x(lam), lam * np.log2(np.maximum(lam, 1e-300)))


class TestVonNeumann:
    def test_maximally_mixed(self):
        assert abs(von_neumann(DensityMatrix(np.eye(2) / 2)) - 1.0) < 1e-12

    def test_pure(self):
        psi = np.array([1, 1j]) / np.sqrt(2)
        assert abs(von_neumann(DensityMatrix(np.outer(psi, psi.conj())))) < 1e-12

    def test_hand_value(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
        assert abs(von_neumann(rho) - 1.5) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = von_neumann(rand_density(4, rng))
            assert 0.0 <= s <= 2.0 + 1e-12

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_stored_spectrum_is_bit_identical(self, path):
        # the formula before the spectrum was kept: a second eigvalsh of
        # the Hermitian part
        rho = load_state(str(path))[0]
        for dm in (rho.state, partial_trace(rho, "A"), partial_trace(rho, "B")):
            m = dm.matrix
            old = entropy_of_spectrum(np.linalg.eigvalsh((m + m.conj().T) / 2))
            assert von_neumann(dm).hex() == old.hex()


class TestRelativeEntropy:
    def test_identical(self):
        rng = np.random.default_rng(1)
        rho = rand_density(3, rng)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_hand_value(self):
        rho = DensityMatrix(np.eye(2) / 2)
        sigma = DensityMatrix(np.diag([0.75, 0.25]))
        assert abs(relative_entropy(rho, sigma) - REL_ENT_HALF_VS_3414) < 1e-12

    def test_disjoint_supports(self):
        z0 = DensityMatrix(np.diag([1.0, 0.0]))
        z1 = DensityMatrix(np.diag([0.0, 1.0]))
        assert math.isinf(relative_entropy(z0, z1))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rho = rand_density(4, rng)
            sigma = rand_density(4, rng)
            assert relative_entropy(rho, sigma) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))


class TestConditionalAndMutual:
    def test_product_additivity(self):
        rng = np.random.default_rng(3)
        a, b = rand_density(2, rng), rand_density(3, rng)
        rho = product_state(a, b)
        assert abs(conditional_entropy(rho) - von_neumann(b)) < 1e-10
        assert abs(mutual_information(rho)) < 1e-10

    def test_bell(self):
        rho = bell_state()
        assert abs(conditional_entropy(rho) + 1.0) < 1e-12
        assert abs(mutual_information(rho) - 2.0) < 1e-12

    def test_classical_diag(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        assert abs(conditional_entropy(rho)) < 1e-12
        assert abs(mutual_information(rho) - 1.0) < 1e-12

    def test_mutual_information_nonnegative(self):
        rng = np.random.default_rng(4)
        for k in range(30):
            rho = ginibre_state(2, 3, int(rng.integers(1, 7)), seed=k)
            assert mutual_information(rho) >= -1e-10

    def test_zero_iff_product(self):
        rng = np.random.default_rng(5)
        rho = product_state(rand_density(2, rng), rand_density(2, rng))
        assert abs(mutual_information(rho)) < 1e-10
        assert mutual_information(bell_state()) > 0.1


class TestIdentities:
    def test_relative_entropy_conditional_identity(self):
        # S(rho_AB || rho_A (x) I/n_B) = S(rho_A) - S(rho_AB) + log2 n_B
        rng = np.random.default_rng(6)
        for k in range(100):
            n_b = 2 if k % 2 else 3
            rho = ginibre_state(2, n_b, int(rng.integers(1, 2 * n_b + 1)), seed=k)
            lhs = relative_entropy(
                rho.state,
                DensityMatrix(tensor_product(partial_trace(rho, "A").matrix, np.eye(n_b) / n_b)),
            )
            rhs = (
                von_neumann(partial_trace(rho, "A"))
                - von_neumann(rho.state)
                + np.log2(n_b)
            )
            assert abs(lhs - rhs) < 1e-9

    def test_monotonicity_under_measurement(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            rho = ginibre_state(2, 2, int(rng.integers(1, 5)), seed=2 * k)
            sigma = ginibre_state(2, 2, 4, seed=2 * k + 1)
            m = random_kraus(2, int(rng.integers(2, 4)), rng)
            before = relative_entropy(rho.state, sigma.state)
            after = relative_entropy(
                apply_one_sided(rho, m).state, apply_one_sided(sigma, m).state
            )
            assert after <= before + 1e-8

    def test_concavity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(k))
            states = [rand_density(3, rng) for _ in range(k)]
            mix = DensityMatrix(sum(p * s.matrix for p, s in zip(probs, states)))
            avg = sum(p * von_neumann(s) for p, s in zip(probs, states))
            assert von_neumann(mix) >= avg - 1e-9

    def test_joint_entropy_theorem(self):
        # S(sum_a p_a |a><a| (x) rho_a) = H(p) + sum_a p_a S(rho_a)
        rng = np.random.default_rng(9)
        for _ in range(30):
            n_a = int(rng.integers(2, 4))
            probs = rng.dirichlet(np.ones(n_a))
            branches = [rand_density(2, rng) for _ in range(n_a)]
            rho = classical_state(probs, branches)
            lhs = von_neumann(rho.state)
            rhs = entropy_of_spectrum(probs) + sum(
                p * von_neumann(b) for p, b in zip(probs, branches)
            )
            assert abs(lhs - rhs) < 1e-9


def test_bipartite_wrapper_accepts_density():
    rho = BipartiteState(2, 2, DensityMatrix(np.eye(4) / 4))
    assert abs(mutual_information(rho)) < 1e-12
