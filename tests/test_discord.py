import pathlib

import numpy as np
import pytest

from discordium.cli import load_state
from discordium.discord import (
    DiscordResult,
    _branch_entropy_contrib,
    _discord_P,
    _discord_PE,
    _discord_two_sided,
    default_extension_dim,
    discord_P,
    discord_PE,
    discord_R,
    discord_two_sided,
    ensemble_loss,
    evaluate_measurement,
    is_classical,
    loss_functional,
    two_sided_loss,
)
from discordium.entangle import eof_via_decomposition
from discordium.entropy import _xlog2x, mutual_information
from discordium.measure import (
    KrausSet,
    NeumarkBasis,
    RankOnePOVM,
    from_neumark,
    neumark_kraus,
    projective_kraus,
    randomizing_measurement,
    rank_one_kraus,
    random_kraus,
    random_neumark,
    random_projective,
)
from discordium.optimize import OptimizerConfig
from discordium.qmat import (
    bell_state,
    classical_state,
    ginibre_density,
    ginibre_state,
    product_state,
    werner,
)
from discordium.verify import grid_discord_qubit, grid_discord_two_sided

from random_states import random_classical

FAST = OptimizerConfig(restarts=6, max_iters=1200, seed=0)
FAST_PE = OptimizerConfig(restarts=5, max_iters=4000, seed=0)
TWO_RESTARTS = OptimizerConfig(restarts=2, seed=0)
RANK2_00 = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "rank2_00.json"


def comp_kraus(n):
    from discordium.measure import ProjectiveBasis

    return projective_kraus(ProjectiveBasis(n, np.eye(n)))


class TestLossFunctional:
    def test_identity_measurement_zero(self):
        rho = ginibre_state(2, 3, 5, seed=0)
        assert abs(loss_functional(rho, KrausSet(2, (np.eye(2),)))) < 1e-10

    def test_randomizing_gives_mutual_information(self):
        for seed in range(5):
            rho = ginibre_state(2, 2, 3, seed=seed)
            loss = loss_functional(rho, randomizing_measurement(2))
            assert abs(loss - mutual_information(rho)) < 1e-9

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for k in range(100):
            n_a, n_b = ((2, 2), (2, 3), (3, 2))[k % 3]
            rho = ginibre_state(n_a, n_b, int(rng.integers(1, n_a * n_b + 1)), seed=k)
            m = random_kraus(n_a, int(rng.integers(2, 5)), rng)
            assert loss_functional(rho, m) >= -1e-8


class TestEnsembleLoss:
    def test_bell_computational(self):
        assert abs(ensemble_loss(bell_state(), comp_kraus(2)) - 1.0) < 1e-12

    def test_classical_in_own_basis(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        assert abs(ensemble_loss(rho, comp_kraus(2))) < 1e-12

    def test_equals_loss_functional_for_rank_one(self):
        rng = np.random.default_rng(2)
        for k in range(30):
            rho = ginibre_state(2, 2, int(rng.integers(1, 5)), seed=k)
            m = projective_kraus(random_projective(2, rng))
            assert abs(ensemble_loss(rho, m) - loss_functional(rho, m)) < 1e-9
        # the equality extends to Neumark sets, whose ensemble form matches
        # the extended projective loss
        for k in range(10):
            rho = ginibre_state(2, 2, 4, seed=50 + k)
            m = neumark_kraus(random_neumark(2, 3, rng))
            assert abs(ensemble_loss(rho, m) - loss_functional(rho, m)) < 1e-9


class TestDiscordP:
    def test_product_state_zero(self):
        rng = np.random.default_rng(3)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        assert _discord_P(rho, FAST, search=True).value < 1e-6

    def test_bell_is_one(self):
        res = _discord_P(bell_state(), FAST, search=True)
        assert abs(res.value - 1.0) < 1e-6

    def test_bell_search_not_below_one(self):
        # the conditional states are pure at the optimum, and the smaller
        # eigenvalue of each rounds to about -1e-17; the search must gain
        # nothing from it
        res = _discord_P(bell_state(), TWO_RESTARTS, search=True)
        assert res.value >= 1 - 1e-14

    def test_werner_matches_grid_oracle(self):
        rho = werner(0.5)
        oracle = grid_discord_qubit(rho, 400)
        assert abs(_discord_P(rho, FAST, search=True).value - oracle) < 1e-4

    def test_reevaluation_matches(self):
        rho = ginibre_state(2, 2, 3, seed=4)
        res = discord_P(rho, FAST)
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) < 1e-9

    def test_qutrit_basis_reevaluates(self):
        # n_A = 3 runs the zero-diagonal chart through the eigensolver
        rho = ginibre_state(3, 3, 4, seed=5)
        res = discord_P(rho, OptimizerConfig(restarts=2, seed=0))
        assert len(res.outcome.best_params) == 6
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) < 1e-9


class TestDiscordPE:
    def test_product_state_zero(self):
        rng = np.random.default_rng(5)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        for n in (2, 4):
            assert _discord_PE(rho, n, FAST_PE, search=True).value < 1e-6

    def test_trivial_extension_matches_projective(self):
        # N = n_A restricts the family to orthonormal bases of H_A itself
        for seed in (6, 7):
            rho = ginibre_state(2, 2, 4, seed=seed)
            d_p = discord_P(rho, FAST).value
            d_pe = discord_PE(rho, 2, FAST_PE).value
            assert d_pe <= d_p + 1e-6

    def test_nonincreasing_in_N(self):
        rho = ginibre_state(2, 2, 2, seed=8)
        values = [_discord_PE(rho, n, FAST_PE, search=True).value for n in (2, 3, 4)]
        assert values[1] <= values[0] + 1e-5
        assert values[2] <= values[1] + 1e-5

    def test_default_extension_dim(self):
        assert default_extension_dim(ginibre_state(2, 2, 4, seed=9)) == 4
        assert default_extension_dim(ginibre_state(3, 2, 6, seed=9)) == 9
        # a product state with a pure A marginal has rank-1 marginal
        rng = np.random.default_rng(10)
        psi = np.zeros((2, 2), dtype=complex)
        psi[0, 0] = 1.0
        from discordium.qmat import DensityMatrix

        rho = product_state(DensityMatrix(psi), ginibre_density(2, 2, rng))
        assert default_extension_dim(rho) == 2

    def test_bell_search_not_below_one(self):
        res = _discord_PE(bell_state(), 4, TWO_RESTARTS, search=True)
        assert res.value >= 1 - 1e-14

    def test_requires_extension_at_least_n_A(self):
        with pytest.raises(ValueError):
            discord_PE(bell_state(), 1, FAST_PE)

    def test_reevaluation_matches(self):
        rho = ginibre_state(2, 2, 2, seed=11)
        res = _discord_PE(rho, 4, FAST_PE, search=True)
        assert isinstance(res.measurement, NeumarkBasis)
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) < 1e-9

    def test_mutual_information_bound(self):
        for seed in (12, 13):
            rho = ginibre_state(2, 2, 3, seed=seed)
            info = mutual_information(rho)
            assert discord_P(rho, FAST).value <= info + 1e-7
            assert discord_PE(rho, 4, FAST_PE).value <= info + 1e-7


class TestDiscordR:
    def test_alias_of_pe(self):
        # rank 3, so both solves run the search
        rho = ginibre_state(2, 2, 3, seed=14)
        res = discord_R(rho, 4, FAST_PE)
        assert res.variant == "R"
        assert isinstance(res.measurement, RankOnePOVM)
        assert abs(res.value - discord_PE(rho, 4, FAST_PE).value) < 1e-12
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) < 1e-9


class TestTwoSided:
    def test_product_state_zero(self):
        rng = np.random.default_rng(15)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        assert _discord_two_sided(rho, None, None, FAST, search=True).value < 1e-6

    def test_classical_classical_zero(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        assert _discord_two_sided(rho, None, None, FAST, search=True).value < 1e-6

    def test_bell_matches_grid(self):
        res = _discord_two_sided(bell_state(), None, None, FAST, search=True)
        oracle = grid_discord_two_sided(bell_state(), 16)
        assert abs(res.value - 1.0) < 1e-4
        assert abs(res.value - oracle) < 1e-4

    def test_nonnegative(self):
        for seed in (16, 17, 18):
            rho = ginibre_state(2, 2, int(seed % 4) + 1, seed=seed)
            assert discord_two_sided(rho, cfg=FAST).value >= -1e-7

    def test_slow_route_agrees(self):
        rho = ginibre_state(2, 2, 2, seed=19)
        res = discord_two_sided(rho, cfg=FAST)
        nb_a, nb_b = res.measurement
        assert abs(two_sided_loss(rho, nb_a, nb_b) - res.value) < 1e-9

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            discord_two_sided(bell_state(), N_A=1, cfg=FAST)

    def test_extension_side_keeps_full_chart(self):
        # an extended side needs all N^2 angles, a projective side N(N-1)
        rho = ginibre_state(2, 2, 2, seed=19)
        res = discord_two_sided(rho, N_A=3, cfg=OptimizerConfig(restarts=1, seed=0))
        assert len(res.outcome.best_params) == 9 + 2
        nb_a, nb_b = res.measurement
        assert abs(two_sided_loss(rho, nb_a, nb_b) - res.value) < 1e-9


class TestIsClassical:
    def test_classical_state(self):
        rho = random_classical(2, 2, np.random.default_rng(20))
        verdict, witness = is_classical(rho, FAST)
        assert verdict
        assert abs(evaluate_measurement(rho, witness)) < 1e-5

    def test_bell_not_classical(self):
        verdict, _ = is_classical(bell_state(), FAST)
        assert not verdict

    def test_werner_09_not_classical(self):
        rho = werner(0.9)
        assert grid_discord_qubit(rho, 100) > 1e-3  # oracle agrees it is far from 0
        verdict, _ = is_classical(rho, FAST)
        assert not verdict

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            is_classical(bell_state(), FAST, threshold=0.0)


class TestDiscordResult:
    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            DiscordResult("P", -1e-3, None, None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DiscordResult("P", float("nan"), None, None)

    def test_pe_ensemble_equals_neumark_and_povm_routes(self):
        # the restriction of an extension basis and the basis itself give
        # the same ensemble loss
        rho = ginibre_state(2, 2, 4, seed=21)
        nb = random_neumark(2, 4, np.random.default_rng(22))
        via_neumark = ensemble_loss(rho, neumark_kraus(nb))
        via_povm = ensemble_loss(rho, rank_one_kraus(from_neumark(nb)))
        assert abs(via_neumark - via_povm) < 1e-10


def _three_pass_contrib(conds):
    """p S(cond / p) with one x log x pass per term: the trace, then each
    eigenvalue (the 2x2 closed form, or eigvalsh)."""
    if conds.shape[-1] == 2:
        a, d = conds[..., 0, 0], conds[..., 1, 1]
        t = (a + d).real
        det = (a * d - conds[..., 0, 1] * conds[..., 1, 0]).real
        disc = np.sqrt(np.maximum(t * t - 4 * det, 0))
        return _xlog2x(t) - (_xlog2x((t - disc) / 2) + _xlog2x((t + disc) / 2))
    lam = np.linalg.eigvalsh(conds)
    return _xlog2x(lam.sum(axis=-1)) - _xlog2x(lam).sum(axis=-1)


class TestBranchEntropyKernel:
    """The one-pass kernel, traces and eigenvalues in one buffer, equals the
    three-pass formula byte for byte."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "shape, rank",
        [
            ((7,), None),
            ((6, 4), None),  # a lockstep round: points x outcomes
            ((3, 5, 4), None),
            ((6, 4), 1),  # rank-deficient: zero eigenvalues, some rounded below 0
            ((1 << 15,), None),  # a grid tile: 2^15 conditionals, about 1e5 entries
            ((1 << 15,), 1),
        ],
    )
    def test_bytes_equal_three_pass(self, n, shape, rank):
        rng = np.random.default_rng(n + len(shape))
        g = rng.normal(size=shape + (n, rank or n)) + 1j * rng.normal(size=shape + (n, rank or n))
        conds = g @ g.conj().swapaxes(-1, -2)
        conds[..., :1, :, :] *= 1e-12  # conditionals of tiny weight
        got = _branch_entropy_contrib(conds)
        assert got.shape == shape
        assert got.tobytes() == _three_pass_contrib(conds).tobytes()

    def test_zero_conditionals(self):
        for n in (2, 3):
            conds = np.zeros((4, 3, n, n), dtype=np.complex128)
            assert _branch_entropy_contrib(conds).tobytes() == _three_pass_contrib(conds).tobytes()


class TestPinnedTrajectories:
    """The extension and EOF searches keep the full U(N) chart; their
    values and evaluation counts are pinned bit for bit, so a change to the
    shared kernels that moves any trajectory shows here.  The EOF figures
    were recorded before the projective chart and the kernel trims landed;
    the PE figures were re-recorded when the entropy kernel stopped
    crediting an eigenvalue that rounds below zero, a change the EOF
    trajectory never met, so its pin held.  The qutrit pins run the 3x3
    projective chart and PE(4) through the batched ``eigvalsh`` branch of the
    entropy kernel, which the two-qubit pins never reach.  All on x86_64
    with numpy 2.4 and OpenBLAS; another BLAS build may round differently
    and need them re-recorded."""

    CFG = OptimizerConfig(restarts=2, seed=0)
    QUTRIT = ginibre_state(3, 3, 3, 1)

    def test_discord_p_qutrit(self):
        res = _discord_P(self.QUTRIT, self.CFG, search=True)
        assert res.value.hex() == "0x1.48ea98751e963p-1"
        assert res.outcome.evaluations == 4269

    def test_discord_pe_qutrit(self):
        res = _discord_PE(self.QUTRIT, 4, self.CFG, search=True)
        assert res.value.hex() == "0x1.48ea9b46b6a11p-1"
        assert res.outcome.evaluations == 5626

    def test_discord_pe(self):
        res = _discord_PE(load_state(str(RANK2_00))[0], 4, self.CFG, search=True)
        assert res.value.hex() == "0x1.445524eb3930fp-2"
        assert res.outcome.evaluations == 6907

    def test_eof_via_decomposition(self):
        rho = load_state(str(RANK2_00))[0]
        res = eof_via_decomposition(rho.state, 2, 2, K=4, cfg=self.CFG)
        assert res.eof.hex() == "0x1.946529b2bc14cp-2"
        assert res.outcome.evaluations == 6275
