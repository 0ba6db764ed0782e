import pathlib
import tracemalloc

import numpy as np
import pytest

from discordium import verify
from discordium.cli import load_state
from discordium.discord import ensemble_loss, two_sided_loss
from discordium.measure import NeumarkBasis, ProjectiveBasis, projective_kraus
from discordium.qmat import bell_state, ginibre_density, ginibre_state, product_state, werner
from discordium.verify import (
    BATTERY_NAMES,
    BATTERY_TOLERANCES,
    grid_discord_qubit,
    grid_discord_two_sided,
    random_classical,
    run_battery,
)


class TestGridOracle:
    def test_product_state_zero(self):
        rng = np.random.default_rng(0)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(3, 3, rng))
        assert abs(grid_discord_qubit(rho, 30)) < 1e-9

    def test_bell_basis_independent(self):
        assert abs(grid_discord_qubit(bell_state(), 12) - 1.0) < 1e-9

    def test_refinement_monotone(self):
        # doubling the resolution yields a superset grid, so the minimum
        # cannot increase
        for seed in range(5):
            rho = ginibre_state(2, 2, int(seed % 4) + 1, seed=seed)
            coarse = grid_discord_qubit(rho, 24)
            fine = grid_discord_qubit(rho, 48)
            assert fine <= coarse + 1e-12

    def test_upper_bounds_any_grid_basis(self):
        # the oracle minimum is at most the loss of explicit grid bases
        rho = werner(0.7)
        val = grid_discord_qubit(rho, 50)
        comp = ensemble_loss(rho, projective_kraus(ProjectiveBasis(2, np.eye(2))))
        assert val <= comp + 1e-12

    def test_requires_qubit_A(self):
        with pytest.raises(ValueError):
            grid_discord_qubit(ginibre_state(3, 2, 2, seed=1), 10)

    def test_two_sided_bell(self):
        assert abs(grid_discord_two_sided(bell_state(), 12) - 1.0) < 1e-9

    def test_two_sided_product_zero(self):
        rng = np.random.default_rng(2)
        rho = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
        assert abs(grid_discord_two_sided(rho, 12)) < 1e-9

    def test_deterministic(self):
        rho = ginibre_state(2, 2, 3, seed=3)
        assert grid_discord_qubit(rho, 40) == grid_discord_qubit(rho, 40)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return load_state(str(FIXTURES / f"{name}.json"))[0]


def _grid_unitaries(resolution):
    """Every grid basis of the oracles, as a unitary whose columns are its
    two projector vectors, built here from the grid's definition."""
    out = []
    for k in range(resolution):
        c, s = np.cos(np.pi / 2 * k / resolution), np.sin(np.pi / 2 * k / resolution)
        for j in range(resolution):
            e = np.exp(2j * np.pi * j / resolution)
            out.append(np.array([[c, -s / e], [e * s, c]]))
    return out


class TestGridTwoSidedContraction:
    @pytest.mark.parametrize("name", ["bell", "werner_p050", "rank2_00", "rank2_04"])
    def test_matches_slow_route_on_grid_bases(self, name):
        # the Fano-form contraction against two_sided_apply's full
        # post-measurement state, minimized over the same 16 x 16 bases
        rho = _fixture(name)
        bases = [NeumarkBasis(2, 2, u) for u in _grid_unitaries(4)]
        slow = min(two_sided_loss(rho, a, b) for a in bases for b in bases)
        assert abs(grid_discord_two_sided(rho, 4) - slow) < 1e-12


class TestGridTiles:
    @pytest.mark.parametrize(
        "rho",
        [_fixture("rank2_00"), _fixture("werner_p050"), ginibre_state(2, 2, 4, seed=5),
         ginibre_state(2, 3, 4, seed=2)],
        ids=["rank2_00", "werner_p050", "ginibre_2x2_r4", "ginibre_2x3_r4"],
    )
    def test_tile_size_does_not_move_value(self, monkeypatch, rho):
        # resolution 7: 49 bases, which no tile of more than one basis divides
        values = []
        for entries in (1, 10**9):  # one basis per tile; the whole grid in one
            monkeypatch.setattr(verify, "_TILE_ENTRIES", entries)
            two_sided = grid_discord_two_sided(rho, 7) if rho.n_B == 2 else 0.0
            values.append((grid_discord_qubit(rho, 7), two_sided))
        (q_one, t_one), (q_all, t_all) = values
        assert q_one.hex() == q_all.hex()
        assert abs(t_one - t_all) <= 1e-15

    def test_traced_peak_memory(self):
        # whole-grid tables took 313 MiB (two-sided, resolution 40) and
        # 51 MiB (qubit, resolution 400)
        rho = _fixture("rank2_00")
        tracemalloc.start()
        try:
            grid_discord_two_sided(rho, 40)
            two_sided_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            grid_discord_qubit(rho, 400)
            qubit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert two_sided_peak < 16 * 2**20
        assert qubit_peak < 32 * 2**20


class TestBatteries:
    def test_registry(self):
        assert set(BATTERY_NAMES) == set(BATTERY_TOLERANCES)
        with pytest.raises(ValueError, match="unknown battery"):
            run_battery("bogus", 3)

    def test_unknown_tolerance_defaulted(self):
        rep = run_battery("marginal_invariance", 10, seed=1)
        assert rep.failures == 0
        assert rep.worst_violation <= BATTERY_TOLERANCES["marginal_invariance"]

    @pytest.mark.parametrize(
        "name,trials",
        [
            ("nonnegativity", 40),
            ("marginal_invariance", 25),
            ("refinement_monotonicity", 25),
            ("relative_entropy_monotonicity", 25),
            ("inequality_chain", 3),
            ("mutual_info_bound", 3),
            ("koashi_winter", 3),
        ],
    )
    def test_batteries_pass(self, name, trials):
        rep = run_battery(name, trials, seed=7)
        assert rep.trials == trials
        assert rep.failures == 0, f"{name}: worst violation {rep.worst_violation}"
        assert rep.seeds_of_failures == ()

    def test_reproducible(self):
        a = run_battery("nonnegativity", 12, seed=11)
        b = run_battery("nonnegativity", 12, seed=11)
        assert a == b

    def test_classical_states_have_zero_discord(self):
        # zero-discord characterization on random classical states
        from discordium.discord import discord_P
        from discordium.optimize import OptimizerConfig

        cfg = OptimizerConfig(restarts=6, max_iters=1200)
        for seed in range(5):
            rho = random_classical(2, 2, np.random.default_rng(seed))
            assert discord_P(rho, cfg).value <= 1e-5
