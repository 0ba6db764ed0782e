"""The closed-form (Koashi-Winter / Wootters) path of discord_P and
discord_PE on two-qubit states of rank <= 2, checked against the search,
the Bloch-grid oracle and the Koashi-Winter right-hand side, none of which
shares its code."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discordium.discord as discord_mod
from discordium.cli import load_state
from discordium.discord import (
    _discord_P,
    _discord_PE,
    discord_P,
    discord_PE,
    discord_R,
    evaluate_measurement,
)
from discordium.entangle import eof_2q, purify_with_qubit_ancilla
from discordium.entropy import von_neumann
from discordium.measure import random_unitary
from discordium.optimize import OptimizerConfig
from discordium.qmat import (
    BipartiteState,
    DensityMatrix,
    PureState,
    bell_state,
    ginibre_state,
    partial_trace,
    tensor_product,
)
from discordium.verify import grid_discord_qubit

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
OPT = OptimizerConfig(restarts=6, seed=0)
# derandomized and without an example database, so every run checks the
# same states
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
low_rank = st.sampled_from([1, 2])


def kw_rhs(rho: BipartiteState) -> float:
    """EOF(BC) + S(A) - S(AB) through a qubit purification."""
    psi = purify_with_qubit_ancilla(rho.state)
    regrouped = PureState((2, 4), psi.amplitudes)
    return (
        eof_2q(partial_trace(regrouped, "B")).eof
        + von_neumann(partial_trace(rho, "A"))
        - von_neumann(rho.state)
    )


def mixture(vectors, probs) -> BipartiteState:
    m = sum(p * np.outer(v, v.conj()) for v, p in zip(vectors, probs))
    return BipartiteState(2, 2, DensityMatrix(m))


_S = np.sqrt(0.5)
PHI_PLUS = np.array([1, 0, 0, 1]) * _S
PSI_MINUS = np.array([0, 1, -1, 0]) * _S
EDGE_CASES = {
    "bell": bell_state(),
    "werner_p100": load_state(str(FIXTURES / "werner_p100.json"))[0],
    "classical": load_state(str(FIXTURES / "classical.json"))[0],
    "rank1_product": mixture([np.kron([1, 0], [_S, _S])], [1.0]),
    # tau = diag(1/2, 1/2) up to a Takagi rotation: lambda_1 = lambda_2
    "degenerate_tau": mixture([PHI_PLUS, PSI_MINUS], [0.5, 0.5]),
}


class TestEligibility:
    def test_result_fields(self):
        rho = ginibre_state(2, 2, 2, seed=1)
        for res in (discord_P(rho), discord_PE(rho, 4), discord_R(rho, 4)):
            assert res.path == "exact"
            assert res.outcome.evaluations == 0
            assert res.outcome.restart_values == (res.value,)
            assert res.outcome.converged

    @pytest.mark.parametrize("rho", [ginibre_state(2, 2, 3, seed=2), ginibre_state(2, 3, 2, seed=2)],
                             ids=["rank3", "2x3"])
    def test_ineligible_input_searches(self, rho):
        cfg = OptimizerConfig(restarts=1, seed=0, max_iters=200)
        for res in (discord_P(rho, cfg), discord_PE(rho, 4, cfg)):
            assert res.path == "optimizer"
            assert res.outcome.evaluations > 0

    def test_one_basis_build(self, monkeypatch):
        # the exact path builds its basis with one unitary_from_vector call
        # and never starts the search
        calls = []
        real = discord_mod.unitary_from_vector
        monkeypatch.setattr(
            discord_mod, "unitary_from_vector", lambda *a: calls.append(a) or real(*a)
        )
        monkeypatch.setattr(discord_mod, "minimize_vector", None)
        rho = ginibre_state(2, 2, 2, seed=4)
        discord_P(rho)
        discord_PE(rho, 4)
        assert [len(params) for params, _ in calls] == [2, 16]


class TestAgainstIndependentRoutes:
    @pytest.mark.parametrize("name", [f"rank2_{k:02d}" for k in range(0, 10, 3)])
    def test_matches_search(self, name):
        rho = load_state(str(FIXTURES / f"{name}.json"))[0]
        exact = discord_P(rho).value
        searched = _discord_P(rho, OPT, search=True).value
        assert abs(exact - searched) <= 1e-7
        assert exact <= searched + 1e-12

    def test_pe_matches_search(self):
        rho = load_state(str(FIXTURES / "rank2_00.json"))[0]
        exact = discord_PE(rho, 4).value
        searched = _discord_PE(rho, 4, OPT, search=True).value
        assert abs(exact - searched) <= 1e-7
        assert exact <= searched + 1e-12

    def test_projective_route_agrees(self):
        # the projective search reaches the Koashi-Winter value of a
        # two-qubit rank-2 state, whose optimal decomposition fits in n_A
        # elements
        cfg = OptimizerConfig(restarts=5, max_iters=4000, seed=0)
        for seed in range(3):
            rho = ginibre_state(2, 2, 2, seed=300 + seed)
            assert abs(_discord_P(rho, cfg, search=True).value - kw_rhs(rho)) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_grid(self, seed):
        rho = ginibre_state(2, 2, 1 + seed % 2, seed=900 + seed)
        assert abs(discord_P(rho).value - grid_discord_qubit(rho, 400)) <= 1e-4

    @PROPERTY
    @given(seed=seeds, rank=low_rank)
    def test_matches_koashi_winter(self, seed, rank):
        rho = ginibre_state(2, 2, rank, seed=seed)
        assert abs(discord_P(rho).value - kw_rhs(rho)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        rho = EDGE_CASES[name]
        res = discord_P(rho)
        assert res.path == "exact"
        assert abs(res.value - kw_rhs(rho)) <= 1e-10
        assert abs(res.value - grid_discord_qubit(rho, 400)) <= 1e-4
        searched = _discord_P(rho, OPT, search=True).value
        assert res.value <= searched + 1e-12
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) <= 1e-12


class TestProperties:
    @PROPERTY
    @given(seed=seeds, rank=low_rank, u_seed=seeds)
    def test_local_unitary_invariance(self, seed, rank, u_seed):
        rho = ginibre_state(2, 2, rank, seed=seed)
        rng = np.random.default_rng(u_seed)
        big = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
        rotated = BipartiteState(2, 2, DensityMatrix(big @ rho.matrix @ big.conj().T))
        assert abs(discord_P(rotated).value - discord_P(rho).value) <= 1e-10

    @PROPERTY
    @given(seed=seeds, rank=low_rank)
    def test_projective_equals_extended(self, seed, rank):
        rho = ginibre_state(2, 2, rank, seed=seed)
        d_p = discord_P(rho).value
        for n in (2, 3, 4):
            res = discord_PE(rho, n)
            assert res.path == "exact"
            assert abs(res.value - d_p) <= 1e-12

    @PROPERTY
    @given(seed=seeds, rank=low_rank)
    def test_measurements_reevaluate(self, seed, rank):
        rho = ginibre_state(2, 2, rank, seed=seed)
        for res in (discord_P(rho), discord_PE(rho, 4), discord_R(rho, 3)):
            assert abs(evaluate_measurement(rho, res.measurement) - res.value) <= 1e-12
