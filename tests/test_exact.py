"""The closed-form paths of discord_P, discord_PE and discord_two_sided:
Koashi-Winter / Wootters on two-qubit states of rank <= 2, Luo's form on
two-qubit states with maximally mixed marginals (zero Bloch vectors), and
the identity basis on uncorrelated states.  Each is checked against the
search, the Bloch-grid oracles and a closed form of its own (the
Koashi-Winter right-hand side, ``verify.luo_discord``), none of which
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
    _discord_two_sided,
    discord_P,
    discord_PE,
    discord_R,
    discord_two_sided,
    evaluate_measurement,
)
from discordium.entangle import eof_2q, purify_with_qubit_ancilla
from discordium.entropy import mutual_information, von_neumann
from discordium.measure import random_unitary
from discordium.optimize import OptimizerConfig
from discordium.qmat import (
    BipartiteState,
    DensityMatrix,
    PureState,
    bell_state,
    ginibre_density,
    ginibre_state,
    partial_trace,
    product_state,
    tensor_product,
)
from discordium.verify import grid_discord_qubit, grid_discord_two_sided, luo_discord

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


def fixture(name: str) -> BipartiteState:
    return load_state(str(FIXTURES / f"{name}.json"))[0]


def local_rotation(rho: BipartiteState, rng: np.random.Generator) -> BipartiteState:
    big = tensor_product(random_unitary(rho.n_A, rng), random_unitary(rho.n_B, rng))
    return BipartiteState(rho.n_A, rho.n_B, DensityMatrix(big @ rho.matrix @ big.conj().T))


_BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) * _S


def bell_diagonal(seed: int) -> BipartiteState:
    """Seeded weights on the four Bell states, under seeded local unitaries:
    the local Bloch vectors vanish and the correlation matrix is not
    diagonal."""
    rng = np.random.default_rng(seed)
    return local_rotation(mixture(_BELL_BASIS, rng.dirichlet(np.ones(4))), rng)


def random_product(seed: int) -> BipartiteState:
    """rho_A (x) rho_B of full rank, in one of four shapes."""
    rng = np.random.default_rng(seed)
    n_a, n_b = ((2, 2), (2, 3), (3, 2), (3, 3))[seed % 4]
    return product_state(ginibre_density(n_a, n_a, rng), ginibre_density(n_b, n_b, rng))


# every eligible fixture, 20 locally rotated Bell-diagonal states and 8
# product states, with the closed form that each one-sided and two-sided
# solve takes; on rank <= 2 Koashi-Winter keeps the one-sided solves
ELIGIBLE = {
    **{name: ("koashi_winter", "zero_bloch") for name in ("bell", "classical", "werner_p100")},
    **{f"werner_p{p:03d}": ("zero_bloch", "zero_bloch") for p in (25, 50, 75)},
    **{name: ("uncorrelated", "uncorrelated") for name in ("product", "werner_p000")},
}
STATES = {name: fixture(name) for name in ELIGIBLE}
for k in range(20):
    STATES[f"bell_diagonal_{k:02d}"] = bell_diagonal(700 + k)
    ELIGIBLE[f"bell_diagonal_{k:02d}"] = ("zero_bloch", "zero_bloch")
for k in range(8):
    STATES[f"product_{k}"] = random_product(800 + k)
    ELIGIBLE[f"product_{k}"] = ("uncorrelated", "uncorrelated")

# P, PE at N = n_A + {0, 1, 2} and two-sided at (n_A, n_B) + {0, 1}: on
# two qubits, N in {2, 3, 4} and (2, 2) / (3, 3)
VARIANTS = ("P", "PE+0", "PE+1", "PE+2", "two_sided+0", "two_sided+1")
SEARCH = OptimizerConfig(restarts=2, max_iters=8000, seed=0)


def solve(rho: BipartiteState, variant: str, search: bool = False):
    if variant == "P":
        return _discord_P(rho, SEARCH, search)
    extra = int(variant[-1])
    if variant.startswith("PE"):
        return _discord_PE(rho, rho.n_A + extra, SEARCH, search)
    return _discord_two_sided(rho, rho.n_A + extra, rho.n_B + extra, SEARCH, search)


def searched_variants(index: int) -> tuple[str, ...]:
    """The searched solves of the index-th state: P and projective two-sided
    on every state, PE cycling through its three N, and extended two-sided
    on every fourth, which keeps the searches to about 10 s."""
    extended = ("two_sided+1",) if index % 4 == 0 else ()
    return ("P", f"PE+{index % 3}", "two_sided+0") + extended


def bloch(column: np.ndarray) -> np.ndarray:
    """Bloch vector of the projector onto a unit qubit vector."""
    c = column[0].conjugate() * column[1]
    return np.array([2 * c.real, 2 * c.imag, abs(column[0]) ** 2 - abs(column[1]) ** 2])


def correlation_matrix(rho: BipartiteState) -> np.ndarray:
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    return np.array(
        [[np.trace(rho.matrix @ np.kron(s, t)).real for t in paulis] for s in paulis]
    )


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
        # an exact path builds each side's basis with one unitary_from_vector
        # call, in its search chart, and never starts the search
        calls = []
        real = discord_mod.unitary_from_vector
        monkeypatch.setattr(
            discord_mod, "unitary_from_vector", lambda *a: calls.append(a) or real(*a)
        )
        monkeypatch.setattr(discord_mod, "minimize_vector", None)
        cases = [
            (ginibre_state(2, 2, 2, seed=4), False),  # Koashi-Winter fixes A only
            (STATES["werner_p050"], True),  # zero_bloch
            (STATES["bell_diagonal_00"], True),
            (STATES["product"], True),  # uncorrelated
            (STATES["product_3"], True),  # uncorrelated, 3 x 3
        ]
        for rho, two_sided in cases:
            calls.clear()
            n_a, n_b = rho.n_A, rho.n_B
            discord_P(rho)
            discord_PE(rho, n_a + 2)
            expected = [(n_a * (n_a - 1), n_a), ((n_a + 2) ** 2, n_a + 2)]
            if two_sided:
                discord_two_sided(rho)
                discord_two_sided(rho, n_a + 1, n_b + 1)
                expected += [(n_a * (n_a - 1), n_a), (n_b * (n_b - 1), n_b)]
                expected += [((n_a + 1) ** 2, n_a + 1), ((n_b + 1) ** 2, n_b + 1)]
            assert [(len(params), n) for params, n in calls] == expected


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


class TestZeroBlochAndUncorrelated:
    """The zero_bloch and uncorrelated closed forms on every eligible
    fixture and on seeded rotated Bell-diagonal and product states."""

    @pytest.mark.parametrize("name", sorted(ELIGIBLE))
    def test_form_taken(self, name):
        rho = STATES[name]
        one_sided, two_sided = ELIGIBLE[name]
        for variant in VARIANTS:
            res = solve(rho, variant)
            assert res.closed_form == (two_sided if variant.startswith("two") else one_sided)
            assert res.path == "exact"
            assert res.outcome.evaluations == 0
            assert res.outcome.restart_values == (res.value,)
        res = discord_R(rho, rho.n_A + 1)
        assert (res.closed_form, res.path) == (one_sided, "exact")

    @pytest.mark.parametrize("name", sorted(ELIGIBLE))
    def test_matches_closed_form_oracle(self, name):
        # Luo's form where the Bloch vectors vanish; 0 <= D <= I(A:B) ~ 0
        # on the product states, whose marginals are not maximally mixed
        rho = STATES[name]
        luo = luo_discord(rho)
        assert (luo is None) == name.startswith("product")
        info = mutual_information(rho)
        for variant in VARIANTS:
            value = solve(rho, variant).value
            if luo is None:
                assert info <= 1e-12
                assert -1e-12 <= value <= info + 1e-12
            else:
                assert abs(value - luo) <= 1e-10

    @pytest.mark.parametrize("index", range(len(ELIGIBLE)))
    def test_matches_search(self, index):
        name = sorted(ELIGIBLE)[index]
        rho = STATES[name]
        for variant in searched_variants(index):
            exact = solve(rho, variant).value
            searched = solve(rho, variant, search=True).value
            assert abs(exact - searched) <= 1e-9, variant
            assert exact <= searched + 1e-12, variant

    @pytest.mark.parametrize("name", [n for n in sorted(ELIGIBLE) if STATES[n].n_A == 2])
    def test_matches_grids(self, name):
        rho = STATES[name]
        assert abs(discord_P(rho).value - grid_discord_qubit(rho, 400)) <= 1e-4
        if rho.n_B != 2:
            return
        two_sided = discord_two_sided(rho).value
        # the grid's minimum bounds the two-sided discord from above; it
        # holds the optimal pair of bases only where they lie on its axes,
        # as on the unrotated fixtures
        assert two_sided <= grid_discord_two_sided(rho, 24) + 1e-12
        if not name.startswith(("bell_diagonal", "product_")):
            assert abs(two_sided - grid_discord_two_sided(rho, 40)) <= 1e-4

    @pytest.mark.parametrize("name", sorted(ELIGIBLE))
    def test_local_unitary_invariance(self, name):
        rho = STATES[name]
        rotated = local_rotation(rho, np.random.default_rng(len(name)))
        for variant in VARIANTS:
            res, ref = solve(rotated, variant), solve(rho, variant)
            assert res.closed_form == ref.closed_form
            assert abs(res.value - ref.value) <= 1e-10

    @pytest.mark.parametrize("name", sorted(ELIGIBLE))
    def test_measurements_reevaluate(self, name):
        rho = STATES[name]
        for variant in VARIANTS:
            res = solve(rho, variant)
            assert abs(evaluate_measurement(rho, res.measurement) - res.value) <= 1e-12
        res = discord_R(rho, rho.n_A + 1)
        assert abs(evaluate_measurement(rho, res.measurement) - res.value) <= 1e-12

    @pytest.mark.parametrize("name", [f"bell_diagonal_{k:02d}" for k in range(20)])
    def test_basis_is_top_singular_pair(self, name):
        # the value is flat to first order around the optimal basis, so
        # this checks the basis itself: A measures along T's top left
        # singular vector and, two-sided, B along the matching right one
        rho = STATES[name]
        u, s, vt = np.linalg.svd(correlation_matrix(rho))
        assert s[0] - s[1] > 1e-3  # the top pair is unique
        for variant in VARIANTS:
            m = solve(rho, variant).measurement
            if variant == "P":
                sides = [(m.basis, u[:, 0])]
            elif variant.startswith("PE"):
                sides = [(m.extension_basis, u[:, 0])]
            else:
                sides = [(m[0].extension_basis, u[:, 0]), (m[1].extension_basis, vt[0])]
            for basis, axis in sides:
                assert np.linalg.norm(np.cross(bloch(basis[:2, 0]), axis)) <= 1e-9, variant
