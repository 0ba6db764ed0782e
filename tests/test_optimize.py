import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import discordium
import discordium.discord as discord_mod
import discordium.entangle as entangle_mod
from discordium.discord import (
    _conditional_blocks,
    _discord_P,
    _discord_PE,
    _ensemble_term,
    _pair_matrix,
    discord_two_sided,
)
from discordium.entangle import eof_via_decomposition
from discordium.entropy import conditional_entropy
from discordium.optimize import (
    F_TOL,
    X_TOL,
    OptimizerConfig,
    StackedObjective,
    _lockstep,
    _pointwise,
    _restart,
    minimize_vector,
    unitary_from_vector,
)
from discordium.qmat import ginibre_state


def _eigh_route(params, n):
    """exp(iH) through the eigensolver for the zero-diagonal generator."""
    full = np.concatenate([np.zeros(n), params])
    return unitary_from_vector(full, n)


def _projectors(u):
    return np.einsum("ik,jk->kij", u, u.conj())


class TestToUnitary:
    def test_zero_gives_identity(self):
        for n in (1, 2, 4):
            for size in (n * n, n * (n - 1)):
                np.testing.assert_allclose(
                    unitary_from_vector(np.zeros(size), n), np.eye(n), atol=1e-14
                )

    def test_scalar_exponential(self):
        u = unitary_from_vector(np.array([np.pi]), 1)
        np.testing.assert_allclose(u, [[-1.0]], atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            for n, size in ((3, 9), (3, 6), (2, 2)):
                u = unitary_from_vector(rng.uniform(-np.pi, np.pi, size), n)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-10)

    def test_length_check(self):
        for size in (1, 3, 5):
            with pytest.raises(ValueError):
                unitary_from_vector(np.zeros(size), 2)


class TestProjectiveChart:
    def test_qubit_closed_form_matches_eigh(self):
        rng = np.random.default_rng(1)
        for scale in (1e-9, 1.0, 3.0):
            for _ in range(200):
                x = rng.uniform(-np.pi, np.pi, 2) * scale
                np.testing.assert_allclose(
                    unitary_from_vector(x, 2), _eigh_route(x, 2), rtol=0, atol=1e-13
                )

    def test_zero_diagonal_generator(self):
        # the chart's n(n-1) angles are the full chart's with the diagonal at 0
        rng = np.random.default_rng(2)
        x = rng.uniform(-np.pi, np.pi, 12)
        np.testing.assert_array_equal(unitary_from_vector(x, 4), _eigh_route(x, 4))

    def test_every_qubit_basis_reached_up_to_phases(self):
        # |b0> = (cos t/2, e^{i f} sin t/2) with z = r e^{i phi}: the first
        # column of cos r I + i (sin r / r) H is (cos r, i sin r e^{-i phi}),
        # so r = t/2 and phi = pi/2 - f reach it
        rng = np.random.default_rng(3)
        for _ in range(200):
            t, f = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
            b0 = np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
            b1 = np.array([-np.exp(-1j * f) * np.sin(t / 2), np.cos(t / 2)])
            target = np.stack([b0, b1], axis=1)
            r, phi = t / 2, np.pi / 2 - f
            u = unitary_from_vector(np.array([r * np.cos(phi), r * np.sin(phi)]), 2)
            np.testing.assert_allclose(_projectors(u), _projectors(target), atol=1e-13)


class TestStackedUnitary:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("chart", ["full", "projective"])
    def test_stack_equals_rows(self, n, chart):
        size = n * n if chart == "full" else n * (n - 1)
        params = np.random.default_rng(n).uniform(-np.pi, np.pi, (7, size))
        params[3] = 0.0  # the identity, where the qubit closed form divides by r
        rows = np.stack([unitary_from_vector(x, n) for x in params])
        assert np.array_equal(unitary_from_vector(params, n), rows)
        for m in (1, 2, 5):
            assert np.array_equal(unitary_from_vector(params[:m], n), rows[:m])


def _capture(monkeypatch, module, solve):
    """The objective and parameter count a solve hands minimize_vector."""
    seen = []
    monkeypatch.setattr(module, "minimize_vector", lambda f, n, cfg: seen.append((f, n)) or (
        minimize_vector(f, n, OptimizerConfig(restarts=1, max_iters=1))
    ))
    solve()
    monkeypatch.undo()
    return seen[0]


_RHO_2x2 = ginibre_state(2, 2, 3, seed=0)
_RHO_3x3 = ginibre_state(3, 3, 3, seed=1)
_FAMILIES = {
    "P-2x2": (discord_mod, lambda cfg: _discord_P(_RHO_2x2, cfg, search=True)),
    "P-3x3": (discord_mod, lambda cfg: _discord_P(_RHO_3x3, cfg, search=True)),
    "PE(4)": (discord_mod, lambda cfg: _discord_PE(_RHO_2x2, 4, cfg, search=True)),
    "two-sided": (discord_mod, lambda cfg: discord_two_sided(_RHO_2x2, cfg=cfg)),
    "EOF(K=4)": (entangle_mod, lambda cfg: eof_via_decomposition(_RHO_2x2.state, 2, 2, 4, cfg)),
}


def _same_outcome(a, b):
    assert a.best_value.hex() == b.best_value.hex()
    assert a.best_params.tobytes() == b.best_params.tobytes()
    assert [v.hex() for v in a.restart_values] == [v.hex() for v in b.restart_values]
    assert a.restart_evaluations == b.restart_evaluations
    assert (a.evaluations, a.converged) == (b.evaluations, b.converged)


class TestLockstep:
    """Every family's kernel evaluates a stack per lockstep round; a plain
    per-point wrapper of it, as a tracer would pass, takes the same
    trajectories."""

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_stacked_equals_per_point(self, monkeypatch, family):
        module, solve = _FAMILIES[family]
        objective, n_params = _capture(monkeypatch, module, lambda: solve(None))
        assert isinstance(objective, StackedObjective)
        calls = []
        stacked = objective.stacked
        counted = StackedObjective(lambda x: calls.append(len(x)) or stacked(x))
        cfg = OptimizerConfig(restarts=3, max_iters=300, seed=4)
        got = minimize_vector(counted, n_params, cfg)
        _same_outcome(got, minimize_vector(lambda x: objective(x), n_params, cfg))
        # one kernel call per round, not per point
        assert sum(calls) == got.evaluations > len(calls)
        assert sum(got.restart_evaluations) == got.evaluations

    def test_restart_depends_only_on_seed_and_index(self, monkeypatch):
        module, solve = _FAMILIES["P-3x3"]
        objective, n_params = _capture(monkeypatch, module, lambda: solve(None))
        three = minimize_vector(objective, n_params, OptimizerConfig(restarts=3, max_iters=300))
        six = minimize_vector(objective, n_params, OptimizerConfig(restarts=6, max_iters=300))
        assert [v.hex() for v in three.restart_values] == [v.hex() for v in six.restart_values[:3]]
        assert three.restart_evaluations == six.restart_evaluations[:3]


class TestMinimize:
    def test_distance_to_identity(self):
        def objective(x):
            return float(np.abs(unitary_from_vector(x, 2) - np.eye(2)).sum())

        out = minimize_vector(objective, 4, OptimizerConfig(restarts=3, seed=1))
        assert out.best_value < 1e-6

    def test_smooth_quadratic(self):
        c = np.array([0.3, -0.7, 1.1, 0.05])

        def objective(x):
            return float(((x - c) ** 2).sum())

        cfg = OptimizerConfig(restarts=3, seed=2)
        out = minimize_vector(objective, 4, cfg)
        np.testing.assert_allclose(out.best_params, c, atol=1e-6)

    def test_deterministic(self):
        def objective(x):
            return float(np.abs(unitary_from_vector(x, 2)[0, 0].real - 0.5))

        cfg = OptimizerConfig(restarts=4, seed=7)
        for size in (4, 2):
            a = minimize_vector(objective, size, cfg)
            b = minimize_vector(objective, size, cfg)
            assert a.best_value == b.best_value
            assert np.array_equal(a.best_params, b.best_params)
            assert a.restart_values == b.restart_values
            assert a.evaluations == b.evaluations

    def test_best_is_min_of_restarts(self):
        def objective(x):
            return float((x**2).sum())

        out = minimize_vector(objective, 4, OptimizerConfig(restarts=5, seed=3))
        assert abs(out.best_value - min(out.restart_values)) < 1e-12

    def test_monotone_in_restarts(self):
        # restart k's start depends only on (seed, k), so more restarts can
        # only help
        values = [
            minimize_vector(
                lambda x: float(np.cos(x).sum()), 4, OptimizerConfig(restarts=r, seed=5)
            ).best_value
            for r in (1, 3, 6)
        ]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_never_worse_than_identity_start(self):
        def objective(x):
            return float((x**2).sum()) + 1.0

        out = minimize_vector(objective, 4, OptimizerConfig(restarts=2, seed=9))
        assert out.best_value <= objective(np.zeros(4)) + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        for field in ("restarts", "max_iters"):
            for bad in (float("nan"), 2.5, 3.0, "3"):
                with pytest.raises(ValueError, match=field):
                    OptimizerConfig(**{field: bad})
        assert OptimizerConfig(restarts=np.int64(3), max_iters=np.int32(5)).restarts == 3
        for bad in (float("nan"), 2.5, 3.0, "x", None):
            with pytest.raises(ValueError, match="seed"):
                OptimizerConfig(seed=bad)
        for good in (np.int64(7), np.uint64(2**64 - 1), -1, -(2**70)):
            assert OptimizerConfig(seed=good).seed == good
        # a negative seed is masked to 64 bits and starts like its unsigned twin
        def run(seed):
            cfg = OptimizerConfig(restarts=2, max_iters=50, seed=seed)
            return minimize_vector(lambda x: float(np.sum((x - 1) ** 2)), 2, cfg).restart_values

        assert run(-1) == run(2**64 - 1)


def _scipy_chain(objective, x0, cfg):
    """The re-anchored chain over ``scipy.optimize.minimize`` that
    ``_restart`` replaced, kept as its reference."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    x, fx = x0, objective(x0)
    evals, iters_left, converged = 1, cfg.max_iters, False
    chain_cap = max(200, 70 * len(x0))
    while iters_left > 0:
        res = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxiter": min(iters_left, chain_cap),
                "fatol": F_TOL,
                "xatol": X_TOL,
                "adaptive": True,
            },
        )
        evals += res.nfev
        iters_left -= res.nit
        improved = fx - res.fun
        if res.fun < fx:
            x, fx = res.x, res.fun
        if res.success:
            converged = True
        if improved <= F_TOL:
            break
    return float(fx), x, evals, converged


def _smooth16(x):
    # extended Rosenbrock: a curved valley that outlasts the first run
    return float((100 * (x[1::2] - x[::2] ** 2) ** 2 + (1 - x[::2]) ** 2).sum())


def _kinked_discord():
    """The PE(3) loss of a rank-3 two-qubit state: an entropy of
    conditional spectra, not smooth where two eigenvalues cross or one
    reaches zero."""
    rho = ginibre_state(2, 2, 3, seed=0)
    const, pair = -conditional_entropy(rho), _pair_matrix(rho)

    def objective(x):
        u = unitary_from_vector(x, 3)
        return const + _ensemble_term(_conditional_blocks(pair, u[:2, :].T, 2))

    return objective


def _nan_beyond(x):
    # NaN past a wall: a NaN vertex sorts last, yet is the run's min value
    return float("nan") if x[0] > 0.9 else float(((x - 1) ** 2).sum())


class TestScipyReference:
    """Value, point, evaluation count and convergence flag of a restart
    match the scipy-driven chain bit for bit."""

    @pytest.mark.parametrize(
        "objective, x0, cfg",
        [
            pytest.param(
                _smooth16, np.random.default_rng(0).uniform(-np.pi, np.pi, 16),
                OptimizerConfig(), id="smooth16",
            ),
            # three runs, each step kind and a shrink; the second converges
            pytest.param(_kinked_discord(), np.zeros(9), OptimizerConfig(), id="kinked-zero"),
            pytest.param(
                _kinked_discord(), np.random.default_rng(1).uniform(-np.pi, np.pi, 9),
                OptimizerConfig(), id="kinked-random",
            ),
            pytest.param(
                _smooth16, np.where(np.arange(16) % 3, 0.0, np.linspace(-1.0, 1.5, 16)),
                OptimizerConfig(), id="mixed-zero-x0",
            ),
            # the first run takes its full 1120 iterations, so the budget
            # runs out 380 iterations into the second
            pytest.param(
                _smooth16, np.random.default_rng(2).uniform(-np.pi, np.pi, 16),
                OptimizerConfig(max_iters=1500), id="budget-mid-chain",
            ),
            pytest.param(_nan_beyond, np.zeros(4), OptimizerConfig(max_iters=600), id="nan"),
        ],
    )
    def test_bit_identical(self, objective, x0, cfg):
        want = _scipy_chain(objective, x0, cfg)
        got = _lockstep([_restart(x0, cfg)], _pointwise(objective))[0]
        assert got[0].hex() == want[0].hex()
        assert got[1].tobytes() == np.asarray(want[1]).tobytes()
        assert got[2:] == want[2:]


def test_cli_import_leaves_scipy_unloaded():
    src = pathlib.Path(discordium.__file__).resolve().parent.parent
    code = "import sys, discordium.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
