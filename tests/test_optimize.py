import numpy as np
import pytest

from discordium.optimize import OptimizerConfig, minimize_vector, unitary_from_vector


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
            OptimizerConfig(f_tol=0.0)
