"""Seeded multi-restart Nelder-Mead over flat real parameter vectors, and
the exp(iH) chart that turns such a vector into a unitary.

A unitary is U = exp(iH) with H Hermitian.  The full chart reads H from
N^2 real angles (N diagonal entries, then the upper triangle as re/im
pairs row by row) and covers U(N).  Where only the basis matters, as for a
projective measurement, the phase of each column is irrelevant, so the N
diagonal angles are dead parameters; the projective chart keeps the
zero-diagonal H and its N(N-1) angles (the flag-manifold quotient of
Edelman, Arias and Smith, SIAM J. Matrix Anal. Appl. 20, 303 (1998)).
Objectives built on eigenvalue entropies have kinks at spectral
degeneracies, so the search is derivative-free: multi-restart
Nelder-Mead, each restart re-anchoring its simplex at the incumbent until
the improvement drops below f_tol.  Everything is deterministic for a
fixed seed; the first restart always starts at the zero vector (the
identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

# Nelder-Mead's simplex-size tolerance (scipy's xatol); a run stops once
# both it and f_tol are met.
X_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 2000
    f_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.f_tol <= 0:
            raise ValueError(f"f_tol must be positive, got {self.f_tol}")


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best restart of a multi-restart search.

    ``best_params`` is the flat parameter vector of the best restart;
    callers rebuild their unitaries from it with
    :func:`unitary_from_vector`.
    """

    best_value: float
    best_params: np.ndarray
    evaluations: int
    restart_values: tuple[float, ...]
    converged: bool


# Flat positions in an n x n matrix of the diagonal, the strict upper
# triangle (row by row) and its mirror, per n.
_INDEX_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _flat_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n not in _INDEX_CACHE:
        rows, cols = np.triu_indices(n, k=1)
        _INDEX_CACHE[n] = (np.arange(n) * (n + 1), rows * n + cols, cols * n + rows)
    return _INDEX_CACHE[n]


def unitary_from_vector(params: np.ndarray, n: int) -> np.ndarray:
    """exp(iH) for the Hermitian generator H encoded by a 1-d float array.

    n^2 angles give the full chart: n diagonal entries, then the strict
    upper triangle row by row as (re, im) pairs.  n(n-1) angles give the
    projective chart: the same upper triangle under a zero diagonal.  For
    n = 2 that generator is H = [[0, z], [z*, 0]] with H^2 = |z|^2 I, so
    exp(iH) = cos|z| I + i (sin|z| / |z|) H, with no eigensolver call.
    """
    full = n * n
    if len(params) == full:
        k = n  # angles before the upper triangle
    elif len(params) == full - n:
        k = 0
        if n == 2:
            z = complex(params[0], params[1])
            r = abs(z)
            c, s = math.cos(r), (math.sin(r) / r if r else 1.0)
            return np.array([[c, 1j * s * z], [1j * s * z.conjugate(), c]])
    else:
        raise ValueError(f"need {full} or {full - n} parameters, got {len(params)}")
    diag, upper, lower = _flat_indices(n)
    h = np.zeros(full, dtype=np.complex128)
    if k:
        h[diag] = params[:k]
    off = params[k::2] + 1j * params[k + 1 :: 2]
    h[upper] = off
    h[lower] = off.conj()
    evals, evecs = np.linalg.eigh(h.reshape(n, n))
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def _start_point(seed: int, restart: int, n_params: int) -> np.ndarray:
    if restart == 0:
        return np.zeros(n_params)
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, restart])
    return np.random.default_rng(ss).uniform(-np.pi, np.pi, n_params)


def _local_search(objective, x0: np.ndarray, cfg: OptimizerConfig):
    """One restart: chained Nelder-Mead runs until improvement < f_tol.

    Re-anchoring a fresh simplex at the incumbent escapes the stagnation
    plateaus Nelder-Mead hits in >10 dimensions; the chain stops once a
    run no longer improves by more than f_tol, or the iteration budget for
    this restart is spent.
    """
    x, fx = x0, objective(x0)
    evals, iters_left, converged = 1, cfg.max_iters, False
    chain_cap = max(200, 70 * len(x0))
    while iters_left > 0:
        res = _scipy_minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxiter": min(iters_left, chain_cap),
                "fatol": cfg.f_tol,
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
        if improved <= cfg.f_tol:
            break
    return float(fx), x, evals, converged


def minimize_vector(objective, n_params: int, cfg: OptimizerConfig) -> OptimizationOutcome:
    """Multi-restart Nelder-Mead over a flat real parameter vector.

    Restart k's start point depends only on (cfg.seed, k), so adding
    restarts can only improve the result; ties go to the lowest index.
    """
    results = [
        _local_search(objective, _start_point(cfg.seed, k, n_params), cfg)
        for k in range(cfg.restarts)
    ]
    values = tuple(r[0] for r in results)
    best = int(np.argmin(values))
    return OptimizationOutcome(
        best_value=values[best],
        best_params=results[best][1],
        evaluations=sum(r[2] for r in results),
        restart_values=values,
        converged=results[best][3],
    )
