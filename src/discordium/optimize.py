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
degeneracies, so the search is derivative-free: multi-restart adaptive
Nelder-Mead (Gao and Han, Comput. Optim. Appl. 51, 259 (2012)), each
restart re-anchoring its simplex at the incumbent until the improvement
drops below f_tol.  The steps follow scipy's ``adaptive=True`` variant in
its floating-point order, so trajectories match it bit for bit.
Everything is deterministic for a fixed seed; the first restart always
starts at the zero vector (the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest coordinate distance from the best simplex vertex to any other; a
# run stops once both it and f_tol (on the values) are met.
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
        if not self.f_tol > 0:
            raise ValueError(f"f_tol must be positive, got {self.f_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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
    """One restart: chained adaptive Nelder-Mead runs until improvement < f_tol.

    Each run starts from the incumbent and its n neighbours with one
    coordinate scaled by 1.05 (or set to 0.00025 where it is zero), and
    takes Gao and Han's steps with expansion chi, contraction psi and
    shrink sigma adapted to n.  Re-anchoring a fresh simplex at the
    incumbent escapes the stagnation plateaus Nelder-Mead hits in >10
    dimensions; the chain stops once a run no longer improves by more than
    f_tol, or the iteration budget for this restart is spent.  A run counts
    its start simplex as an iteration, and re-evaluates its anchor, as
    scipy's does.  The objective is handed simplex rows in place, so it
    must not write to its argument.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    x, fx = x0, objective(x0)
    evals, iters_left, converged = 1, cfg.max_iters, False
    while iters_left > 0:
        run_iters = min(iters_left, max(200, 70 * n))
        sim = np.tile(x, (n + 1, 1))
        np.fill_diagonal(sim[1:], np.where(x != 0, 1.05 * x, 0.00025))
        fsim = np.array([objective(v) for v in sim])
        evals += n + 1
        # argsort is not stable, so the start simplex is sorted twice, as
        # scipy does: a tie may swap on the second pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        it, success = 1, False
        while True:
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if it >= run_iters:
                break
            if (
                np.abs(sim[1:] - sim[0]).max() <= X_TOL
                and np.abs(fsim[0] - fsim[1:]).max() <= cfg.f_tol
            ):
                success = True
                break
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = objective(xr)
            evals += 1
            if fxr < fsim[0]:  # expand
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = objective(xe)
                evals += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # accept the reflection
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside, or inside, else shrink towards the best
                if fxr < fsim[-1]:
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = objective(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = objective(xc)
                    accept = fxc < fsim[-1]
                evals += 1
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                    fsim[1:] = [objective(v) for v in sim[1:]]
                    evals += n
            it += 1
        iters_left -= it
        fval = fsim.min()  # not fsim[0]: a NaN sorts last, yet makes the min NaN
        improved = fx - fval
        if fval < fx:
            x, fx = sim[0], fval
        converged |= success
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
