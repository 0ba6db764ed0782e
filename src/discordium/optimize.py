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
drops below F_TOL.  The steps follow scipy's ``adaptive=True`` variant in
its floating-point order, so trajectories match it bit for bit.  A search
is set by :class:`OptimizerConfig` (restarts, max_iters, seed); its
tolerances are the constants X_TOL and F_TOL.  Everything is
deterministic for a fixed seed; the first restart always starts at the
zero vector (the identity).

All restarts run in lockstep.  Each is a generator that yields the points
it needs next and is sent their values; every round, ``_lockstep`` gathers
the pending points of all live restarts into one (m, n_params) stack and
evaluates it with one call.  One objective evaluation on these 2x2-9x9
matrices is almost all numpy call overhead, so a stack of m points costs
little more than one point.  An objective opts in by being a
:class:`StackedObjective`, whose kernel maps a stack to its m values and
must give each row the value it gives that row alone; a plain
``f(x) -> float`` is called once per point inside the same loop.
Either way each restart sees the same values in the same order, so its
trajectory depends only on (seed, restart index).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Largest coordinate distance from the best simplex vertex to any other; a
# run stops once both it and F_TOL are met.
X_TOL = 1e-9
# Largest value gap from the best simplex vertex to any other; a restart's
# chain of runs also stops once a run improves its value by no more.
F_TOL = 1e-9
# Restarts whose value is within this of the best count as agreeing with it.
AGREE_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        # NaN passes "< 1" (it compares false) and would stop every restart
        # after one evaluation; any float count is rejected with it
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best restart of a multi-restart search.

    ``best_params`` is the flat parameter vector of the best restart;
    callers rebuild their unitaries from it with
    :func:`unitary_from_vector`.
    """

    best_value: float
    best_params: np.ndarray
    restart_values: tuple[float, ...]
    converged: bool
    # evaluations of each restart, in restart order; empty on exact paths
    restart_evaluations: tuple[int, ...] = ()

    @property
    def evaluations(self) -> int:
        """Objective evaluations over all restarts; 0 on exact paths."""
        return sum(self.restart_evaluations)

    @property
    def agreeing_restarts(self) -> int:
        """Restarts within AGREE_TOL of the best; a low count says the
        restarts did not settle on one minimum."""
        return sum(abs(v - self.best_value) <= AGREE_TOL for v in self.restart_values)


# Flat positions in an n x n matrix of the diagonal, the strict upper
# triangle (row by row) and its mirror, per n.
_INDEX_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _flat_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n not in _INDEX_CACHE:
        rows, cols = np.triu_indices(n, k=1)
        _INDEX_CACHE[n] = (np.arange(n) * (n + 1), rows * n + cols, cols * n + rows)
    return _INDEX_CACHE[n]


def unitary_from_vector(params: np.ndarray, n: int) -> np.ndarray:
    """exp(iH) for the Hermitian generator H encoded by a float array of
    angles: one n x n unitary for a 1-d array, an (m, n, n) stack for an
    (m, n_params) stack of rows.

    n^2 angles give the full chart: n diagonal entries, then the strict
    upper triangle row by row as (re, im) pairs.  n(n-1) angles give the
    projective chart: the same upper triangle under a zero diagonal.  For
    n = 2 that generator is H = [[0, z], [z*, 0]] with H^2 = |z|^2 I, so
    exp(iH) = cos|z| I + i (sin|z| / |z|) H, with no eigensolver call;
    every other generator goes through one batched ``eigh``.  Each row's
    unitary is the same, bit for bit, whatever else shares its stack.
    """
    return _unitaries(params[None], n)[0] if params.ndim == 1 else _unitaries(params, n)


def _unitaries(params: np.ndarray, n: int) -> np.ndarray:
    m, size = params.shape
    full = n * n
    if size == full:
        k = n  # angles before the upper triangle
    elif size == full - n:
        k = 0
        if n == 2:
            re, im = params[:, 0], params[:, 1]
            r = np.hypot(re, im)
            s = np.sin(r) / np.where(r, r, 1.0)  # z = 0 where r = 0
            s_re, s_im = s * re, s * im
            # (re, im) parts of u00 = u11 = cos r, u01 = i s z, u10 = i s z*
            u = np.zeros((m, 4, 2))
            u[:, 0, 0] = u[:, 3, 0] = np.cos(r)
            u[:, 1, 0], u[:, 2, 0] = -s_im, s_im
            u[:, 1, 1] = u[:, 2, 1] = s_re
            return u.view(np.complex128).reshape(m, 2, 2)
    else:
        raise ValueError(f"need {full} or {full - n} parameters, got {size}")
    diag, upper, lower = _flat_indices(n)
    h = np.zeros((m, full), dtype=np.complex128)
    if k:
        h[:, diag] = params[:, :k]
    off = params[:, k::2] + 1j * params[:, k + 1 :: 2]
    h[:, upper] = off
    h[:, lower] = off.conj()
    evals, evecs = np.linalg.eigh(h.reshape(m, n, n))
    return (evecs * np.exp(1j * evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)


def _start_point(seed: int, restart: int, n_params: int) -> np.ndarray:
    if restart == 0:
        return np.zeros(n_params)
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, restart])
    return np.random.default_rng(ss).uniform(-np.pi, np.pi, n_params)


def _restart(x0: np.ndarray, cfg: OptimizerConfig):
    """One restart as a generator: chained adaptive Nelder-Mead runs until
    improvement <= F_TOL, within the ``max_iters`` budget of ``cfg`` (an
    :class:`OptimizerConfig`: restarts, max_iters, seed).

    It yields each batch of points it needs next, as the rows of an
    array (its anchor, a start simplex, a reflection, an expansion or
    contraction, or the n shrink points), is sent back their values as a
    float array, and returns ``(value, point, evaluations, converged)``.

    Each run starts from the incumbent and its n neighbours with one
    coordinate scaled by 1.05 (or set to 0.00025 where it is zero), and
    takes Gao and Han's steps with expansion chi, contraction psi and
    shrink sigma adapted to n.  Re-anchoring a fresh simplex at the
    incumbent escapes the stagnation plateaus Nelder-Mead hits in >10
    dimensions; the chain stops once a run no longer improves by more than
    F_TOL, or the iteration budget for this restart is spent.  A run counts
    its start simplex as an iteration, and re-evaluates its anchor, as
    scipy's does.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    x, fx = x0, (yield x0[None])[0]
    evals, iters_left, converged = 1, cfg.max_iters, False
    while iters_left > 0:
        run_iters = min(iters_left, max(200, 70 * n))
        sim = np.tile(x, (n + 1, 1))
        np.fill_diagonal(sim[1:], np.where(x != 0, 1.05 * x, 0.00025))
        fsim = yield sim
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
                and np.abs(fsim[0] - fsim[1:]).max() <= F_TOL
            ):
                success = True
                break
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = (yield xr[None])[0]
            evals += 1
            if fxr < fsim[0]:  # expand
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = (yield xe[None])[0]
                evals += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # accept the reflection
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside, or inside, else shrink towards the best
                if fxr < fsim[-1]:
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = (yield xc[None])[0]
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = (yield xc[None])[0]
                    accept = fxc < fsim[-1]
                evals += 1
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                    fsim[1:] = yield sim[1:]
                    evals += n
            it += 1
        iters_left -= it
        fval = fsim.min()  # not fsim[0]: a NaN sorts last, yet makes the min NaN
        improved = fx - fval
        if fval < fx:
            x, fx = sim[0], fval
        converged |= success
        if improved <= F_TOL:
            break
    return float(fx), x, evals, converged


def _lockstep(restarts: list, stacked) -> list[tuple]:
    """Advance every restart generator in step: each round gathers the
    points all live restarts wait on, evaluates them with one call of
    ``stacked`` (rows in, values out), and sends each restart its share.
    A restart sees the same values in the same order as it would alone,
    so its trajectory does not depend on the others."""
    results: list = [None] * len(restarts)
    pending = {k: next(gen) for k, gen in enumerate(restarts)}
    while pending:
        values = stacked(np.concatenate(list(pending.values())))
        start = 0
        for k, points in list(pending.items()):
            stop = start + len(points)
            try:
                pending[k] = restarts[k].send(values[start:stop])
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
            start = stop
    return results


def _pointwise(objective):
    """A stacked evaluator that calls a per-point objective once per row."""
    return lambda points: np.array([objective(x) for x in points], dtype=float)


def _local_search(objective, x0: np.ndarray, cfg: OptimizerConfig):
    """One restart from x0 under a per-point objective:
    ``(value, point, evaluations, converged)``."""
    return _lockstep([_restart(x0, cfg)], _pointwise(objective))[0]


class StackedObjective:
    """A per-point objective ``f(x) -> float`` backed by a stacked kernel
    ``f(X[m, n_params]) -> values[m]``.

    :func:`minimize_vector` evaluates each lockstep round's points with one
    kernel call; a caller that sees only the callable (``f(x)``) gets one
    point per call through the same kernel.  The kernel must give each row
    the value it gives that row alone, and must not write to its argument.
    """

    __slots__ = ("stacked",)

    def __init__(self, stacked):
        self.stacked = stacked

    def __call__(self, x: np.ndarray) -> float:
        return float(self.stacked(x[None])[0])


def minimize_vector(objective, n_params: int, cfg: OptimizerConfig) -> OptimizationOutcome:
    """Multi-restart Nelder-Mead over a flat real parameter vector.

    All restarts advance in lockstep.  ``objective`` is a per-point
    ``f(x) -> float``; a :class:`StackedObjective` is also evaluated one
    stack per round.  Restart k's start point, and so its whole
    trajectory, depends only on (cfg.seed, k), so adding restarts can only
    improve the result; ties go to the lowest index.
    """
    stacked = getattr(objective, "stacked", None) or _pointwise(objective)
    results = _lockstep(
        [_restart(_start_point(cfg.seed, k, n_params), cfg) for k in range(cfg.restarts)],
        stacked,
    )
    values = tuple(r[0] for r in results)
    best = int(np.argmin(values))
    return OptimizationOutcome(
        best_value=values[best],
        best_params=results[best][1],
        restart_values=values,
        converged=results[best][3],
        restart_evaluations=tuple(r[2] for r in results),
    )
