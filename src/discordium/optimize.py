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
its floating-point order, so trajectories match it bit for bit.  A run
stops once every simplex value is within F_TOL of the best and every
vertex within X_TOL of it; the value gap is tested first, as
fsim[-1] - fsim[0] of the sorted values, because it is two scalar reads
and fails on most iterations, and the vertex spread only when it passes.
The decision is scipy's either way.  A search is set by
:class:`OptimizerConfig` (restarts, max_iters, seed); its tolerances are
the constants X_TOL and F_TOL.  Everything is deterministic for a fixed
seed; the first restart always starts at the zero vector (the identity).

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
        # any integer will do, negative ones too: _start_point masks it to 64 bits
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


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


# Per (n, n_params): for each (re, im) slot of the flattened n x n
# generator, the angle it reads and the sign it takes (conj below the
# diagonal), so that one gather and one product build a whole stack.
_LAYOUT_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _generator_layout(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    if (n, size) not in _LAYOUT_CACHE:
        k = size - n * (n - 1)  # diagonal angles before the upper triangle
        rows, cols = np.triu_indices(n, k=1)
        upper, lower = rows * n + cols, cols * n + rows
        re = k + 2 * np.arange(len(rows))
        gather = np.zeros((n * n, 2), dtype=np.intp)
        sign = np.zeros((n * n, 2))
        gather[upper] = gather[lower] = np.stack([re, re + 1], axis=1)
        sign[upper] = 1.0, 1.0
        sign[lower] = 1.0, -1.0
        if k:
            gather[:: n + 1, 0] = np.arange(n)
            sign[:: n + 1, 0] = 1.0
        _LAYOUT_CACHE[n, size] = gather.ravel(), sign.ravel()
    return _LAYOUT_CACHE[n, size]


def _generators(params: np.ndarray, n: int) -> np.ndarray:
    """The (m, n, n) Hermitian generators of an (m, n_params) stack of
    angles in either chart of :func:`unitary_from_vector`: every entry
    is its angle, negated for the imaginary part below the diagonal."""
    m, size = params.shape
    if not size:  # the 1 x 1 projective chart has no angles
        return np.zeros((m, n, n), dtype=np.complex128)
    gather, sign = _generator_layout(n, size)
    h = params.take(gather, axis=1)
    h *= sign
    # a sign-0 slot holds 0 * angle, which is -0.0 for a negative angle;
    # zero the diagonal's imaginary parts (and, in the projective chart,
    # its real parts) outright, as a zero-initialized generator has them
    h.reshape(m, n * n, 2)[:, :: n + 1, 0 if size < n * n else 1 :] = 0.0
    return h.view(np.complex128).reshape(m, n, n)


def unitary_from_vector(params: np.ndarray, n: int) -> np.ndarray:
    """exp(iH) for the Hermitian generator H encoded by a float array of
    angles: one n x n unitary for a 1-d array, an (m, n, n) stack for an
    (m, n_params) stack of rows.

    n^2 angles give the full chart: n diagonal entries, then the strict
    upper triangle row by row as (re, im) pairs.  n(n-1) angles give the
    projective chart: the same upper triangle under a zero diagonal.  For
    n = 2 that generator is H = [[0, z], [z*, 0]] with H^2 = |z|^2 I, so
    exp(iH) = cos|z| I + i (sin|z| / |z|) H, with no eigensolver call;
    every other generator is built by one gather of the angles and goes
    through one batched ``eigh``.  Each row's
    unitary is the same, bit for bit, whatever else shares its stack.
    """
    return _unitaries(params[None], n)[0] if params.ndim == 1 else _unitaries(params, n)


def _unitaries(params: np.ndarray, n: int) -> np.ndarray:
    m, size = params.shape
    full = n * n
    if size not in (full, full - n):
        raise ValueError(f"need {full} or {full - n} parameters, got {size}")
    if n == 2 and size == 2:  # the qubit projective chart
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
    evals, evecs = np.linalg.eigh(_generators(params, n))
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
        order = fsim.argsort()
        sim, fsim = sim.take(order, 0), fsim[order]
        it, success = 1, False
        while True:
            order = fsim.argsort()
            sim, fsim = sim.take(order, 0), fsim[order]
            if it >= run_iters:
                break
            if _stop(sim, fsim):
                success = True
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
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


def _stop(sim: np.ndarray, fsim: np.ndarray) -> bool:
    """Whether a run has converged, on its simplex sorted by value.  The
    cheap value gap goes first: on a sorted ``fsim`` the largest
    |fsim[0] - fsim[i]| is fsim[-1] - fsim[0], and a NaN (sorted last) or
    an inf fails both forms."""
    return fsim[-1] - fsim[0] <= F_TOL and np.abs(sim[1:] - sim[0]).max() <= X_TOL


def _lockstep(restarts: list, stacked) -> list[tuple]:
    """Advance every restart generator in step: each round gathers the
    points all live restarts wait on, evaluates them with one call of
    ``stacked`` (rows in, values out), and sends each restart its share.
    A restart sees the same values in the same order as it would alone,
    so its trajectory does not depend on the others."""
    results: list = [None] * len(restarts)
    live = [(k, gen, next(gen)) for k, gen in enumerate(restarts)]
    while live:
        values = stacked(np.concatenate([points for _, _, points in live]))
        waiting, start = [], 0
        for k, gen, points in live:
            stop = start + len(points)
            try:
                waiting.append((k, gen, gen.send(values[start:stop])))
            except StopIteration as done:
                results[k] = done.value
            start = stop
        live = waiting
    return results


def _pointwise(objective):
    """A stacked evaluator that calls a per-point objective once per row."""
    return lambda points: np.array([objective(x) for x in points], dtype=float)


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
