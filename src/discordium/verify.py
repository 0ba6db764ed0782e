"""Independent oracles and randomized theorem batteries.

Two oracles brute-force a discord over a (theta, phi) Bloch grid of
projective bases, as checks on the optimizer.  Both walk the grid in tiles
of a fixed size and keep a running minimum, so no full-grid table is ever
held.  ``grid_discord_two_sided`` (two qubits, product bases) has its own
contraction, the real Fano form of the state against each basis's Bloch
rows, and shares no code with the search.  ``grid_discord_qubit`` (n_A =
2) builds its own grid but still contracts it with the search's
``_conditional_blocks`` and ``_branch_entropy_contrib``: the benchmark's
traced run times those two kernels at this module's import sites, so they
stay until the benchmark changes.  ``luo_discord`` is Luo's closed form
for two-qubit states with maximally mixed marginals, from the same Fano
form and sharing no code with the closed-form paths of ``discord``.
``run_battery`` samples seeded random states and measurements and
machine-checks one proved inequality or identity per battery; the
tolerance of every battery lives in one table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discord import (
    _branch_entropy_contrib,
    _conditional_blocks,
    _discord_P,
    _discord_PE,
    ensemble_loss,
    loss_functional,
)
from .entangle import koashi_winter_residual
from .entropy import (
    _xlog2x,
    conditional_entropy,
    mutual_information,
    relative_entropy,
    von_neumann,
)
from .measure import (
    apply_one_sided,
    from_neumark,
    neumark_kraus,
    projective_kraus,
    rank_one_kraus,
    rank_one_refine,
    random_kraus,
    random_neumark,
    random_projective,
    randomizing_measurement,
)
from .optimize import OptimizerConfig
from .qmat import (
    BipartiteState,
    ginibre_state,
    partial_trace,
)
from ._parallel import process_map

# Theorem-specific tolerances, in one place for auditability.
BATTERY_TOLERANCES = {
    "nonnegativity": 1e-8,
    "marginal_invariance": 1e-10,
    "refinement_monotonicity": 1e-9,
    "inequality_chain": 1e-5,
    "mutual_info_bound": 1e-7,
    "relative_entropy_monotonicity": 1e-8,
    "koashi_winter": 1e-4,
}

# The randomizing measurement must reproduce the mutual information to this
# accuracy inside the mutual_info_bound battery.
SATURATION_TOL = 1e-9

# The optimizer batteries test the search, so they solve with
# search=True also where the closed-form path applies.
_P_CFG = OptimizerConfig(restarts=8, max_iters=1000)
_PE_CFG = OptimizerConfig(restarts=10, max_iters=4000)
# Extension dimension of the koashi_winter battery's searched D_PE.
_KW_N = 4


@dataclass(frozen=True)
class BatteryReport:
    name: str
    trials: int
    failures: int
    worst_violation: float
    seeds_of_failures: tuple[int, ...]


# Table entries per tile of the grid oracles.  A tile's outcome table or
# conditional blocks, with their temporaries, stay a few MB at any
# resolution, where the two-sided table of the whole grid at resolution 40
# alone takes 82 MB.
_TILE_ENTRIES = 1 << 17

# I, X, Y, Z: the basis of the real Fano form
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_grid_angles(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of every grid basis, flattened to G = resolution^2.

    theta_k = (pi/2) k / r and phi_j = 2 pi j / r, so doubling the
    resolution produces a superset grid; the omitted theta endpoint is
    reached by the projector-exchange symmetry.
    """
    r = resolution
    theta = (np.pi / 2) * np.arange(r) / r
    phi = 2 * np.pi * np.arange(r) / r
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return tt.ravel(), pp.ravel()


def _bloch_vectors(tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """Both projector vectors of each basis: (2 G, 2) with the two branch
    vectors of basis g at rows 2g and 2g+1."""
    v0 = np.stack([np.cos(tt), np.exp(1j * pp) * np.sin(tt)], axis=1)
    v1 = np.stack([-np.exp(-1j * pp) * np.sin(tt), np.cos(tt)], axis=1)
    out = np.empty((2 * len(tt), 2), dtype=np.complex128)
    out[0::2] = v0
    out[1::2] = v1
    return out


def _tiles(count: int, entries_per_item: int):
    """Slices that cut ``count`` items into tiles of about ``_TILE_ENTRIES``
    table entries each."""
    step = max(1, _TILE_ENTRIES // entries_per_item)
    return (slice(s, s + step) for s in range(0, count, step))


def grid_discord_qubit(rho: BipartiteState, resolution: int) -> float:
    """Exhaustive projective-discord search for n_A = 2 over a Bloch grid.

    Converges to the projective discord from above as the resolution grows.
    """
    if rho.n_A != 2:
        raise ValueError(f"grid oracle needs n_A = 2, got {rho.n_A}")
    n_B = rho.n_B
    # rho with (a, a') index pairs as rows and flattened B blocks as columns
    pair = rho.matrix.reshape(2, n_B, 2, n_B).transpose(0, 2, 1, 3).reshape(4, n_B * n_B)
    tt, pp = _bloch_grid_angles(resolution)
    best = np.inf
    for tile in _tiles(len(tt), 2 * n_B * n_B):
        conds = _conditional_blocks(pair, _bloch_vectors(tt[tile], pp[tile]), n_B)
        contrib = _branch_entropy_contrib(conds)
        best = min(best, float((contrib[0::2] + contrib[1::2]).min()))
    return -conditional_entropy(rho) + best


def _fano_rows(tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """Rows (1, +n) and (1, -n) of each basis, n = (sin 2t cos p,
    sin 2t sin p, cos 2t) its Bloch vector: its two projectors are
    (I +- n . sigma) / 2.  Returns (2 G, 4), basis g at rows 2g and 2g+1."""
    n = np.stack([np.sin(2 * tt) * np.cos(pp), np.sin(2 * tt) * np.sin(pp), np.cos(2 * tt)], axis=1)
    out = np.ones((2 * len(tt), 4))
    out[0::2, 1:] = n
    out[1::2, 1:] = -n
    return out


def _fano_form(rho: BipartiteState) -> np.ndarray:
    """The real 4 x 4 Fano form M_ij = tr[rho (s_i (x) s_j)] of a two-qubit
    state over s = (I, X, Y, Z): the local Bloch vectors in row and column
    0, the correlation matrix T below."""
    blocks = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", blocks, _PAULI, _PAULI).real


def grid_discord_two_sided(rho: BipartiteState, resolution: int) -> float:
    """Brute-force two-sided discord of a two-qubit state over product
    projective bases on the same Bloch grid for each side."""
    if rho.n_A != 2 or rho.n_B != 2:
        raise ValueError("two-sided grid oracle needs a 2x2 state")
    # tr[rho (P (x) Q)] = x_P . M . x_Q / 4 for Fano rows x
    fano = _fano_form(rho)
    x = _fano_rows(*_bloch_grid_angles(resolution))
    right = (fano @ x.T) / 4  # (4, 2 G)
    n = len(x) // 2
    # each side's outcome distribution depends on its own basis only, so
    # read B's off against the first A basis, and A's against the first B
    first = x[:2] @ right
    cols = -_xlog2x(first[0] + first[1]).reshape(n, 2).sum(axis=1)
    best = np.inf
    for tile in _tiles(n, 4 * n):
        q = x[2 * tile.start : 2 * tile.stop] @ right  # an A-tile of the outcome table
        t = _xlog2x(q)
        t = t[0::2] + t[1::2]  # summed over A's outcomes: (bases in tile, 2 G)
        joint = -(t[:, 0::2] + t[:, 1::2])
        rows = -_xlog2x(q[:, 0] + q[:, 1]).reshape(-1, 2).sum(axis=1)
        best = min(best, float((joint - rows[:, None] - cols).min()))
    return mutual_information(rho) + best


def luo_discord(rho: BipartiteState) -> float | None:
    """Luo's closed form (PRA 77, 042303 (2008)) of the discord of a
    two-qubit state whose local Bloch vectors vanish: I(A:B) minus the
    classical correlation (1 - c)/2 log2(1 - c) + (1 + c)/2 log2(1 + c),
    where c is the largest singular value of the correlation matrix
    T_ij = tr[rho (s_i (x) s_j)].  Luo states it for Bell-diagonal states,
    where T is diagonal; local unitaries bring every such state to that
    form without moving c or any entropy.  Measuring B as well, or with a
    rank-1 POVM, gains nothing on these states, so the projective,
    extended and two-sided discords all equal it.  None for a state
    outside the family (any local Bloch component above 1e-12).
    """
    if (rho.n_A, rho.n_B) != (2, 2):
        return None
    fano = _fano_form(rho)
    if max(np.abs(fano[0, 1:]).max(), np.abs(fano[1:, 0]).max()) > 1e-12:
        return None
    c = min(1.0, float(np.linalg.norm(fano[1:, 1:], 2)))
    classical = sum(x / 2 * np.log2(x) for x in (1 - c, 1 + c) if x > 0)
    return mutual_information(rho) - classical


# -- batteries -----------------------------------------------------------------

def _random_state(rng: np.random.Generator, dims=((2, 2), (2, 3), (3, 2))) -> BipartiteState:
    n_a, n_b = dims[rng.integers(len(dims))]
    rank = int(rng.integers(1, n_a * n_b + 1))
    return ginibre_state(n_a, n_b, rank, int(rng.integers(2**63 - 1)))


def _random_measurement(rho: BipartiteState, rng: np.random.Generator):
    kind = rng.integers(5)
    n_a = rho.n_A
    if kind == 0:
        return random_kraus(n_a, int(rng.integers(2, 5)), rng)
    if kind == 1:
        return projective_kraus(random_projective(n_a, rng))
    if kind == 2:
        return neumark_kraus(random_neumark(n_a, n_a + int(rng.integers(0, 3)), rng))
    if kind == 3:
        return rank_one_kraus(from_neumark(random_neumark(n_a, n_a + 1, rng)))
    return randomizing_measurement(n_a)


def _trial_nonnegativity(rng: np.random.Generator) -> float:
    rho = _random_state(rng)
    m = random_kraus(rho.n_A, int(rng.integers(2, 5)), rng)
    return max(0.0, -loss_functional(rho, m))


def _trial_marginal_invariance(rng: np.random.Generator) -> float:
    rho = _random_state(rng)
    m = _random_measurement(rho, rng)
    before = partial_trace(rho, "B").matrix
    after = partial_trace(apply_one_sided(rho, m), "B").matrix
    return float(np.abs(after - before).max())


def _trial_refinement_monotonicity(rng: np.random.Generator) -> float:
    rho = _random_state(rng)
    m = random_kraus(rho.n_A, int(rng.integers(2, 5)), rng)
    refined = rank_one_kraus(rank_one_refine(m))
    return max(0.0, ensemble_loss(rho, refined) - ensemble_loss(rho, m))


def _trial_inequality_chain(rng: np.random.Generator) -> float:
    n_b = 2 if rng.integers(2) else 3
    rho = ginibre_state(2, n_b, int(rng.integers(1, 2 * n_b + 1)), int(rng.integers(2**63 - 1)))
    seed = int(rng.integers(2**31))
    d_p = _discord_P(rho, replace(_P_CFG, seed=seed), search=True)
    d_pe = _discord_PE(rho, rho.n_A + 2, replace(_PE_CFG, seed=seed), search=True)
    return max(0.0, d_pe.value - d_p.value)


def _trial_mutual_info_bound(rng: np.random.Generator) -> float:
    rho = _random_state(rng, dims=((2, 2), (2, 3)))
    info = mutual_information(rho)
    seed = int(rng.integers(2**31))
    d_p = _discord_P(rho, replace(_P_CFG, seed=seed), search=True)
    d_pe = _discord_PE(rho, rho.n_A + 2, replace(_PE_CFG, seed=seed), search=True)
    bound_violation = max(0.0, d_p.value - info, d_pe.value - info)
    saturation = abs(loss_functional(rho, randomizing_measurement(rho.n_A)) - info)
    # the saturation identity has its own, tighter tolerance
    return max(bound_violation, saturation if saturation > SATURATION_TOL else 0.0)


def _trial_relative_entropy_monotonicity(rng: np.random.Generator) -> float:
    n_a, n_b = ((2, 2), (2, 3), (3, 2))[rng.integers(3)]
    dim = n_a * n_b
    rho = ginibre_state(n_a, n_b, int(rng.integers(1, dim + 1)), int(rng.integers(2**63 - 1)))
    sigma = ginibre_state(n_a, n_b, dim, int(rng.integers(2**63 - 1)))
    m = random_kraus(n_a, int(rng.integers(2, 4)), rng)
    before = relative_entropy(rho.state, sigma.state)
    after = relative_entropy(apply_one_sided(rho, m).state, apply_one_sided(sigma, m).state)
    return max(0.0, after - before)


def _trial_koashi_winter(rng: np.random.Generator) -> float:
    rho = ginibre_state(2, 2, 2, int(rng.integers(2**63 - 1)))
    seed = int(rng.integers(2**31))
    return koashi_winter_residual(rho, _KW_N, replace(_PE_CFG, seed=seed))


def _run_trial(name: str, trial_seed: int) -> float:
    return _BATTERIES[name](np.random.default_rng(trial_seed))


_BATTERIES = {
    "nonnegativity": _trial_nonnegativity,
    "marginal_invariance": _trial_marginal_invariance,
    "refinement_monotonicity": _trial_refinement_monotonicity,
    "inequality_chain": _trial_inequality_chain,
    "mutual_info_bound": _trial_mutual_info_bound,
    "relative_entropy_monotonicity": _trial_relative_entropy_monotonicity,
    "koashi_winter": _trial_koashi_winter,
}

BATTERY_NAMES = tuple(_BATTERIES)


def run_battery(
    name: str, trial_count: int, seed: int = 0, tolerance: float | None = None
) -> BatteryReport:
    """Run one named battery over seeded trials.

    Each trial derives its own seed from (seed, trial index), so reports
    are reproducible and merging is order-independent.
    """
    if name not in _BATTERIES:
        raise ValueError(f"unknown battery {name!r}; choose from {sorted(_BATTERIES)}")
    tol = BATTERY_TOLERANCES[name] if tolerance is None else tolerance
    master = np.random.default_rng(seed)
    trial_seeds = master.integers(0, 2**63 - 1, size=trial_count)
    violations = process_map(_run_trial, [(name, int(s)) for s in trial_seeds])
    failures = [i for i, v in enumerate(violations) if v > tol]
    return BatteryReport(
        name=name,
        trials=trial_count,
        failures=len(failures),
        worst_violation=float(max(violations)) if violations else 0.0,
        seeds_of_failures=tuple(int(trial_seeds[i]) for i in failures),
    )
