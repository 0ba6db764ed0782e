"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here, never loosened at runtime; the seeds make each criterion a frozen,
reproducible experiment.  The criteria test the search, so their solves
go through ``_discord_P``, ``_discord_PE`` and ``_discord_two_sided`` with
``search=True`` also where a closed-form path applies.  Heavy per-state sweeps fan out across
processes (capped by DISCORDIUM_THREADS).
"""

import pathlib
import time

import numpy as np
import pytest

from discordium._parallel import process_map
from discordium.cli import load_state
from discordium.discord import (
    _discord_P,
    _discord_PE,
    _discord_two_sided,
    ensemble_loss,
    loss_functional,
)
from discordium.entangle import eof_2q, eof_via_decomposition, koashi_winter_residual
from discordium.entropy import (
    entropy_of_spectrum,
    mutual_information,
    relative_entropy,
    von_neumann,
)
from discordium.measure import (
    apply_one_sided,
    randomizing_measurement,
    random_kraus,
    rank_one_kraus,
    rank_one_refine,
)
from discordium.optimize import OptimizerConfig
from discordium.qmat import (
    DensityMatrix,
    bell_state,
    classical_state,
    ginibre_state,
    partial_trace,
    tensor_product,
)
from discordium.verify import (
    grid_discord_qubit,
    grid_discord_two_sided,
    run_battery,
)

from random_states import random_classical

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

P_CFG = OptimizerConfig(restarts=6, max_iters=1200, seed=0)
PE_CFG = OptimizerConfig(restarts=6, max_iters=4000, seed=0)
TS_CFG = OptimizerConfig(restarts=6, max_iters=2500, seed=0)


def report(num, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- per-state workers (module level so they cross process boundaries) --------

def _kw_residual(seed: int) -> float:
    rho = ginibre_state(2, 2, 2, seed=seed)
    return koashi_winter_residual(rho, 4, PE_CFG)


def _chain_values(seed: int, n_b: int, rank: int):
    rho = ginibre_state(2, n_b, rank, seed=seed)
    d_p = _discord_P(rho, P_CFG, search=True).value
    d_pe = _discord_PE(rho, rho.n_A + 2, PE_CFG, search=True).value
    info = mutual_information(rho)
    saturation = abs(loss_functional(rho, randomizing_measurement(2)) - info)
    return d_p, d_pe, info, saturation


def _classical_values(seed: int):
    rho = random_classical(2, 2, np.random.default_rng(seed))
    return (
        _discord_P(rho, P_CFG, search=True).value,
        _discord_PE(rho, None, PE_CFG, search=True).value,
    )


def _grid_vs_optimizer(seed: int) -> float:
    rho = ginibre_state(2, 2, (seed % 4) + 1, seed=seed)
    return abs(grid_discord_qubit(rho, 400) - _discord_P(rho, P_CFG, search=True).value)


def _eof_gap(seed: int) -> float:
    rho = ginibre_state(2, 2, (seed % 4) + 1, seed=seed).state
    return abs(eof_via_decomposition(rho, 2, 2, 4, PE_CFG).eof - eof_2q(rho).eof)


def _two_sided_value(seed: int) -> float:
    rho = ginibre_state(2, 2, (seed % 4) + 1, seed=seed)
    return _discord_two_sided(rho, None, None, TS_CFG, search=True).value


@pytest.fixture(scope="module")
def chain_ensemble():
    """Criterion 3's 100-state sweep, shared with criterion 4."""
    jobs = []
    for k in range(50):
        jobs.append((5000 + k, 2, (k % 4) + 1))
    for k in range(50):
        jobs.append((6000 + k, 3, (k % 6) + 1))
    t0 = time.time()
    values = process_map(_chain_values, jobs)
    return values, time.time() - t0


def test_criterion_01_koashi_winter_equality():
    t0 = time.time()
    residuals = process_map(_kw_residual, [(1000 + k,) for k in range(50)])
    worst = max(residuals)
    elapsed = time.time() - t0
    report(1, "Koashi-Winter equality", worst <= 1e-4 and elapsed <= 300,
           f"worst residual {worst:.3g} over 50 rank-2 states", elapsed)


def test_criterion_02_nonnegativity():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for k in range(500):
        n_a, n_b = ((2, 2), (2, 3), (3, 2))[k % 3]
        rho = ginibre_state(n_a, n_b, int(rng.integers(1, n_a * n_b + 1)), seed=k)
        m = random_kraus(n_a, int(rng.integers(2, 5)), rng)
        worst = max(worst, -loss_functional(rho, m))
    elapsed = time.time() - t0
    report(2, "nonnegativity of the loss", worst <= 1e-8 and elapsed <= 30,
           f"worst -loss {worst:.3g} over 500 pairs", elapsed)


def test_criterion_03_inequality_chain(chain_ensemble):
    values, elapsed = chain_ensemble
    worst = max(d_pe - d_p for d_p, d_pe, _, _ in values)
    report(3, "inequality chain PE <= P", worst <= 1e-5 and elapsed <= 600,
           f"worst PE-P gap {worst:.3g} over 100 states", elapsed)


def test_criterion_04_mutual_information_bound(chain_ensemble):
    values, _ = chain_ensemble
    t0 = time.time()
    worst_bound = max(max(d_p, d_pe) - info for d_p, d_pe, info, _ in values)
    worst_saturation = max(s for _, _, _, s in values)
    elapsed = time.time() - t0
    ok = worst_bound <= 1e-7 and worst_saturation <= 1e-9 and elapsed <= 60
    report(4, "mutual-information bound and saturation", ok,
           f"worst bound excess {worst_bound:.3g}, worst saturation gap "
           f"{worst_saturation:.3g}", elapsed)


def test_criterion_05_zero_discord_characterization():
    t0 = time.time()
    results = process_map(_classical_values, [(3000 + k,) for k in range(50)])
    worst = max(max(p, pe) for p, pe in results)
    bell = bell_state()
    variants = [
        _discord_P(bell, P_CFG, search=True).value,
        _discord_PE(bell, 4, PE_CFG, search=True).value,
        _discord_two_sided(bell, None, None, TS_CFG, search=True).value,
    ]
    bell_ok = all(0.99 <= v <= 1.000001 for v in variants)
    elapsed = time.time() - t0
    report(5, "zero-discord characterization",
           worst <= 1e-5 and bell_ok and elapsed <= 180,
           f"worst classical discord {worst:.3g}, Bell variants "
           f"{[round(v, 6) for v in variants]}", elapsed)


def test_criterion_06_b_marginal_invariance():
    t0 = time.time()
    rep = run_battery("marginal_invariance", 200, seed=0)
    elapsed = time.time() - t0
    report(6, "B-marginal invariance", rep.failures == 0
           and rep.worst_violation <= 1e-10 and elapsed <= 10,
           f"worst residual {rep.worst_violation:.3g} over {rep.trials} trials", elapsed)


def test_criterion_07_refinement_monotonicity():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(777)
    for k in range(100):
        dims = ((2, 2), (2, 3), (3, 2))[k % 3]
        rho = ginibre_state(*dims, int(rng.integers(1, dims[0] * dims[1] + 1)), seed=k)
        m = random_kraus(dims[0], int(rng.integers(2, 5)), rng)
        refined = rank_one_kraus(rank_one_refine(m))
        worst = max(worst, ensemble_loss(rho, refined) - ensemble_loss(rho, m))
    elapsed = time.time() - t0
    report(7, "refinement monotonicity", worst <= 1e-9 and elapsed <= 30,
           f"worst increase {worst:.3g} over 100 Kraus sets", elapsed)


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    worst_grid = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        path = FIXTURES / f"werner_p{int(round(p * 100)):03d}.json"
        rho, _ = load_state(str(path))
        worst_grid = max(
            worst_grid,
            abs(grid_discord_qubit(rho, 400) - _discord_P(rho, P_CFG, search=True).value),
        )
    grid_gaps = process_map(_grid_vs_optimizer, [(700 + k,) for k in range(20)])
    worst_grid = max(worst_grid, max(grid_gaps))
    eof_gaps = process_map(_eof_gap, [(300 + k,) for k in range(50)])
    worst_eof = max(eof_gaps)
    elapsed = time.time() - t0
    ok = worst_grid <= 1e-4 and worst_eof <= 1e-4 and elapsed <= 600
    report(8, "oracle equivalence", ok,
           f"worst grid gap {worst_grid:.3g}, worst EOF gap {worst_eof:.3g}", elapsed)


def test_criterion_09_entropy_identities():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_identity = worst_joint = worst_mono = 0.0
    for k in range(100):
        n_b = 2 if k % 2 else 3
        rho = ginibre_state(2, n_b, int(rng.integers(1, 2 * n_b + 1)), seed=k)
        lhs = relative_entropy(
            rho.state,
            DensityMatrix(
                tensor_product(partial_trace(rho, "A").matrix, np.eye(n_b) / n_b)
            ),
        )
        rhs = (
            von_neumann(partial_trace(rho, "A"))
            - von_neumann(rho.state)
            + np.log2(n_b)
        )
        worst_identity = max(worst_identity, abs(lhs - rhs))

        probs = rng.dirichlet(np.ones(2))
        branches = [
            ginibre_state(2, n_b, n_b, seed=10_000 + 2 * k + j).state
            for j in range(2)
        ]
        # branch states live on 2*n_b, so this classical state is (2)x(2 n_b)
        cl = classical_state(probs, branches)
        joint_lhs = von_neumann(cl.state)
        joint_rhs = entropy_of_spectrum(probs) + sum(
            p * von_neumann(b) for p, b in zip(probs, branches)
        )
        worst_joint = max(worst_joint, abs(joint_lhs - joint_rhs))

        sigma = ginibre_state(2, n_b, 2 * n_b, seed=20_000 + k)
        m = random_kraus(2, int(rng.integers(2, 4)), rng)
        before = relative_entropy(rho.state, sigma.state)
        after = relative_entropy(
            apply_one_sided(rho, m).state, apply_one_sided(sigma, m).state
        )
        worst_mono = max(worst_mono, after - before)
    elapsed = time.time() - t0
    ok = (
        worst_identity <= 1e-8
        and worst_joint <= 1e-8
        and worst_mono <= 1e-8
        and elapsed <= 30
    )
    report(9, "entropy identities", ok,
           f"identity {worst_identity:.3g}, joint {worst_joint:.3g}, "
           f"monotonicity excess {worst_mono:.3g}", elapsed)


def test_criterion_10_two_sided_discord():
    t0 = time.time()
    values = process_map(_two_sided_value, [(4000 + k,) for k in range(50)])
    most_negative = min(values)

    rng = np.random.default_rng(123)
    from discordium.qmat import ginibre_density, product_state

    prod = product_state(ginibre_density(2, 2, rng), ginibre_density(2, 2, rng))
    prod_value = _discord_two_sided(prod, None, None, TS_CFG, search=True).value
    diag = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
    diag_value = _discord_two_sided(diag, None, None, TS_CFG, search=True).value

    bell = bell_state()
    bell_value = _discord_two_sided(bell, None, None, TS_CFG, search=True).value
    oracle = grid_discord_two_sided(bell, 16)
    elapsed = time.time() - t0
    ok = (
        most_negative >= -1e-7
        and prod_value <= 1e-6
        and diag_value <= 1e-6
        and abs(bell_value - 1.0) <= 1e-4
        and abs(bell_value - oracle) <= 1e-4
        and elapsed <= 300
    )
    report(10, "two-sided discord", ok,
           f"min value {most_negative:.3g}, product {prod_value:.3g}, "
           f"classical {diag_value:.3g}, Bell {bell_value:.6f} vs oracle {oracle:.6f}",
           elapsed)
