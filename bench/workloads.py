"""Workload inputs and op schedules.

Every workload is a closed loop with one caller: the next op is issued when
the previous one returns.  A run is made of whole passes over a fixed op
list, the workload's ``Schedule``.  Every run therefore times the same mix
of ops, however fast the host or the program is: a faster program fits
more passes of the same mix into ``--seconds``, never a different mix.

A pass holds the workload's own (primary) ops and probes, a few ops of
every other kind, so that a run reports every end-to-end metric on every
workload.  Probes run on the ``UPPER_RANK2`` fixtures at ``PROBE_SEED``,
so that they time the same work at every workload seed.  All ops are
spread evenly through the pass, so that a slow spell of the host hits
every kind alike.  The grid probes of ``fixtures_2q`` and ``qudit_mixed``
are marked ``aside``: they run in a helper process, so that their 0.14-0.5
GB cannot hide the solves' memory in the benchmark's peak RSS.

The optimizer runs at the CLI defaults (``OptimizerConfig()``) except for
``restarts``: at the CLI's 20 restarts one fixture costs about 25 s, so a
run would see one or two solves of each kind and no median.  Two restarts
keep the seeded start (restart 0 is the identity, restart 1 is drawn from
the seed) and pass every check on the two-qubit fixtures.  ``qudit_mixed``
runs six: with two to four, ``discord_PE(N=4)`` on n_A = 3 states stalls up
to 2e-5 above ``discord_P`` on about one state in twenty, which fails the
D_PE <= D_P check.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# Library calls go through module attributes, looked up at call time, so
# that the traced run sees the wrappers installed at each import site.
import discordium as dm
from discordium import OptimizerConfig, cli

GRID_QUBIT_RESOLUTION = 400
GRID_TWO_SIDED_RESOLUTION = 40
# The optimizer-free batteries; the other three run optimizer solves.
BATTERIES = (
    "nonnegativity",
    "marginal_invariance",
    "refinement_monotonicity",
    "relative_entropy_monotonicity",
)
SOLVE_KINDS = ("P", "PE", "two_sided", "eof")
# Trials per run_battery call.  On the 2-core host two workers run a round
# of the four batteries in 0.59 s at 100 trials (0.36 s serially, a loss),
# 0.93 s at 250 (1.09 s) and 1.67 s at 500 (1.95 s): 500 is a size where
# the process fan-out pays.
BATTERY_TRIALS = 500
# Trials per probe call.  Probe calls run in-process, where the time per
# trial does not depend on the call size, so they are cut into more, smaller
# calls: four rounds of 100 give four samples per battery where one round of
# 500 gave one.
PROBE_BATTERY_TRIALS = 100
# Optimizer restarts of two-qubit solves, and of the qudit_mixed solves.
RESTARTS_2Q = 2
RESTARTS_QUDIT = 6
# Optimizer and battery seed of the probes.
PROBE_SEED = 0
# Groups of each kind that the traced run takes from the front of a pass.
TRACE_GROUPS = 2


@dataclass
class Op:
    """One call into the library.  ``trials`` is how many ops it counts as
    (a ``run_battery`` call counts one per trial); ``probe`` marks an op
    that the workload does not exist for."""

    kind: str
    key: str  # input label, or the battery name
    call: Callable[[], object]
    trials: int = 1
    probe: bool = False
    aside: bool = False  # run outside the process whose peak RSS is measured


@dataclass
class Inputs:
    states: dict  # label -> BipartiteState
    load_ms: list  # wall time of each load_state call


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, *path]).generate_state(1)[0])


def fixture_order(root: pathlib.Path) -> list[str]:
    """Fixture labels, two random rank-2 states to each structured one
    (Bell, Werner, classical, product) until the rank-2 states run out."""
    names = sorted(p.stem for p in (root / "fixtures").glob("*.json"))
    rank2 = [n for n in names if n.startswith("rank2_")]
    other = [n for n in names if not n.startswith("rank2_")]
    out = []
    while rank2 or other:
        out += rank2[:2] + other[:1]
        rank2, other = rank2[2:], other[1:]
    return out


def _load(root: pathlib.Path, labels, timer) -> tuple[dict, list]:
    states, load_ms = {}, []
    for label in labels:
        t = timer()
        rho, _ = cli.load_state(str(root / "fixtures" / f"{label}.json"))
        load_ms.append((timer() - t) * 1e3)
        states[label] = rho
    return states, load_ms


# qudit_mixed: (n_A, n_B, rank) of its states.  n_B = 3 sends the entropy
# kernel through eigvalsh, n_A = 3 gives 9- and 16-parameter searches.  3x2
# states start at rank 3, so that no input admits the Koashi-Winter exact
# path.  One cheap 2x3 state to six n_A = 3 ones keeps the P and PE
# medians inside the n_A = 3 group, away from the edge between the two.
QUDIT_SHAPES = ((2, 3, 2), (3, 2, 3), (3, 3, 3), (3, 2, 6), (3, 3, 5), (3, 3, 6), (3, 3, 9))
# Rank-2 fixtures whose PE(4) solves land in the upper of two groups of
# evaluation counts: on rank2_03, rank2_05 and (at some seeds) rank2_08 PE
# converges in about a fifth fewer evaluations.  Repeated solves and probes
# use these seven, so that every median falls inside one group; a median on
# the edge between two groups jumps by the gap between them from seed to
# seed.  Probes run on these fixtures only, so that each probe kind times
# one population of similar cost.
UPPER_RANK2 = tuple(f"rank2_{k:02d}" for k in (0, 1, 2, 4, 6, 7, 9))


def load_inputs(workload: str, root: pathlib.Path, seed: int, timer) -> Inputs:
    """Load or generate the workload's inputs (what every CLI call pays
    before its first solve)."""
    if workload in ("fixtures_2q", "oracles"):
        states, load_ms = _load(root, fixture_order(root), timer)
        return Inputs(states, load_ms)
    if workload == "qudit_mixed":
        states = {}
        for i, (n_a, n_b, rank) in enumerate(QUDIT_SHAPES):
            states[f"ginibre_{n_a}x{n_b}_r{rank}_{i:02d}"] = dm.ginibre_state(
                n_a, n_b, rank, _sub_seed(seed, i)
            )
        probe_states, load_ms = _load(root, UPPER_RANK2, timer)
        states.update(probe_states)
        return Inputs(states, load_ms)
    raise ValueError(f"unknown workload {workload!r}")


def _config(restarts: int, seed: int) -> OptimizerConfig:
    return replace(OptimizerConfig(), restarts=restarts, seed=seed)


def _solve(kind: str, label: str, rho, cfg: OptimizerConfig, probe=False) -> Op:
    if kind == "P":
        call = lambda: dm.discord_P(rho, cfg)  # noqa: E731
    elif kind == "PE":
        # N = n_A + 1: 4 for the two-qubit fixtures, as the CLI's PE(4)
        call = lambda: dm.discord_PE(rho, rho.n_A + 1, cfg)  # noqa: E731
    elif kind == "two_sided":
        call = lambda: dm.discord_two_sided(rho, cfg=cfg)  # noqa: E731
    elif kind == "eof":
        call = lambda: dm.eof_via_decomposition(rho.state, rho.n_A, rho.n_B, 4, cfg)  # noqa: E731
    else:
        raise ValueError(kind)
    return Op(kind, label, call, probe=probe)


def _grid(kind: str, label: str, rho, probe=False) -> Op:
    if kind == "grid_qubit":
        call = lambda: dm.grid_discord_qubit(rho, GRID_QUBIT_RESOLUTION)  # noqa: E731
    else:
        call = lambda: dm.grid_discord_two_sided(rho, GRID_TWO_SIDED_RESOLUTION)  # noqa: E731
    return Op(kind, label, call, probe=probe, aside=probe)


def _battery_round(seed: int, index: int, probe=False) -> list[Op]:
    """One run_battery call of each battery, seeded by the round index."""
    trials = PROBE_BATTERY_TRIALS if probe else BATTERY_TRIALS
    ops = []
    for i, name in enumerate(BATTERIES):
        s = _sub_seed(seed, 1000 + index, i)
        ops.append(Op("battery", name, lambda name=name, s=s: dm.run_battery(name, trials, s),
                      trials, probe))
    return ops


def _spread(lists: list[list[list[Op]]]) -> list[Op]:
    """Merge lists of op groups so that each list's groups are evenly
    spaced through the result, the first group of every list first; a
    group's ops stay together and in order."""
    keyed = [
        (j / len(groups), k, group)
        for k, groups in enumerate(lists)
        for j, group in enumerate(groups)
    ]
    keyed.sort(key=lambda t: t[:2])
    return [op for _, _, group in keyed for op in group]


@dataclass
class Schedule:
    """One pass of a workload: lists of op groups, spread through the pass."""

    groups: list[list[list[Op]]]

    def ops(self, limit: int | None = None) -> list[Op]:
        return _spread([g[:limit] for g in self.groups])

    def head(self) -> int:
        """How many ops at the front of a pass hold one group of every kind."""
        return sum(len(g[0]) for g in self.groups)

    def trace_ops(self) -> list[Op]:
        """The traced run's fixed op list: the first groups of every kind."""
        return self.ops(TRACE_GROUPS)


def _probe_grids(states, n_qubit: int, n_two_sided: int) -> list[list[list[Op]]]:
    """Grid probes on the UPPER_RANK2 fixtures, cycling through them when
    more are asked for than there are fixtures."""
    qubit = itertools.islice(itertools.cycle(UPPER_RANK2), n_qubit)
    return [
        [[_grid("grid_qubit", k, states[k], True)] for k in qubit],
        [[_grid("grid_two_sided", k, states[k], True)] for k in UPPER_RANK2[:n_two_sided]],
    ]


def _probe_solves(kind: str, states, n: int) -> list[list[Op]]:
    """Probe solves run at a fixed optimizer seed: they time the same work
    at every workload seed, on a workload that does not exist for them."""
    cfg = _config(RESTARTS_2Q, PROBE_SEED)
    return [[_solve(kind, k, states[k], cfg, True)] for k in UPPER_RANK2[:n]]


def schedule(workload: str, inputs: Inputs, seed: int) -> Schedule:
    """The workload's pass.  The seed picks every optimizer seed, the
    battery seeds and (through ``load_inputs``) the qudit_mixed states.

    * ``fixtures_2q``: every fixture through P and PE(4), and the seven
      ``UPPER_RANK2`` fixtures a second time with another optimizer seed,
      so that P and PE have enough solves for a tail; two-sided and
      EOF(K=4) on those seven and two structured fixtures.  Solves on
      structured states take about half the evaluations of those on rank-2
      states; more rank-2 solves than structured ones keep the medians
      inside the rank-2 group instead of on the edge between the two.
      Probes: four battery rounds and the grids.
    * ``qudit_mixed``: each of the seven states through P and PE(n_A + 1).
      Probes: four battery rounds, two-sided and EOF on rank-2 fixtures,
      and the grids.
    * ``oracles``: five rounds of the four batteries, a
      ``grid_discord_qubit`` call on each fixture and five
      ``grid_discord_two_sided`` calls.  Probes: the four solves on rank-2
      fixtures.
    """
    states = inputs.states
    if workload == "fixtures_2q":
        labels = list(states)
        cfg, cfg2 = _config(RESTARTS_2Q, seed), _config(RESTARTS_2Q, _sub_seed(seed, 1))
        p_pe = [[_solve(k, label, states[label], cfg) for k in ("P", "PE")] for label in labels]
        other = [k for k in labels if not k.startswith("rank2_")]
        p_pe += [[_solve(k, label, states[label], cfg2) for k in ("P", "PE")] for label in UPPER_RANK2]
        ts_eof = [
            [_solve(k, label, states[label], cfg) for k in ("two_sided", "eof")]
            for label in labels if label in UPPER_RANK2 + tuple(other[:2])
        ]
        return Schedule([
            p_pe,
            ts_eof,
            [_battery_round(PROBE_SEED, i, True) for i in range(4)],
            *_probe_grids(states, 14, 3),
        ])
    if workload == "qudit_mixed":
        cfg = _config(RESTARTS_QUDIT, seed)
        labels = [k for k in states if k.startswith("ginibre_")]
        solves = [[_solve(k, label, states[label], cfg) for k in ("P", "PE")] for label in labels]
        return Schedule(
            [
                solves,
                [_battery_round(PROBE_SEED, i, True) for i in range(4)],
                _probe_solves("two_sided", states, 4),
                _probe_solves("eof", states, 4),
                *_probe_grids(states, 14, 4),
            ]
        )
    if workload == "oracles":
        labels = list(states)
        return Schedule([
            [_battery_round(seed, i) for i in range(5)],
            [[_grid("grid_qubit", k, states[k])] for k in labels],
            [[_grid("grid_two_sided", k, states[k])] for k in labels[:5]],
            _probe_solves("P", states, 7),
            _probe_solves("PE", states, 5),
            _probe_solves("two_sided", states, 6),
            _probe_solves("eof", states, 6),
        ])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fixtures_2q", "qudit_mixed", "oracles")
