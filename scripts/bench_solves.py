"""Time the four optimizer solves before and after a change, and write the
record as ``BENCH_<n>.json``.

    python scripts/bench_solves.py --before OLD_CHECKOUT/src -o BENCH_2.json

Each side runs in its own interpreter with ``PYTHONPATH`` pointing at one
``src`` directory (``--after`` defaults to this checkout's) and BLAS pinned
to one thread.  For every fixture below and every solve (``discord_P``,
``discord_PE(N=4)``, ``discord_two_sided``, ``eof_via_decomposition(K=4)``)
it records the value (as ``float.hex``), the evaluation count, the path the
solve took and the median wall time over ``--repeats`` rounds.  P and PE
run the search (``search=True``): these rank-2 fixtures would otherwise
take the closed-form path, which measures no search.  Beside them run the
benchmark's n_A = 3 ``qudit_mixed`` states at workload seed 0 through
``discord_P`` and ``discord_PE(N=4)`` at that workload's restarts.  The
fixtures, states and restarts are read from ``bench/workloads.py``
(``UPPER_RANK2``, ``QUDIT_SHAPES``, ``RESTARTS_QUDIT``, ``_sub_seed``), so
the record always covers the benchmark's inputs.  The same fixtures also
run through the two Bloch-grid oracles at the benchmark's resolutions
(``GRID_QUBIT_RESOLUTION``, ``GRID_TWO_SIDED_RESOLUTION``); their rows
count grid points (bases, or basis pairs) as evaluations and take the path
``grid``.  Last come the benchmark's four optimizer-free batteries
(``BATTERIES``, ``BATTERY_TRIALS`` trials at ``--seed``), run in-process
(``DISCORDIUM_THREADS=1``); their rows carry the worst violation as the
value, the trial count as evaluations, the failure count and the median
milliseconds per trial, and take the path ``battery``.
Each round runs the old side and then the new, so that a slow spell of
the host hits both alike.  Values and evaluation counts are deterministic
and compare across machines; wall times do not.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOLVES = ("P", "PE(4)", "two_sided", "eof(K=4)")
QUDIT_SOLVES = ("P", "PE(4)")
# BLAS threads, and the batteries' process fan-out, pinned to one
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DISCORDIUM_THREADS")


def _measure(restarts: int, seed: int) -> list[dict]:
    """Runs inside the child interpreter, against whichever library it imports."""
    import time

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import (
        BATTERIES,
        BATTERY_TRIALS,
        GRID_QUBIT_RESOLUTION,
        GRID_TWO_SIDED_RESOLUTION,
        QUDIT_SHAPES,
        RESTARTS_QUDIT,
        UPPER_RANK2,
        _sub_seed,
    )

    from discordium.cli import load_state
    from discordium.discord import _discord_P, _discord_PE, discord_two_sided
    from discordium.entangle import eof_via_decomposition
    from discordium.optimize import OptimizerConfig
    from discordium.qmat import ginibre_state
    from discordium.verify import grid_discord_qubit, grid_discord_two_sided, run_battery

    def calls(restarts):
        cfg = OptimizerConfig(restarts=restarts, seed=seed)
        return {
            "P": lambda rho: _discord_P(rho, cfg, search=True),
            "PE(4)": lambda rho: _discord_PE(rho, 4, cfg, search=True),
            "two_sided": lambda rho: discord_two_sided(rho, cfg=cfg),
            "eof(K=4)": lambda rho: eof_via_decomposition(rho.state, 2, 2, K=4, cfg=cfg),
        }

    fixtures = [(name, load_state(str(ROOT / "fixtures" / f"{name}.json"))[0]) for name in UPPER_RANK2]
    jobs = [(name, rho, restarts, SOLVES) for name, rho in fixtures]
    for i, (n_a, n_b, rank) in enumerate(QUDIT_SHAPES):
        if n_a == 3:  # the qudit_mixed states at workload seed 0
            rho = ginibre_state(n_a, n_b, rank, _sub_seed(0, i))
            label = f"ginibre_{n_a}x{n_b}_r{rank}_{i:02d}"
            jobs.append((label, rho, RESTARTS_QUDIT, QUDIT_SOLVES))
    rows = []
    for name, rho, job_restarts, solves in jobs:
        call = calls(job_restarts)
        for solve in solves:
            t0 = time.perf_counter()
            res = call[solve](rho)
            wall = time.perf_counter() - t0
            value = res.eof if solve.startswith("eof") else res.value
            rows.append({
                "fixture": name,
                "solve": solve,
                "restarts": job_restarts,
                "value_hex": float(value).hex(),
                "evaluations": res.outcome.evaluations,
                # EOF results, and discord results of a library without the
                # exact path, carry no path: they come from the search
                "path": getattr(res, "path", "optimizer"),
                "wall_s": wall,
            })
    grids = {  # oracle, resolution, grid points (bases, or basis pairs)
        "grid_qubit": (grid_discord_qubit, GRID_QUBIT_RESOLUTION, GRID_QUBIT_RESOLUTION**2),
        "grid_two_sided": (
            grid_discord_two_sided, GRID_TWO_SIDED_RESOLUTION, GRID_TWO_SIDED_RESOLUTION**4
        ),
    }
    for name, rho in fixtures:
        for solve, (oracle, resolution, points) in grids.items():
            t0 = time.perf_counter()
            value = oracle(rho, resolution)
            wall = time.perf_counter() - t0
            rows.append({
                "fixture": name,
                "solve": solve,
                "restarts": 0,
                "value_hex": value.hex(),
                "evaluations": points,
                "path": "grid",
                "wall_s": wall,
            })
    for name in BATTERIES:
        t0 = time.perf_counter()
        report = run_battery(name, BATTERY_TRIALS, seed)
        wall = time.perf_counter() - t0
        rows.append({
            "fixture": name,
            "solve": "battery",
            "restarts": 0,
            "value_hex": report.worst_violation.hex(),
            "evaluations": report.trials,
            "path": "battery",
            "failures": report.failures,
            "wall_s": wall,
        })
    return rows


def _run_side(src: str, args) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    env.update({var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--child",
         "--restarts", str(args.restarts), "--seed", str(args.seed)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _merge(rounds: list[list[dict]]) -> list[dict]:
    """One row per solve: the first round's value and count, which every
    round must repeat, and the median wall time."""
    merged = []
    for rows in zip(*rounds):
        first = rows[0]
        key = ("value_hex", "evaluations", "path", "failures")
        if any(tuple(r.get(k) for k in key) != tuple(first.get(k) for k in key) for r in rows):
            raise RuntimeError(f"{first['fixture']} {first['solve']}: rounds disagree")
        merged.append(dict(first, wall_s=statistics.median(r["wall_s"] for r in rows)))
    return merged


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", help="src directory of the old checkout")
    p.add_argument("--after", default=str(ROOT / "src"))
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        print(json.dumps(_measure(args.restarts, args.seed)))
        return
    if not (args.before and args.output):
        p.error("--before and -o are required")
    rounds = [(_run_side(args.before, args), _run_side(args.after, args))
              for _ in range(args.repeats)]
    before = _merge([b for b, _ in rounds])
    after = _merge([a for _, a in rounds])
    rows = []
    for b, a in zip(before, after):
        fields = ("value_hex", "evaluations", "path", "wall_s")
        if a["path"] == "battery":
            for side in (b, a):
                side["ms_per_trial"] = side["wall_s"] / side["evaluations"] * 1e3
            fields += ("failures", "ms_per_trial")
        rows.append({
            "fixture": a["fixture"],
            "solve": a["solve"],
            "restarts": a["restarts"],
            "before": {k: b[k] for k in fields},
            "after": {k: a[k] for k in fields},
            "abs_value_change": abs(float.fromhex(a["value_hex"]) - float.fromhex(b["value_hex"])),
            # null where the after side ran no evaluations (the exact path)
            "eval_ratio": b["evaluations"] / a["evaluations"] if a["evaluations"] else None,
            "time_ratio": b["wall_s"] / a["wall_s"],
        })
    doc = {
        "config": {"restarts": args.restarts, "seed": args.seed,
                   "repeats": args.repeats, "blas_threads": 1},
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }
    pathlib.Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    for r in rows:
        print(f"{r['fixture']:17s} {r['solve']:10s} {r['after']['path']:9s} "
              f"evals {r['before']['evaluations']:5d} -> "
              f"{r['after']['evaluations']:5d}  time {r['before']['wall_s']*1e3:7.1f} -> "
              f"{r['after']['wall_s']*1e3:7.1f} ms  |dvalue| {r['abs_value_change']:.1e}")


if __name__ == "__main__":
    main()
