"""Reference values and the per-op correctness checks.

Every reference comes from a route that shares no code with the optimizer:
the Bloch-grid oracles, Wootters' closed form (directly, or through the
Koashi-Winter relation) and Luo's closed form for Bell-diagonal states.
References are computed after the timed phases (and after peak RSS is
read), in parallel worker processes, and cached per checkout under
``.bench_build``, keyed by the library source, this file, workloads.py
(which fixes the grid resolutions) and the state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from discordium import (
    BipartiteState,
    DensityMatrix,
    PureState,
    eof_2q,
    grid_discord_qubit,
    grid_discord_two_sided,
    mutual_information,
    partial_trace,
    von_neumann,
)
from discordium.entangle import purify_with_qubit_ancilla

from workloads import GRID_QUBIT_RESOLUTION, GRID_TWO_SIDED_RESOLUTION

AGREE_TOL = 1e-4  # optimizer vs grid / Wootters / Koashi-Winter
BOUND_TOL = 1e-7  # -tol <= D <= I(A:B) + tol, two-sided <= grid + tol
CHAIN_TOL = 1e-5  # D_PE <= D_P + tol

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kw_rhs(rho: BipartiteState) -> float:
    """EOF(BC) + S(A) - S(AB) through a qubit purification: the exact
    Neumark-extended discord of an n_A x 2 state of rank <= 2."""
    psi = purify_with_qubit_ancilla(rho.state)
    regrouped = PureState(dim_pair=(rho.n_A, 2 * rho.n_B), amplitudes=psi.amplitudes)
    return (
        eof_2q(partial_trace(regrouped, "B")).eof
        + von_neumann(partial_trace(rho, "A"))
        - von_neumann(rho.state)
    )


def luo_discord(rho: BipartiteState) -> float | None:
    """Projective discord of a Bell-diagonal two-qubit state (Luo, PRA 77,
    042303 (2008)); None when the state is not Bell-diagonal."""
    m = rho.matrix
    eye = np.eye(2)
    local = [np.trace(m @ np.kron(s, eye)) for s in _PAULI]
    local += [np.trace(m @ np.kron(eye, s)) for s in _PAULI]
    corr = np.array([[np.trace(m @ np.kron(s, t)).real for t in _PAULI] for s in _PAULI])
    if max(abs(x) for x in local) > 1e-12 or np.abs(corr - np.diag(np.diag(corr))).max() > 1e-12:
        return None
    c = float(np.abs(np.diag(corr)).max())
    classical = sum(x / 2 * np.log2(x) for x in (1 - c, 1 + c) if x > 0)
    return mutual_information(rho) - classical


def closed_form_discord_P(rho: BipartiteState) -> float | None:
    """Projective discord of a two-qubit state where a closed form exists:
    zero without correlations, Koashi-Winter for rank <= 2 (the projective
    and extended discords coincide there), Luo for Bell-diagonal states."""
    if (rho.n_A, rho.n_B) != (2, 2):
        return None
    if mutual_information(rho) <= 1e-12:
        return 0.0
    if rho.state.rank <= 2:
        return kw_rhs(rho)
    return luo_discord(rho)


def _compute(kind: str, n_a: int, n_b: int, matrix: np.ndarray) -> float | None:
    rho = BipartiteState(n_a, n_b, DensityMatrix(matrix))
    if kind == "mi":
        return mutual_information(rho)
    if kind == "grid_qubit":
        return grid_discord_qubit(rho, GRID_QUBIT_RESOLUTION)
    if kind == "grid_two_sided":
        return grid_discord_two_sided(rho, GRID_TWO_SIDED_RESOLUTION)
    if kind == "eof_2q":
        return eof_2q(rho.state).eof
    if kind == "kw":
        return kw_rhs(rho)
    if kind == "dp_closed":
        return closed_form_discord_P(rho)
    raise ValueError(kind)


def needed_refs(kind: str, rho: BipartiteState) -> list[str]:
    """Reference kinds the check of an op of this kind on rho uses."""
    two_qubit = (rho.n_A, rho.n_B) == (2, 2)
    if kind == "P":
        return ["mi"] + (["grid_qubit"] if rho.n_A == 2 else [])
    if kind == "PE":
        return ["mi"] + (["kw"] if rho.n_B == 2 and rho.state.rank <= 2 else [])
    if kind == "two_sided":
        return ["mi"] + (["grid_two_sided"] if two_qubit else [])
    if kind == "eof":
        return ["eof_2q"] if two_qubit else []
    if kind in ("grid_qubit", "grid_two_sided"):
        return ["mi", "dp_closed"]
    return []


def _state_key(rho: BipartiteState) -> str:
    h = hashlib.sha256(f"{rho.n_A}x{rho.n_B}".encode())
    h.update(np.ascontiguousarray(rho.matrix).tobytes())
    return h.hexdigest()[:24]


def source_hash(root: pathlib.Path) -> str:
    """Hash of the library source, of this file and of workloads.py:
    references are recomputed whenever any of them changes."""
    here = pathlib.Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted((root / "src" / "discordium").glob("*.py")) + [
        here / "checks.py",
        here / "workloads.py",
    ]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def references(root: pathlib.Path, wanted: dict, workers: int) -> dict:
    """Values for ``wanted`` = {(label, ref_kind): state}, from the cache or
    computed in worker processes.  Returns {(label, ref_kind): value}."""
    cache_dir = root / ".bench_build"
    cache_dir.mkdir(exist_ok=True)
    cache_path = cache_dir / f"refs-{source_hash(root)}.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    keys = {(label, kind): f"{_state_key(rho)}:{kind}" for (label, kind), rho in wanted.items()}
    missing = sorted({k for k in keys.values() if k not in cache})
    if missing:
        by_key = {keys[lk]: rho for lk, rho in wanted.items()}
        with ProcessPoolExecutor(max_workers=max(1, min(workers, len(missing)))) as pool:
            futures = {
                k: pool.submit(_compute, k.split(":")[1], by_key[k].n_A, by_key[k].n_B,
                               np.array(by_key[k].matrix))
                for k in missing
            }
            for k, fut in futures.items():
                cache[k] = fut.result()
        tmp = cache_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(cache, sort_keys=True))
        tmp.replace(cache_path)
    return {lk: cache[k] for lk, k in keys.items()}


def check(rec: dict, refs: dict, p_values: dict) -> list[str]:
    """Failure reasons for one op record (empty when it passes).

    ``p_values`` maps an input label to the projective discord of the last
    P solve on it before this op, for the D_PE <= D_P check.
    """
    kind, label = rec["kind"], rec["key"]
    if kind == "battery":
        return [f"{rec['failures']} trials over the battery tolerance"] if rec["failures"] else []
    v = rec["value"]
    ref = lambda name: refs.get((label, name))  # noqa: E731
    bad = []
    if not np.isfinite(v):
        return [f"non-finite value {v}"]
    mi = ref("mi")
    if mi is not None and not -BOUND_TOL <= v <= mi + BOUND_TOL:
        bad.append(f"value {v:.10g} outside [0, I(A:B) = {mi:.10g}]")
    if kind == "P" and ref("grid_qubit") is not None and abs(v - ref("grid_qubit")) > AGREE_TOL:
        bad.append(f"D_P {v:.10g} vs grid {ref('grid_qubit'):.10g}")
    if kind == "PE":
        if ref("kw") is not None and abs(v - ref("kw")) > AGREE_TOL:
            bad.append(f"D_PE {v:.10g} vs Koashi-Winter {ref('kw'):.10g}")
        if label in p_values and v > p_values[label] + CHAIN_TOL:
            bad.append(f"D_PE {v:.10g} above D_P {p_values[label]:.10g}")
    if kind == "two_sided" and ref("grid_two_sided") is not None and v > ref("grid_two_sided") + BOUND_TOL:
        bad.append(f"two-sided {v:.10g} above grid {ref('grid_two_sided'):.10g}")
    if kind == "eof":
        if v < -BOUND_TOL:
            bad.append(f"EOF {v:.10g} below 0")
        if ref("eof_2q") is not None and abs(v - ref("eof_2q")) > AGREE_TOL:
            bad.append(f"EOF {v:.10g} vs Wootters {ref('eof_2q'):.10g}")
    closed = ref("dp_closed")
    if kind == "grid_qubit" and closed is not None and abs(v - closed) > AGREE_TOL:
        bad.append(f"grid D_P {v:.10g} vs closed form {closed:.10g}")
    # measuring B as well never recovers correlations, so two-sided >= D_P
    if kind == "grid_two_sided" and closed is not None and v < closed - BOUND_TOL:
        bad.append(f"grid two-sided {v:.10g} below closed-form D_P {closed:.10g}")
    return bad
