"""Command-line front end: state I/O, entropy/discord/EOF commands and the
verification batteries.

State files are JSON with explicit [re, im] pairs so fixtures stay
hand-auditable:

    {"dims": [n_A, n_B], "label": "...", "matrix": [[[re, im], ...], ...]}

Reports echo their inputs (hash + optimizer config), carry values in bits
to 12 significant digits, and serialize the optimizing measurement so it
can be re-evaluated.  Exit codes: 0 success, 1 verification failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .discord import (
    discord_P,
    discord_PE,
    discord_R,
    discord_two_sided,
)
from .entangle import eof_2q, eof_via_decomposition, koashi_winter_residual
from .entropy import conditional_entropy, mutual_information, von_neumann
from .measure import KrausSet, NeumarkBasis, ProjectiveBasis, RankOnePOVM
from .optimize import OptimizerConfig
from .qmat import (
    BipartiteState, DensityMatrix, bell_state, classical_state, ginibre_density,
    ginibre_state, partial_trace, product_state, werner,
)
from .verify import _KW_N, _PE_CFG, BATTERY_NAMES, BATTERY_TOLERANCES, run_battery


class InputError(Exception):
    """Bad usage or unreadable/invalid input (exit code 2)."""


# -- JSON helpers --------------------------------------------------------------

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _value_to_json(x: float):
    if math.isinf(x):
        return "inf"
    return float(f"{x:.12g}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def load_state(path: str) -> tuple[BipartiteState, str]:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError or a NaN/Infinity literal
        raise InputError(f"parse error in {path}: {exc}")
    try:
        n_a, n_b = (int(d) for d in doc["dims"])
        matrix = _matrix_from_json(doc["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed state file {path}: {exc}")
    if matrix.shape != (n_a * n_b, n_a * n_b):
        raise InputError(f"dims/matrix mismatch: dims {n_a}x{n_b} vs matrix {matrix.shape}")
    try:
        state = BipartiteState(n_a, n_b, DensityMatrix(matrix))
    except ValueError as exc:
        raise InputError(f"invalid state in {path}: {exc}")
    return state, doc.get("label", path)


def save_state(rho: BipartiteState, path: str, label: str | None = None) -> None:
    doc = {"dims": [rho.n_A, rho.n_B], "matrix": _matrix_to_json(rho.matrix)}
    if label:
        doc["label"] = label
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def state_hash(rho: BipartiteState) -> str:
    doc = {"dims": [rho.n_A, rho.n_B], "matrix": _matrix_to_json(rho.matrix)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def serialize_measurement(m) -> dict:
    if isinstance(m, ProjectiveBasis):
        return {"type": "projective", "dim": m.dim, "basis": _matrix_to_json(m.basis)}
    if isinstance(m, RankOnePOVM):
        return {"type": "rank1_povm", "dim": m.dim, "vectors": _matrix_to_json(m.vectors)}
    if isinstance(m, NeumarkBasis):
        return {
            "type": "neumark",
            "n_A": m.n_A,
            "N": m.N,
            "extension_basis": _matrix_to_json(m.extension_basis),
        }
    if isinstance(m, KrausSet):
        return {
            "type": "kraus",
            "dim": m.dim,
            "operators": [_matrix_to_json(a) for a in m.operators],
        }
    if isinstance(m, tuple) and len(m) == 2:
        return {
            "type": "neumark_pair",
            "A": serialize_measurement(m[0]),
            "B": serialize_measurement(m[1]),
        }
    raise TypeError(f"cannot serialize measurement of type {type(m).__name__}")


def deserialize_measurement(doc: dict):
    kind = doc["type"]
    if kind == "projective":
        return ProjectiveBasis(doc["dim"], _matrix_from_json(doc["basis"]))
    if kind == "rank1_povm":
        return RankOnePOVM(doc["dim"], _matrix_from_json(doc["vectors"]))
    if kind == "neumark":
        return NeumarkBasis(doc["n_A"], doc["N"], _matrix_from_json(doc["extension_basis"]))
    if kind == "kraus":
        return KrausSet(doc["dim"], tuple(_matrix_from_json(a) for a in doc["operators"]))
    if kind == "neumark_pair":
        return (deserialize_measurement(doc["A"]), deserialize_measurement(doc["B"]))
    raise ValueError(f"unknown measurement type {kind!r}")


def _report(label, rho, quantity, variant, value, measurement=None, config=None) -> dict:
    return {
        "input": {"label": label, "sha256": state_hash(rho)},
        "quantity": quantity,
        "variant": variant,
        "value_bits": value,
        "measurement": serialize_measurement(measurement) if measurement is not None else None,
        "config": dataclasses.asdict(config) if config is not None else None,
        "library_version": __version__,
    }


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_table(rows: list[tuple[str, object]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")


# -- subcommands ---------------------------------------------------------------

def cmd_entropy(args) -> int:
    rho, label = load_state(args.state)
    values = {
        "S_AB": von_neumann(rho.state),
        "S_A": von_neumann(partial_trace(rho, "A")),
        "S_B": von_neumann(partial_trace(rho, "B")),
        "conditional_entropy": conditional_entropy(rho),
        "mutual_information": mutual_information(rho),
    }
    values = {k: _value_to_json(v) for k, v in values.items()}
    if args.table:
        _emit_table(sorted(values.items()))
        return 0
    _emit(_report(label, rho, "entropy", "all", values), args)
    return 0


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)


def cmd_discord(args) -> int:
    rho, label = load_state(args.state)
    cfg = _optimizer_config(args)
    n, n_b = args.N, args.N_B
    if n is not None and args.variant == "P":
        raise InputError("--N does not apply to --variant P")
    if n_b is not None and args.variant != "two-sided":
        raise InputError(f"--N-B applies only to --variant two-sided, not {args.variant}")
    if n is not None and n < rho.n_A:
        raise InputError(f"--N {n} is below n_A = {rho.n_A}")
    if n_b is not None and n_b < rho.n_B:
        raise InputError(f"--N-B {n_b} is below n_B = {rho.n_B}")
    if args.variant == "P":
        res = discord_P(rho, cfg)
    elif args.variant == "R":
        res = discord_R(rho, n, cfg)
    elif args.variant == "PE":
        res = discord_PE(rho, n, cfg)
    else:  # two-sided
        res = discord_two_sided(rho, n, n_b, cfg)
    if res.path == "optimizer" and cfg.restarts > 1 and res.outcome.agreeing_restarts == 1:
        print(f"warning: only 1 of {cfg.restarts} restarts reached the best value; "
              "the search may have missed the minimum (try more --restarts or --max-iters)",
              file=sys.stderr)
    if args.table:
        _emit_table(
            [
                ("variant", res.variant),
                ("value_bits", f"{res.value:.12g}"),
                ("path", res.path),
                ("closed_form", res.closed_form or "null"),
                ("restarts", cfg.restarts),
                ("evaluations", res.outcome.evaluations),
                ("agreeing_restarts", res.outcome.agreeing_restarts),
                ("converged", res.outcome.converged),
            ]
        )
        return 0
    doc = _report(label, rho, "discord", res.variant, _value_to_json(res.value), res.measurement, cfg)
    doc["path"] = res.path
    doc["closed_form"] = res.closed_form
    doc["agreeing_restarts"] = res.outcome.agreeing_restarts
    doc["restart_evaluations"] = list(res.outcome.restart_evaluations)
    _emit(doc, args)
    return 0


def cmd_eof(args) -> int:
    rho, label = load_state(args.state)
    if rho.state.dim != 4:
        raise InputError(f"EOF needs a two-qubit state, got dim {rho.state.dim}")
    if args.method == "wootters":
        res = eof_2q(rho.state)
        cfg = None
    else:
        cfg = _optimizer_config(args)
        res = eof_via_decomposition(rho.state, 2, 2, args.K, cfg)
    if args.table:
        rows = [("method", res.method), ("eof_bits", f"{res.eof:.12g}")]
        if res.concurrence is not None:
            rows.insert(1, ("concurrence", f"{res.concurrence:.12g}"))
        _emit_table(rows)
        return 0
    doc = _report(label, rho, "eof", res.method, _value_to_json(res.eof), None, cfg)
    doc["concurrence"] = None if res.concurrence is None else _value_to_json(res.concurrence)
    _emit(doc, args)
    return 0


def _kw_check_solve(args) -> tuple[int, OptimizerConfig]:
    """The extension dimension and search config of --kw-check: the
    koashi_winter battery's unless a flag overrides one."""
    cfg = OptimizerConfig(
        restarts=_PE_CFG.restarts if args.restarts is None else args.restarts,
        max_iters=_PE_CFG.max_iters if args.max_iters is None else args.max_iters,
        seed=args.seed,
    )
    return (_KW_N if args.N is None else args.N), cfg


def cmd_verify(args) -> int:
    if args.kw_check:
        rho, label = load_state(args.kw_check)
        residual = koashi_winter_residual(rho, *_kw_check_solve(args))
        tol = BATTERY_TOLERANCES["koashi_winter"] if args.tolerance is None else args.tolerance
        ok = residual <= tol
        if args.json:
            _emit(
                {
                    "input": {"label": label, "sha256": state_hash(rho)},
                    "quantity": "koashi_winter_residual",
                    "value_bits": _value_to_json(residual),
                    "tolerance": tol,
                    "passed": ok,
                    "library_version": __version__,
                },
                args,
            )
        else:
            print(f"koashi_winter_residual  {residual:.6g}  (tolerance {tol:g})  "
                  f"{'ok' if ok else 'FAIL'}")
        return 0 if ok else 1
    if not (args.all or args.battery):
        raise InputError("choose --battery NAME, --all, or --kw-check FILE")
    for flag, value in (("--N", args.N), ("--restarts", args.restarts),
                        ("--max-iters", args.max_iters)):
        if value is not None:
            raise InputError(f"{flag} applies only to --kw-check; a battery sets its own")
    names = list(BATTERY_NAMES) if args.all else [args.battery]
    reports, seconds = [], []
    for name in names:
        t0 = time.perf_counter()
        reports.append(run_battery(name, args.trials, args.seed, args.tolerance))
        seconds.append(time.perf_counter() - t0)
    if args.json:
        _emit(
            {
                "batteries": [
                    {
                        "name": r.name,
                        "trials": r.trials,
                        "failures": r.failures,
                        "worst_violation": _value_to_json(r.worst_violation),
                        "seeds_of_failures": list(r.seeds_of_failures),
                        "seconds": s,
                    }
                    for r, s in zip(reports, seconds)
                ],
                "library_version": __version__,
            },
            args,
        )
    else:
        print(f"{'battery':<32}{'trials':>8}{'failures':>10}{'seconds':>10}  worst violation")
        for r, s in zip(reports, seconds):
            print(f"{r.name:<32}{r.trials:>8}{r.failures:>10}{s:>10.3f}  {r.worst_violation:.3g}")
    return 1 if any(r.failures for r in reports) else 0


def cmd_make(args) -> int:
    kind = args.kind
    if kind == "bell":
        rho = bell_state()
    elif kind == "werner":
        if args.p is None:
            raise InputError("--kind werner needs --p")
        rho = werner(args.p)
    elif kind == "ginibre":
        if args.dims is None or args.rank is None:
            raise InputError("--kind ginibre needs --dims N_A N_B and --rank")
        n_a, n_b = args.dims
        rho = ginibre_state(n_a, n_b, args.rank, args.seed)
    elif kind == "classical":
        if args.probs is None:
            raise InputError("--kind classical needs --probs")
        probs = args.probs
        n_b = args.dims[1] if args.dims else len(probs)
        branches = []
        for a in range(len(probs)):
            proj = np.zeros((n_b, n_b), dtype=complex)
            proj[a % n_b, a % n_b] = 1.0
            branches.append(proj)
        rho = classical_state(probs, branches)
    else:  # product
        if args.dims is None:
            raise InputError("--kind product needs --dims N_A N_B")
        n_a, n_b = args.dims
        rng = np.random.default_rng(args.seed)
        rho = product_state(ginibre_density(n_a, n_a, rng), ginibre_density(n_b, n_b, rng))
    save_state(rho, args.output, label=args.label or kind)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordium",
        description="Quantum discord, entanglement of formation and theorem batteries.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_optimizer_flags(p):
        defaults = OptimizerConfig()
        p.add_argument("--restarts", type=int, default=defaults.restarts)
        p.add_argument("--max-iters", dest="max_iters", type=int, default=defaults.max_iters)
        p.add_argument("--seed", type=int, default=defaults.seed)

    p = sub.add_parser("entropy", help="entropies and mutual information of a state file")
    p.add_argument("state")
    p.add_argument("--table", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("discord", help="discord of a state file under one measurement class")
    p.add_argument("state")
    p.add_argument("--variant", choices=["P", "R", "PE", "two-sided"], default="P")
    p.add_argument("--N", type=int, default=None, help="extension dimension (PE/R/two-sided)")
    p.add_argument("--N-B", dest="N_B", type=int, default=None,
                   help="B-side extension dimension (two-sided)")
    add_optimizer_flags(p)
    p.add_argument("--table", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("eof", help="two-qubit entanglement of formation")
    p.add_argument("state")
    p.add_argument("--method", choices=["wootters", "decomposition"], default="wootters")
    p.add_argument("--K", type=int, default=4, help="decomposition size")
    add_optimizer_flags(p)
    p.add_argument("--table", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eof)

    p = sub.add_parser("verify", help="run theorem batteries or a Koashi-Winter check")
    p.add_argument("--battery", choices=list(BATTERY_NAMES), default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--kw-check", dest="kw_check", default=None, metavar="STATE")
    # --kw-check only; it solves as the koashi_winter battery does unless told otherwise
    p.add_argument("--N", type=int, default=None,
                   help=f"extension dimension for --kw-check (default {_KW_N})")
    p.add_argument("--restarts", type=int, default=None,
                   help=f"--kw-check restarts (default {_PE_CFG.restarts})")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None,
                   help=f"--kw-check iteration budget (default {_PE_CFG.max_iters})")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make", help="write a state file")
    p.add_argument("--kind", choices=["bell", "werner", "classical", "product", "ginibre"],
                   required=True)
    p.add_argument("--p", type=float, default=None, help="werner mixing parameter")
    p.add_argument("--dims", type=int, nargs=2, default=None, metavar=("N_A", "N_B"))
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--probs", type=float, nargs="+", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_make)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
