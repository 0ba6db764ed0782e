"""Outside-in tracing of the library's layers.

``Tracer.install`` replaces every public function of each module, plus the
named kernels, with a wrapper that records a span (name, parent span, op
index, start and end in ns) and restores the originals on ``uninstall``.
Functions bound with ``from .x import y`` live in several namespaces, so the
wrapper is installed at every import site found in the loaded
``discordium`` modules; installation fails if a site the per-layer metrics
rely on is not among them.  ``minimize_vector`` is wrapped so that the objective
it receives records one span per evaluation.  Spans stay in memory in flat
arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layer name -> module; the metric prefix of _parallel is "parallel".
LAYERS = {
    "optimize": "discordium.optimize",
    "discord": "discordium.discord",
    "entangle": "discordium.entangle",
    "measure": "discordium.measure",
    "entropy": "discordium.entropy",
    "qmat": "discordium.qmat",
    "verify": "discordium.verify",
    "parallel": "discordium._parallel",
    "cli": "discordium.cli",
}
# Private functions traced as kernels, beside each module's public ones.
KERNELS = {
    "discord": (
        "_pair_matrix",
        "_entropy_constant",
        "_conditional_blocks",
        "_branch_entropy_contrib",
        "_ensemble_term",
        "_classical_joint",
    ),
    "verify": ("_run_trial",),
}
# Import sites the per-layer metrics rely on; a missing one fails the run.
REQUIRED_SITES = (
    ("discord", "unitary_from_vector"),
    ("discord", "minimize_vector"),
    ("entangle", "unitary_from_vector"),
    ("entangle", "minimize_vector"),
    ("entangle", "_ensemble_term"),
    ("verify", "_conditional_blocks"),
    ("verify", "_branch_entropy_contrib"),
    ("verify", "_run_trial"),
    ("package", "discord_P"),
    ("package", "run_battery"),
)


def _site(module_name: str) -> str:
    if module_name == "discordium":
        return "package"
    short = module_name.rsplit(".", 1)[1]
    return "parallel" if short == "_parallel" else short


def _variant(func: str, args) -> str:
    if func == "_branch_entropy_contrib":
        return "[2x2]" if args[0].shape[-1] == 2 else "[eigvalsh]"
    if func == "_run_trial":
        return f"[{args[0]}]"
    return ""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_index = -1
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_index)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, orig, layer: str, site: str):
        tracer, func = self, orig.__name__
        base = f"{layer}.{func}"
        fixed = self._id(f"{base}@{site}")
        split = func in ("_branch_entropy_contrib", "_run_trial")
        objective_name = f"{site}.objective@{site}"

        def traced_objective(objective):
            nid = tracer._id(objective_name)

            def wrapped(x):
                sid = tracer._open(nid)
                try:
                    return objective(x)
                finally:
                    tracer._close(sid)

            return wrapped

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            nid = tracer._id(f"{base}{_variant(func, args)}@{site}") if split else fixed
            if func == "minimize_vector":
                args = (traced_objective(args[0]),) + args[1:]
            sid = tracer._open(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    def install(self) -> None:
        targets = {}  # id(function) -> (function, layer)
        for layer, mod_name in LAYERS.items():
            for name, obj in vars(importlib.import_module(mod_name)).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and (not name.startswith("_") or name in KERNELS.get(layer, ()))
                ):
                    targets[id(obj)] = (obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "discordium" or mod_name.startswith("discordium."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in targets:
                        orig, layer = targets[id(obj)]
                        setattr(mod, attr, self._wrap(orig, layer, _site(mod_name)))
                        self._patches.append((mod, attr, orig))
        patched = {(_site(mod.__name__), attr) for mod, attr, _ in self._patches}
        missing = [f"{site}.{attr}" for site, attr in REQUIRED_SITES if (site, attr) not in patched]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracing missed import sites: {missing}")

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


class Spans:
    """Query helper over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.op = a["op"]
        self.us = (a["end_ns"] - a["start_ns"]) / 1e3
        parsed = []
        for full in tracer.names:
            qual, site = full.split("@")
            layer, func = qual.split(".", 1)
            variant = ""
            if func.endswith("]"):
                func, variant = func[:-1].split("[")
            parsed.append((layer, func, variant, site))
        self._parsed = parsed
        self._name = a["name"]

    def mask(self, func=None, variant=None, site=None, layer=None) -> np.ndarray:
        ids = [
            i for i, (ly, fn, var, st) in enumerate(self._parsed)
            if (func is None or fn == func)
            and (variant is None or var == variant)
            and (site is None or st == site)
            and (layer is None or ly == layer)
        ]
        return np.isin(self._name, ids)

    def us_of(self, **kw) -> np.ndarray:
        return self.us[self.mask(**kw)]

    def per_op(self, n_ops: int, **kw) -> np.ndarray:
        """Span count of each op index."""
        return np.bincount(self.op[self.mask(**kw)], minlength=n_ops)


# unitary_from_vector calls per solve, given the solve's evaluations: P and
# PE rebuild the best basis once at the end, two-sided builds two unitaries
# per evaluation and rebuilds both, EOF-decomposition never rebuilds.
UNITARY_CALLS = {
    "P": lambda e: e + 1,
    "PE": lambda e: e + 1,
    "two_sided": lambda e: 2 * e + 2,
    "eof": lambda e: e,
}


def self_check(spans: Spans, records: list[dict], untraced: list[dict]) -> None:
    """Objective spans must equal each solve's evaluation count, and
    unitary_from_vector spans the count the solve's code implies.  Tracing
    must not change any result: values and counts match the untraced pass."""
    n = len(records)
    objective = spans.per_op(n, func="objective")
    unitary = spans.per_op(n, func="unitary_from_vector")
    bad = []
    for i, (rec, plain) in enumerate(zip(records, untraced)):
        for field in ("value", "evals", "failures", "worst_violation"):
            if rec.get(field) != plain.get(field):
                bad.append(f"op {i} {rec['kind']}({rec['key']}): traced {field} "
                           f"{rec.get(field)} != untraced {plain.get(field)}")
        if rec["kind"] not in UNITARY_CALLS:
            continue
        e = rec["evals"]
        if objective[i] != e or unitary[i] != UNITARY_CALLS[rec["kind"]](e):
            bad.append(
                f"op {i} {rec['kind']}({rec['key']}): {objective[i]} objective spans, "
                f"{unitary[i]} unitary spans, {e} evaluations"
            )
    if bad:
        raise RuntimeError("trace self-check failed: " + "; ".join(bad))


def _median(x) -> float:
    return float(np.median(x)) if len(x) else 0.0


def layer_metrics(
    spans: Spans,
    traced: list[dict],
    untraced: list[dict],
    fanout: dict[int, dict],
    batteries: tuple[str, ...],
    workers: int,
) -> dict:
    """Per-layer metrics of one traced pass over the same op list as the
    untraced pass before it.  Both run with the worker cap at 1; ``fanout``
    maps the index of each battery op that the untraced end-to-end run fans
    out (the primary ones; probes run in-process) to its run, untraced, at
    the cap of ``workers``."""
    n = len(traced)
    attempted = sum(r["trials"] for r in traced)
    solves = [r for r in traced if r["kind"] in UNITARY_CALLS]
    evals = sum(r["evals"] for r in solves)
    restarts = sum(r["restarts"] for r in solves)
    solve_us = sum(r["seconds"] for r in solves) * 1e6
    unitary = spans.us_of(func="unitary_from_vector")
    nm = spans.us_of(func="minimize_vector")
    objective = spans.us_of(func="objective")
    battery_ops = [i for i, r in enumerate(traced) if r["kind"] == "battery"]
    trials = sum(traced[i]["trials"] for i in battery_ops)
    vn_calls = spans.per_op(n, func="von_neumann")
    serial_s = sum(untraced[i]["seconds"] for i in fanout)
    fanout_s = sum(r["seconds"] for r in fanout.values())
    m = {
        "optimize.evals_per_solve": evals / len(solves) if solves else 0.0,
        "optimize.evals_per_restart": evals / restarts if restarts else 0.0,
        "optimize.restart_agree_ratio": (
            sum(r["agree"] for r in solves) / restarts if restarts else 0.0
        ),
        "optimize.unitary_us": _median(unitary),
        "optimize.unitary_share": unitary.sum() / solve_us if solve_us else 0.0,
        "optimize.nm_self_share": (nm.sum() - objective.sum()) / nm.sum() if nm.size else 0.0,
        "discord.objective_us": _median(spans.us_of(func="objective", site="discord")),
        "discord.cond_blocks_us": _median(spans.us_of(func="_conditional_blocks")),
        "discord.entropy_2x2_us": _median(
            spans.us_of(func="_branch_entropy_contrib", variant="2x2")
        ),
        "discord.entropy_eigvalsh_us": _median(
            spans.us_of(func="_branch_entropy_contrib", variant="eigvalsh")
        ),
        "entangle.ensemble_term_us": _median(spans.us_of(func="_ensemble_term", site="entangle")),
        "entangle.wootters_us": _median(spans.us_of(func="eof_2q")),
        "measure.apply_one_sided_us": _median(spans.us_of(func="apply_one_sided")),
        "measure.branch_ensemble_us": _median(spans.us_of(func="branch_ensemble")),
        "entropy.von_neumann_us": _median(spans.us_of(func="von_neumann")),
        "entropy.von_neumann_calls_per_trial": (
            sum(vn_calls[i] for i in battery_ops) / trials if trials else 0.0
        ),
        "qmat.partial_trace_us": _median(spans.us_of(func="partial_trace")),
    }
    for b in batteries:
        m[f"verify.trial_ms.{b}"] = _median(spans.us_of(func="_run_trial", variant=b)) / 1e3
    # in-process (cap 1) run_battery time over workers x fanned-out time
    m["parallel.efficiency"] = serial_s / (workers * fanout_s) if fanout_s else 0.0
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.calls_per_op"] = int(spans.mask(layer=layer).sum()) / attempted
    ratios = [t["seconds"] / u["seconds"] for t, u in zip(traced, untraced)]
    m["bench.trace_overhead"] = _median(ratios) - 1.0
    return m
