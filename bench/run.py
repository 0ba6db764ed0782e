"""The discordium benchmark.

    python3 bench/run.py --workload {fixtures_2q,qudit_mixed,oracles}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit.  The full report (environment, every op's value,
evaluation count and time, and every check that failed) is written to
``.bench_build/reports/``.

``--trace 0`` measures the end-to-end metrics, each op's time scaled to a
reference host speed by calibration slices timed between ops
(``hostspeed.py``).  ``--trace 1`` runs a fixed op list twice, untraced and
then traced, and reports the per-layer metrics; their spans are written to
``.bench_build/trace/``.  Metric names and units come from
``BENCHMARK.json``.  See README.md for what each workload and metric is
for.
"""

from __future__ import annotations

import os
import pathlib
import sys

# One BLAS/OpenMP thread: the kernels work on 2x2-9x9 matrices, and extra
# threads only add scheduling noise.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

SETUP_REPEATS = 3
# A pass that runs past this multiple of --seconds (on a host much slower
# than the reference, or at a small --seconds) is cut short, so that a run's
# length stays bounded; never before one op group of every kind has run.
OVERRUN = 1.15
# Restarts within this of the best count as agreeing with it.
RESTART_AGREE_TOL = 1e-8
# Fewest samples for which the tail (ten samples above it) is not below the median.
TAIL_MIN_SAMPLES = 21
KIND_METRIC = {"P": "discord_P_s", "PE": "discord_PE_s", "two_sided": "two_sided_s", "eof": "eof_decomp_s"}


def metric_units(spec_path: pathlib.Path) -> dict:
    """{"end_to_end" | "per_layer": {metric name: unit}} from BENCHMARK.json."""
    spec = json.loads(spec_path.read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_op(op, tracer=None, index=-1) -> dict:
    if tracer is not None:
        tracer.op_index = index
    t = time.perf_counter()
    out = op.call()
    seconds = time.perf_counter() - t
    rec = {"kind": op.kind, "key": op.key, "trials": op.trials, "seconds": seconds, "probe": op.probe}
    if op.kind == "battery":
        rec.update(failures=out.failures, worst_violation=out.worst_violation)
        return rec
    if op.kind in KIND_METRIC:
        value = out.eof if op.kind == "eof" else out.value
        outcome = out.outcome
        best = min(outcome.restart_values)
        rec.update(
            value=float(value),
            evals=outcome.evaluations,
            restarts=len(outcome.restart_values),
            agree=sum(abs(v - best) <= RESTART_AGREE_TOL for v in outcome.restart_values),
        )
    else:
        rec["value"] = float(out)
    return rec


def run_scaled(op, cal, before: float) -> tuple[dict, float]:
    """Run ``op`` and scale its time to the reference host speed by the
    calibration slice ``before`` it and one after it, which is returned to
    serve as the next op's ``before``."""
    rec = run_op(op)
    after = cal.slice()
    rec["ref_s"] = hostspeed.scale(rec["seconds"], before, after)
    return rec, after


class Aside:
    """A forked helper process for the ops marked ``aside`` (the grid probes
    of fixtures_2q and qudit_mixed), so that their memory does not count
    towards this process's peak RSS.  The caller still waits for each op:
    the loop stays closed, with one caller.  The helper times its own
    calibration slices, because it may run on another core than the caller,
    and the two cores of a shared host are not contended alike."""

    def __init__(self, ops):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=self._serve, args=(child, ops))
        self._proc.start()
        child.close()
        self._index = {id(op): i for i, op in enumerate(ops)}

    @staticmethod
    def _serve(conn, ops):
        cal = hostspeed.Calibrator()
        while (i := conn.recv()) is not None:
            conn.send(run_scaled(ops[i], cal, cal.slice())[0])

    def run(self, op) -> dict:
        self._conn.send(self._index[id(op)])
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:  # the helper has died; its error is already raised
            pass
        self._proc.join()


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Wall time of fresh interpreters that import the library and load the
    inputs, with what each reports about its own import and loads.  Not
    scaled by the calibration slices: start-up reads files and faults pages
    in, which the slices (small-matrix arithmetic) do not track."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall = time.perf_counter() - t
        samples.append({"seconds": wall, **json.loads(proc.stdout.strip().splitlines()[-1])})
    return samples


def tail(values: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it.  With
    fewer than TAIL_MIN_SAMPLES samples that would lie below the median, so
    the tail is unresolved and the median stands in for it."""
    xs = sorted(values)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        return xs[n - 11], f"rank {n - 10} of {n}"
    return statistics.median(xs), f"unresolved: median of {n}"


def end_to_end(records, peak_rss_mb, setup, time_key="ref_s") -> tuple[dict, dict]:
    """The end-to-end metrics, from each op's time at the reference host
    speed (``time_key="ref_s"``) or from its raw wall time ("seconds");
    ``setup_s`` is wall time in both."""
    primary = [r for r in records if not r["probe"]]
    m = {
        "setup_s": statistics.median(s["seconds"] for s in setup),
        "ops_per_s": sum(r["trials"] for r in primary) / sum(r[time_key] for r in primary),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {}
    for kind, prefix in KIND_METRIC.items():
        xs = [r[time_key] for r in records if r["kind"] == kind]
        m[f"{prefix}_p50"] = statistics.median(xs)
        samples[f"{prefix}_p50"] = len(xs)
        if kind in ("P", "PE"):
            m[f"{prefix}_tail"], samples[f"{prefix}_tail"] = tail(xs)
    per_battery = {}
    for r in records:
        if r["kind"] == "battery":
            per_battery.setdefault(r["key"], []).append(r[time_key] * 1e3 / r["trials"])
    m["battery_ms_per_trial"] = sum(statistics.median(v) for v in per_battery.values())
    samples["battery_ms_per_trial"] = {b: len(v) for b, v in per_battery.items()}
    for kind in ("grid_qubit", "grid_two_sided"):
        xs = [r[time_key] for r in records if r["kind"] == kind]
        m[f"{kind}_s_p50"] = statistics.median(xs)
        samples[f"{kind}_s_p50"] = len(xs)
    return m, samples


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "worker_cap": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "discordium" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no library at {ROOT / 'src' / 'discordium'} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = metric_units(spec_path)["per_layer" if args.trace else "end_to_end"]
    workers = nproc()
    os.environ["DISCORDIUM_THREADS"] = str(workers)
    setup = measure_setup(args.workload, args.seed)
    inputs = wl.load_inputs(args.workload, ROOT, args.seed, time.perf_counter)
    sched = wl.schedule(args.workload, inputs, args.seed)
    build = ROOT / ".bench_build"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(workers), "setup": setup}

    if args.trace == 0:
        # Whole passes while the next one fits in --seconds, at least one.
        ops = sched.ops()
        cal = hostspeed.Calibrator()
        aside = Aside([op for op in ops if op.aside])
        try:
            start = time.perf_counter()
            deadline = start + OVERRUN * args.seconds
            records, passes, cut = [], 0, False
            before = cal.slice()
            while not cut:
                for i, op in enumerate(ops):
                    if time.perf_counter() > deadline and (passes or i >= sched.head()):
                        cut = True
                        break
                    # Probe battery calls run in-process: the fan-out needs
                    # an idle second core, and is timed where it is the
                    # workload's subject (oracles).
                    os.environ["DISCORDIUM_THREADS"] = "1" if op.probe else str(workers)
                    if op.aside:
                        records.append(aside.run(op))
                        before = cal.slice()
                    else:
                        rec, before = run_scaled(op, cal, before)
                        records.append(rec)
                passes += 1
                elapsed = time.perf_counter() - start
                if elapsed * (passes + 1) / passes > args.seconds:
                    break
        finally:
            aside.close()
            os.environ["DISCORDIUM_THREADS"] = str(workers)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report.update(passes=passes, pass_cut_short=cut, measured_s=elapsed)
    else:
        # Each op of a fixed list runs untraced and traced back to back, both
        # with the worker cap at 1 so that battery trials stay in-process;
        # a battery op that the untraced run fans out (not a probe) also runs
        # untraced at the cap of nproc right after, for the fan-out's
        # efficiency.  Pairing the runs of an
        # op keeps the host's slow spells out of the tracing overhead, and
        # alternating which runs first cancels the second run's warm caches.
        ops = sched.trace_ops()
        tracer = tracing.Tracer()
        untraced, records = [], []
        fanout = {}  # op index -> record of its run at the cap of nproc

        def traced(op, i):
            tracer.install()
            try:
                records.append(run_op(op, tracer, i))
            finally:
                tracer.uninstall()

        try:
            for i, op in enumerate(ops):
                os.environ["DISCORDIUM_THREADS"] = "1"
                if i % 2:
                    traced(op, i)
                untraced.append(run_op(op))
                if op.kind == "battery" and not op.probe:
                    os.environ["DISCORDIUM_THREADS"] = str(workers)
                    fanout[i] = run_op(op)
                    os.environ["DISCORDIUM_THREADS"] = "1"
                if not i % 2:
                    traced(op, i)
        finally:
            os.environ["DISCORDIUM_THREADS"] = str(workers)
        (build / "trace").mkdir(parents=True, exist_ok=True)
        tracer.save(build / "trace" / f"{args.workload}.npz")
        spans = tracing.Spans(tracer)
        tracing.self_check(spans, records, untraced)
        report["untraced_seconds"] = [r["seconds"] for r in untraced]
        report["fanout_seconds"] = {i: r["seconds"] for i, r in fanout.items()}

    # correctness, against references computed outside every timed region
    states = inputs.states
    wanted = {
        (r["key"], ref): states[r["key"]]
        for r in records if r["kind"] != "battery"
        for ref in checks.needed_refs(r["kind"], states[r["key"]])
    }
    refs = checks.references(ROOT, wanted, workers)
    last_p = {}  # label -> value of the last P solve on it, for the PE after it
    failed = 0
    for r in records:
        if r["kind"] == "P":
            last_p[r["key"]] = r["value"]
        r["failed_checks"] = checks.check(r, refs, last_p)
        if r["failed_checks"]:
            failed += r["failures"] if r["kind"] == "battery" else r["trials"]
    attempted = sum(r["trials"] for r in records)

    if args.trace == 0:
        metrics, samples = end_to_end(records, peak_rss_mb, setup)
        report["samples"] = samples
        report["wall_metrics"] = end_to_end(records, peak_rss_mb, setup, "seconds")[0]
    else:
        metrics = tracing.layer_metrics(spans, records, untraced, fanout, wl.BATTERIES, workers)
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
        metrics["cli.load_state_ms"] = statistics.median(
            itertools.chain.from_iterable(s["load_ms"] for s in setup)
        )
        samples = {}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from {spec_path.name}: computed but not named "
                           f"{sorted(set(metrics) - set(units))}, named but not computed "
                           f"{sorted(set(units) - set(metrics))}")
    metrics = {k: metrics[k] for k in units}
    report.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  metrics=metrics, records=records)
    (build / "reports").mkdir(parents=True, exist_ok=True)
    out = build / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"start_method={env['mp_start_method']}")
    for name, value in metrics.items():
        note = samples.get(name, "")
        note = f"  ({note})" if isinstance(note, str) and note.startswith("unresolved") else ""
        print(f"{name:<44} {value:>14.6g} {units[name]}{note}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)")
    for r in records:
        if r["failed_checks"]:
            print(f"FAILED {r['kind']}({r['key']}): {'; '.join(r['failed_checks'])}")
    print(f"# report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
