"""Run one benchmark workload and print every metric by name with its unit.

Usage, from the repository root (no ``PYTHONPATH`` needed)::

    python3 benchmarks/suite/run.py --workload replay-bursty --seed 11
    python3 benchmarks/suite/run.py --workload cell-trace-hm --trace 1 --trace-out spans.json
    python3 benchmarks/suite/run.py --all --json runs.json

A run sets the workload up three times (``setup_s`` reports the import
time plus the median repetition), then runs timed units back to back,
closed loop, one client, in this one process, until ``--seconds`` have
passed -- always at least one unit, two when traced.  Every unit is
followed by the workload's correctness checks and a garbage collection,
both outside the timer.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones (see ``tracer.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics declared in ``BENCHMARK.json`` for the mode.
``--json`` writes the full record (all metrics, counters, the
simulation digest, calibration and environment stamp); ``compare.py``
compares such records.  ``--all`` runs every workload, untraced and
traced, each in its own child process.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

# One process, no worker pool: keep numpy's BLAS from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SCHEMA = 1
SETUP_REPS = 3
DEFAULT_SECONDS = 20.0
#: Raw spans kept for ``--trace-out``: a trace-hm cell makes ~1M calls.
SPAN_LIMIT = 200_000
WORKLOAD_NAMES = ("replay-bursty", "cell-trace-hm", "campaign-table1")


def unit_of(name: str) -> str:
    """The unit of a computed metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_factor", "_ratio", "amplification")):
        return "ratio"
    return "count"


def calibrate(rounds: int = 3) -> float:
    """Best-of-``rounds`` wall time of a fixed pure-Python loop.

    Stored in every record so two machines (or one machine under
    different load) can be told apart before their timings are compared.
    """
    from repro.bench import scaled

    n = scaled(1_000_000, 100_000)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def environment() -> Dict[str, object]:
    """Git SHA, date, Python, numpy and ``nproc`` for the record."""
    import numpy

    sys.path.insert(0, os.path.dirname(HERE))
    from bench_emit import environment_stamp

    stamp: Dict[str, object] = dict(environment_stamp())
    stamp.update(numpy=numpy.__version__, nproc=os.cpu_count())
    return stamp


def _remove_work_root() -> None:
    """Remove the shared work directory once no run is using it."""
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """Measures one workload: set-up repetitions, then the timed loop."""

    def __init__(self, workload, seconds: float, tracer=None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setup_s: List[float] = []
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        self.rates: List[float] = []
        self.sides: List[dict] = []
        self.deltas: List[dict] = []
        self.write_samples: List[float] = []
        self.setup_delta: Optional[dict] = None
        self.digests: List[str] = []
        self.counter_sets: List[dict] = []
        self.failures: List[Tuple[int, str]] = []
        self.attempted = 0

    def _call(self, fn, traced: bool):
        return self.tracer.root(fn) if traced else fn()

    def set_up(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
            before = tracer.snapshot()
        for _ in range(SETUP_REPS):
            self.workload.release()
            gc.collect()
            start = time.perf_counter()
            self._call(self.workload.setup, tracer is not None)
            self.setup_s.append(time.perf_counter() - start)
        if tracer is not None:
            self.setup_delta = tracer.delta(tracer.snapshot(), before)

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        min_units = 2 if self.tracer is not None else 1
        longest = 0.0
        while True:
            started = time.perf_counter()
            self._unit(traced=self.tracer is not None and self.attempted % 2 == 1)
            longest = max(longest, time.perf_counter() - started)
            if self.attempted >= min_units and time.perf_counter() + longest > deadline:
                break
        if self.tracer is not None:
            self.tracer.uninstall()

    def _unit(self, traced: bool) -> None:
        workload, tracer = self.workload, self.tracer
        index = self.attempted
        self.attempted += 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        output = None
        try:
            workload.prepare()
            if traced:
                before = tracer.snapshot()
                samples = tracer.samples["ssd.write_call"]
                first_sample = len(samples)
            start = time.perf_counter()
            output = self._call(workload.run, traced)
            wall = time.perf_counter() - start
            if traced:
                workload.harvest(tracer.counters, output)
                delta = tracer.delta(tracer.snapshot(), before)
                self.deltas.append(delta)
                self.write_samples.extend(samples[first_sample:])
                work = dict(delta["counters"])
                work.update(tracer.call_counts(delta))
                self.counter_sets.append(work)
                if work != self.counter_sets[0]:
                    self.failures.append((index, "work counters differ from the first traced unit"))
            for message in self._call(lambda: workload.check(output), traced):
                self.failures.append((index, message))
            digest = workload.digest(output)
            if self.digests and digest != self.digests[0]:
                self.failures.append((index, "sim digest differs from the first unit"))
            self.digests.append(digest)
            self.walls[traced].append(wall)
            if not traced:
                self.rates.append(workload.items(output) / wall)
                self.sides.append(workload.side(output))
        except Exception:
            self.failures.append((index, traceback.format_exc()))
        finally:
            output = None
            workload.release()
            gc.collect()

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


def end_to_end(runner: Runner, import_s: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": import_s + _median(runner.setup_s),
        "unit_s": _median(runner.walls[False]),
        "items_per_s": _median(runner.rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_metric(tracer, delta: dict, key: str) -> Dict[str, float]:
    values: Dict[str, float] = defaultdict(float)
    for index, metric in enumerate(tracer.metrics):
        values[metric] += delta[key][index]
    return values


def per_layer(runner: Runner) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics of the traced units, plus the trace report."""
    from repro.sim import percentile
    from tracer import COUNTERS

    tracer = runner.tracer
    deltas = runner.deltas
    times: Dict[str, List[float]] = defaultdict(list)
    for delta in deltas:
        for metric, value in _per_metric(tracer, delta, "self_s").items():
            times[metric].append(value)
    metrics: Dict[str, float] = {metric: _median(values) for metric, values in times.items()}
    gc_attack = tracer.targets.index("repro.attacks.gc_attack:GCAttack.execute")
    metrics["attacks.gc_attack_s"] = _median([delta["total_s"][gc_attack] for delta in deltas])

    work = dict.fromkeys(COUNTERS, 0)
    work.update(runner.counter_sets[0] if runner.counter_sets else {})
    unknown = sorted(set(work) - set(COUNTERS))
    if unknown:
        raise KeyError(f"counters missing from tracer.COUNTERS: {unknown}")
    metrics.update(work)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics["workloads.coalescing_factor"] = ratio(
        work["workloads.trace_records"], work["workloads.device_calls"]
    )
    released = work["ssd.gc_stale_pages_released"]
    metrics["ssd.gc_reclaim_ratio"] = ratio(released, released + work["ssd.gc_pages_relocated"])
    metrics["ssd.write_amplification"] = ratio(
        work["ssd.flash_pages_programmed"], work["ssd.host_pages_written"]
    )
    samples = sorted(runner.write_samples)
    metrics["ssd.write_call_n"] = len(samples)
    metrics["ssd.write_call_p50_us"] = percentile(samples, 0.5) * 1e6
    metrics["ssd.write_call_p99_us"] = percentile(samples, 0.99) * 1e6

    traced_wall = sum(runner.walls[True])
    accounted = sum(sum(delta["self_s"]) for delta in deltas)
    layers: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for delta in deltas:
        for index, metric in enumerate(tracer.metrics):
            layer = layers[metric.split(".")[0]]
            layer["self_s"] += delta["self_s"][index] / len(deltas)
            layer["calls"] += delta["calls"][index] / len(deltas)
    unit_self = sum(layer["self_s"] for layer in layers.values())
    for layer in layers.values():
        layer["share"] = ratio(layer["self_s"], unit_self)
    untraced = _median(runner.walls[False])
    traced = _median(runner.walls[True])
    report = {
        "traced_units": len(deltas),
        "traced_wall_s": traced_wall,
        "accounted_frac": ratio(accounted, traced_wall),
        "overhead_s": traced - untraced,
        "overhead_frac": ratio(traced - untraced, untraced),
        "layers": dict(layers),
        "boundaries": {
            target: {
                "metric": metric,
                "calls": calls,
                "self_s": self_s,
                "total_s": total_s,
            }
            for target, metric, calls, self_s, total_s in zip(
                tracer.targets, tracer.metrics, tracer.calls, tracer.self_s, tracer.total_s
            )
        },
        "setup_layers": {
            metric: value / SETUP_REPS
            for metric, value in _per_metric(tracer, runner.setup_delta, "self_s").items()
            if value
        },
    }
    return metrics, report


def declared() -> Dict[str, list]:
    """``BENCHMARK.json``'s metric declarations (empty if absent)."""
    if not os.path.exists(BENCHMARK_JSON):
        return {}
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_metrics(title: str, metrics: Dict[str, float]) -> None:
    print(title)
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit_of(name)}")


def _print_layers(report: dict) -> None:
    print(
        f"per-layer self time per traced unit ({report['traced_units']} traced units; "
        f"self times cover {report['accounted_frac']:.1%} of traced wall time; "
        f"tracing overhead {report['overhead_s']:+.4f} s = {report['overhead_frac']:+.1%})"
    )
    layers = report["layers"]
    for name in sorted(layers, key=lambda key: -layers[key]["self_s"]):
        layer = layers[name]
        print(
            f"  {name:<12} {layer['self_s']:>10.4f} s {layer['share']:>7.1%} "
            f"{layer['calls']:>12.0f} calls"
        )


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload in this process and report it."""
    import tracer as tracer_module
    import workloads
    from repro.bench import SMOKE

    import_s = time.perf_counter() - _STARTED
    calib_s = calibrate()
    seed = args.seed if args.seed is not None else workloads.SEEDS[args.workload][0]
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    traced = args.trace == 1
    tracer = tracer_module.Tracer(span_limit=SPAN_LIMIT if args.trace_out else 0) if traced else None
    workload = workloads.WORKLOADS[args.workload](seed, workdir)
    runner = Runner(workload, args.seconds, tracer)
    try:
        runner.set_up()
        runner.measure()
    finally:
        workload.release()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_work_root()

    record: Dict[str, object] = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": traced,
        "smoke": SMOKE,
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": [f"unit {index}: {message}" for index, message in runner.failures],
        "sim_digest": runner.digests[0] if runner.digests else None,
        "calib_s": calib_s,
        "env": environment(),
        "import_s": import_s,
        "setup_reps_s": runner.setup_s,
        "unit_walls_s": runner.walls[False],
        "traced_unit_walls_s": runner.walls[True],
        "extra": workload.extra(runner.sides),
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }
    if traced:
        metrics, report = per_layer(runner)
        record["trace_report"] = report
        record["counters"] = runner.counter_sets[0] if runner.counter_sets else {}
        declared_names = [entry["name"] for entry in declared().get("per_layer", [])]
    else:
        metrics = end_to_end(runner, import_s)
        declared_names = [entry["name"] for entry in declared().get("end_to_end", [])]
    record["metrics"] = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}

    print(f"workload {args.workload} seed {seed}: {runner.attempted} units, {runner.failed} failed")
    for line in record["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    _print_metrics("metrics:", metrics)
    print("extra:", json.dumps(record["extra"], sort_keys=True))
    if traced:
        _print_layers(record["trace_report"])
    print(f"sim_digest {record['sim_digest']}  calib_s {calib_s:.4f}")

    if args.trace_out and tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans(), "report": record["trace_report"]}, handle)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"runs": [record]}, handle, indent=1, sort_keys=True)

    names = declared_names or sorted(metrics)
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"error: declared metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: record["metrics"][name] for name in names},
            }
        )
    )
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a child process."""
    # A directory of its own: a child removes WORK_ROOT when it is empty.
    outdir = os.path.join(WORK_ROOT, f"all-{os.getpid()}")
    os.makedirs(outdir)
    records = []
    status = 0
    try:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                out = os.path.join(outdir, f"{name}-{trace}.json")
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seconds", str(args.seconds), "--trace", str(trace), "--json", out,
                ]
                if args.seed is not None:
                    command += ["--seed", str(args.seed)]
                status = status or subprocess.run(command, check=False).returncode
                if os.path.exists(out):
                    with open(out, "r", encoding="utf-8") as handle:
                        records.extend(json.load(handle)["runs"])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        _remove_work_root()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"runs": records}, handle, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": status == 0 and all(record["correct"] for record in records),
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "runs": len(records),
            }
        )
    )
    return status


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    config = declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's default seed)")
    parser.add_argument(
        "--seconds", type=float, default=float(config.get("run_seconds", DEFAULT_SECONDS)),
        help="measuring time of the run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument(
        "--trace-out",
        help=f"write the raw span log of a traced run (the first {SPAN_LIMIT} spans) to this JSON file",
    )
    parser.add_argument("--json", help="write the full run record(s) to this JSON file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.all:
        return run_all(args)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
