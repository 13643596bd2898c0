"""Compare two sets of benchmark records (parent vs change, or A vs A).

Usage, from the repository root::

    python3 benchmarks/suite/compare.py --base parent-*.json --change change-*.json

Each file is a ``--json`` output of ``run.py`` (one run or an ``--all``
set).  For every workload and end-to-end metric the tool prints both
sides' medians and quartiles and a verdict, applying the bounds in
``BENCHMARK.json``:

* ``regressed``  -- the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median) of either side is wider than the bound and the runs do not
  fully separate, so the data cannot tell;
* ``improved``   -- over at least 10 base/change pairs (taken in file
  order), the change wins at least 9 in 10, ties counting for neither,
  and the medians differ by more than the base's own spread;
* ``unchanged``  -- otherwise.

It also checks the deterministic side of the records: runs of the same
workload and seed must agree on ``sim_digest`` and, for traced runs, on
every work counter -- within each side always, and across the two sides
when they come from the same code (``--same-code``, or equal known git
SHAs).  It warns when the two sides' calibration loops (``calib_s``)
differ by more than 10 %, which means the machine, not the code, moved.
Exit status 1 means a regression, a failed unit, or a determinism
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
CALIB_TOLERANCE = 0.10
WIN_RULE = 0.9
MIN_PAIRS = 10


def load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            records.extend(json.load(handle)["runs"])
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], change: List[float], better: str, bound: float) -> dict:
    """Classify one (workload, metric) pair; see the module docstring."""
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive ``worse`` means the change is worse than the base.
    worse = sign * (c_med - b_med) / b_med
    spread = max((b3 - b1) / b_med, (c3 - c1) / c_med)
    improves = [sign * (c - b) < 0 for b, c in zip(base, change)]
    regresses = [sign * (c - b) > 0 for b, c in zip(base, change)]
    separated = (
        max(sign * c for c in change) < min(sign * b for b in base)
        or min(sign * c for c in change) > max(sign * b for b in base)
    )
    pairs = len(improves)
    if spread > bound and not separated:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif pairs >= MIN_PAIRS and sum(improves) >= WIN_RULE * pairs and -worse > (b3 - b1) / b_med:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "base": (b1, b_med, b3),
        "change": (c1, c_med, c3),
        "worse": worse,
        "spread": spread,
        "wins": sum(improves),
        "losses": sum(regresses),
        "pairs": pairs,
        "verdict": label,
    }


def _fingerprints(records: List[dict]) -> Dict[Tuple[str, int], Dict[str, set]]:
    """Distinct digests and counter sets per (workload, seed)."""
    seen: Dict[Tuple[str, int], Dict[str, set]] = defaultdict(lambda: defaultdict(set))
    for record in records:
        key = (record["workload"], record["seed"])
        seen[key]["sim_digest"].add(record["sim_digest"])
        if record.get("trace"):
            seen[key]["counters"].add(json.dumps(record.get("counters", {}), sort_keys=True))
    return seen


def determinism(base: List[dict], change: List[dict], same_code: bool) -> List[str]:
    """Mismatched digests or counters between runs that must agree."""
    problems = []
    sides = {"base": _fingerprints(base), "change": _fingerprints(change)}
    for side, seen in sides.items():
        for (workload, seed), kinds in sorted(seen.items()):
            for kind, values in kinds.items():
                if len(values) > 1:
                    problems.append(f"{side}: {workload} seed {seed}: {len(values)} different {kind}")
    if same_code:
        for key in sorted(set(sides["base"]) & set(sides["change"])):
            for kind in ("sim_digest", "counters"):
                if sides["base"][key][kind] != sides["change"][key][kind]:
                    problems.append(f"{key[0]} seed {key[1]}: {kind} differs between base and change")
    return problems


def _sha(records: List[dict]) -> Optional[str]:
    shas = {record.get("env", {}).get("git_sha") for record in records}
    return shas.pop() if len(shas) == 1 else None


def compare(base: List[dict], change: List[dict], same_code: bool) -> int:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    status = 0
    for side, records in (("base", base), ("change", change)):
        for record in records:
            if record["failed"]:
                print(f"FAIL {side}: {record['workload']} seed {record['seed']}: "
                      f"{record['failed']}/{record['attempted']} units failed")
                status = 1

    base_calib = statistics.median(record["calib_s"] for record in base)
    change_calib = statistics.median(record["calib_s"] for record in change)
    if abs(change_calib - base_calib) / base_calib > CALIB_TOLERANCE:
        print(f"WARNING: calib_s differs by more than {CALIB_TOLERANCE:.0%} "
              f"(base {base_calib:.4f} s, change {change_calib:.4f} s): the machine changed")

    sha = _sha(base)
    same_code = same_code or (sha not in (None, "unknown") and sha == _sha(change))
    for problem in determinism(base, change, same_code):
        print(f"FAIL determinism: {problem}")
        status = 1

    workloads = sorted({record["workload"] for record in base + change})
    counts: Dict[str, int] = defaultdict(int)
    header = f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'worse':>8} {'spread':>7} {'bound':>6} {'wins':>6}  verdict"
    print(header)
    for workload in workloads:
        for metric in config["end_to_end"]:
            name = metric["name"]

            def values(records: List[dict]) -> List[float]:
                return [
                    record["metrics"][name]["value"]
                    for record in records
                    if record["workload"] == workload and not record["trace"]
                ]

            base_values, change_values = values(base), values(change)
            if not base_values or not change_values:
                continue
            row = verdict(base_values, change_values, metric["better"], metric["bound"])
            counts[row["verdict"]] += 1
            if row["verdict"] == "regressed":
                status = 1
            b1, b_med, b3 = row["base"]
            c1, c_med, c3 = row["change"]
            print(
                f"{workload:<16} {name:<12} {b_med:>12.5g} [{b1:.5g}, {b3:.5g}] "
                f"{c_med:>12.5g} [{c1:.5g}, {c3:.5g}] {row['worse']:>+8.1%} "
                f"{row['spread']:>7.1%} {metric['bound']:>6.0%} {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
            )
    _layers(base, change)
    print("summary: " + ", ".join(f"{count} {label}" for label, count in sorted(counts.items())))
    return status


def _layers(base: List[dict], change: List[dict]) -> None:
    """Median per-layer self time of the traced runs, side by side."""
    rows = []
    for workload in sorted({record["workload"] for record in base + change}):
        def layer_times(records: List[dict]) -> Dict[str, List[float]]:
            times: Dict[str, List[float]] = defaultdict(list)
            for record in records:
                if record["workload"] == workload and record["trace"]:
                    for layer, stats in record["trace_report"]["layers"].items():
                        times[layer].append(stats["self_s"])
            return times

        base_times, change_times = layer_times(base), layer_times(change)
        for layer in sorted(set(base_times) & set(change_times)):
            b, c = statistics.median(base_times[layer]), statistics.median(change_times[layer])
            if b or c:
                rows.append(f"  {workload:<16} {layer:<10} {b:>10.4f} s {c:>10.4f} s")
    if rows:
        print("per-layer self time per traced unit (base, change):")
        print("\n".join(rows))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="record files of the base side")
    parser.add_argument("--change", nargs="+", required=True, help="record files of the change side")
    parser.add_argument(
        "--same-code", action="store_true",
        help="both sides ran the same code: digests and counters must also agree across sides",
    )
    args = parser.parse_args(argv)
    return compare(load(args.base), load(args.change), args.same_code)


if __name__ == "__main__":
    sys.exit(main())
