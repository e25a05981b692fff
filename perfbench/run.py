"""The fleet benchmark: one seeded workload, timed, checked and reported.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-64 --seed 0 --seconds 30 \\
        --trace 0

It repeats the workload in fresh processes (``rep.py``) until
``--seconds`` have passed, at least three times untraced.  With
``--trace 1`` it alternates untraced and traced repetitions instead and
reports the per-layer metrics.  Host times are reported at the machine
speed measured during each repetition (``calibrate.py``), because the
machine's own speed drifts by up to 2x; the raw times are printed and
kept in ``perfbench/out``.  Every repetition is checked (fleet
invariants, accounting identities, identical outcome and exact work
counts across repetitions of the seed); the last line of standard output
is the JSON result.  ``--layers`` prints which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import describe, units
from provenance import provenance
from spans import OUT_DIR
from stats import median, samples_beyond, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: Untraced repetitions a result needs at least, whatever --seconds says.
MIN_REPS = 3
#: No repetition starts once this much of the 180 s budget is gone.
WALL_BUDGET_S = 150.0
REP_TIMEOUT_S = 120.0


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    """One repetition in a fresh interpreter; ``{"problems": [...]}``
    describes a repetition that crashed or printed no result."""
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""))
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced,
                "problems": [f"repetition exceeded {REP_TIMEOUT_S:g} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced, "problems": [
            f"repetition exited {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def mark_drift(reps: List[dict], per_layer_units: Dict[str, str]) -> None:
    """Flag, as a problem of the repetition, every exact quantity it
    reports differently from the first repetition of the seed: the
    outcome digest, the work counters and, between traced repetitions,
    the per-layer counts.  Traced and untraced runs must agree."""
    done = [r for r in reps if "digest" in r]
    traced = [r for r in done if r["traced"]]
    for r in done[1:]:
        ref = done[0]
        if r["digest"] != ref["digest"]:
            r["problems"].append("drift: outcome differs from the first "
                                 "repetition")
        for key, value in ref["counters"].items():
            if r["counters"][key] != value:
                r["problems"].append(f"drift: counter {key} is "
                                     f"{r['counters'][key]}, was {value}")
    for r in traced[1:]:
        for key, unit in per_layer_units.items():
            if unit == "count" and r["layers"][key] != traced[0]["layers"][
                    key]:
                r["problems"].append(f"drift: per-layer {key}")


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics over untraced repetitions: medians of
    per-repetition host times scaled to the calibrated machine speed
    (see ``calibrate.py``), including each repetition's decision-time
    percentiles, and the program's own exact simulated ratios.

    A percentile is taken within each repetition and the median over
    repetitions reported, so one repetition hit by a stall of the
    machine cannot set the tail of all of them.
    """
    first = reps[0]

    def decide_us(q: float) -> float:
        return median([tail_percentile(r["decide_s"], q) * r["run_speed"]
                       * 1e6 for r in reps])

    return {
        "setup_s": median([r["setup_s"] * r["setup_speed"] for r in reps]),
        "run_s": median([r["run_s"] * r["run_speed"] for r in reps]),
        "decide_p50_us": decide_us(50),
        "decide_p99_us": decide_us(99),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "admitted_frac": 1.0 - first["rejection_rate"],
        "slo_attainment": first["slo_attainment"],
        "availability": first["availability"],
    }


def per_layer(traced: List[dict], untraced: List[dict],
              per_layer_units: Dict[str, str]) -> Dict[str, float]:
    """The per-layer metrics: exact counts from the first traced
    repetition, medians of ratios, and medians of times scaled to the
    calibrated machine speed like the end-to-end times."""
    out: Dict[str, float] = {}
    for key, unit in per_layer_units.items():
        if key == "trace.overhead_frac":
            out[key] = (median([r["run_s"] * r["run_speed"] for r in traced])
                        / median([r["run_s"] * r["run_speed"]
                                  for r in untraced]) - 1.0)
        elif unit == "count":
            out[key] = traced[0]["layers"][key]
        elif unit == "s":
            out[key] = median([r["layers"][key] * r["run_speed"]
                               for r in traced])
        else:
            out[key] = median([r["layers"][key] for r in traced])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="replay-64")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="print the per-layer to end-to-end map")
    args = parser.parse_args(argv)
    if args.layers:
        print(describe())
        return 0
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choices: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be > 0", file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    print("provenance " + json.dumps(dict(prov, workload=args.workload),
                                     sort_keys=True))
    start = time.perf_counter()
    plan = [False, True] if args.trace else [False]
    reps: List[dict] = []
    last = 0.0
    while True:
        for traced in plan:
            began = time.perf_counter()
            reps.append(run_rep(args.workload, args.seed, traced))
            last = max(last, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = args.trace or sum(not r["traced"] for r in reps) >= MIN_REPS
        if enough and (elapsed >= args.seconds
                       or elapsed + len(plan) * last > WALL_BUDGET_S):
            break

    per_layer_units = units("per_layer")
    mark_drift(reps, per_layer_units)
    failed = sum(bool(r["problems"]) for r in reps)
    for i, r in enumerate(reps):
        for problem in r["problems"][:5]:
            print(f"rep {i} problem: {problem}")
    good = [r for r in reps if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    for i, r in enumerate(reps):
        if "run_s" in r:
            print(f"rep {i} {'traced' if r['traced'] else 'timed '} "
                  f"raw setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f}"
                  f" speed setup={r['setup_speed']:.3f} "
                  f"run={r['run_speed']:.3f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f}")
    if not untraced or (args.trace and not traced):
        print("run.py: no repetition passed its checks", file=sys.stderr)
        return 1
    first = untraced[0]
    n = len(first["decide_s"])
    print(f"decisions: {n} per repetition in {len(untraced)} repetitions;"
          f" each repetition's p99 has {samples_beyond(n, 99)} samples "
          f"beyond it; rejection_rate {first['rejection_rate']:.4f}; "
          f"counters "
          f"{json.dumps(first['counters'], sort_keys=True)}")
    if args.trace:
        values = per_layer(traced, untraced, per_layer_units)
        metric_units = per_layer_units
        print(f"traced: {traced[-1]['spans']} spans; Chrome trace and "
              f"layer table in {os.path.relpath(OUT_DIR)}")
    else:
        values = end_to_end(untraced)
        metric_units = units("end_to_end")
    record = {"provenance": prov, "workload": args.workload,
              "trace": args.trace, "metrics": values,
              "reps": [{k: v for k, v in r.items() if k != "decide_s"}
                       for r in reps]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-"
                           f"trace{args.trace}-run.json"), "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in metric_units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
