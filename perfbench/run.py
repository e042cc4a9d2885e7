"""Benchmark of rootmat: named workloads through the public verdict entry points.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run imports rootmat from `src/`, makes the workload's inputs from the
seed, and runs whole passes over the inputs until `--seconds` have passed
(at least one pass).  Every verdict is checked against `reference.json`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced pass with a traced one and reports the per-layer metrics (see
`layers.py`) and the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs each workload in turn in a child process, one at a
time, and prints their metrics together.  Results, the environment and
the spans of traced runs are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

TABLE_IDS = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2_{m}" for m in range(5, 13)]
)

# workload -> [(entry point in rootmat.verify, system id)]
WORKLOADS = {
    "table": [("verify_theorem", s) for s in TABLE_IDS],
    "crosscheck": [("oracle_crosscheck", s) for s in ("A4", "A5", "B3", "B4", "D4", "D5", "H3")]
    + [("verify_wreath", s) for s in ("A1+A2+B3", "A3+A3")],
    "headroom": [("verify_theorem", s) for s in ("I2_16", "I2_18", "I2_20", "B9", "D10")],
}

END_TO_END = {"setup_s": "s", "ref_wall_s": "s", "ref_slowest_verdict_s": "s", "peak_rss_mib": "MiB"}
SETUP_REPEATS = 15


def make_inputs(workload, seed):
    """Shuffle the system order and the component order of each direct sum.

    Returns [(entry point, system id as called, reference id)].
    """
    rng = random.Random(seed)
    calls = []
    for entry, ref_id in WORKLOADS[workload]:
        parts = ref_id.split("+")
        rng.shuffle(parts)
        calls.append((entry, "+".join(parts), ref_id))
    rng.shuffle(calls)
    return calls


# Run in a fresh interpreter: the time to import rootmat and everything it
# imports, after timing a few calibration units on the same core.
IMPORT_CHILD = """\
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
import calibration
units = [calibration.unit_seconds() for _ in range(7)]
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import rootmat
print(perf_counter() - start, *units)
"""


def setup(workload, seed):
    """Import rootmat and make the inputs; median over SETUP_REPEATS.

    Each repeat imports rootmat in a fresh child interpreter, so the
    standard-library modules rootmat needs are imported too, then makes
    the inputs here.  Each is scaled to the reference speed by the unit
    times the child took just before its import.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC), str(HERE)],
                               stdout=subprocess.PIPE, text=True, check=True)
        import_s, *units = map(float, child.stdout.split())
        start = perf_counter()
        calls = make_inputs(workload, seed)
        times.append(calibration.to_reference(import_s + perf_counter() - start, units))
    import rootmat
    return rootmat, calls, statistics.median(times)


def check(entry, report, expected):
    """Differences between a report and the reference [|Aut|, |C3|]."""
    aut, c3 = expected
    problems = []
    if report.status != "PASS":
        problems.append(f"status {report.status} {report.detail}".strip())
    if report.aut_order != aut:
        problems.append(f"|Aut| {report.aut_order} != {aut}")
    if entry == "oracle_crosscheck" and report.known_group_order != aut:
        problems.append(f"all-circuits |Aut| {report.known_group_order} != {aut}")
    if report.c3_count != c3:
        problems.append(f"|C3| {report.c3_count} != {c3}")
    return problems


def run_pass(verify, calls, reference, tracer=None, probe=None):
    """One pass over the inputs: wall time and one record per verdict.

    With a running SpeedProbe, also the reference seconds of each verdict
    and their sum, `ref_wall_s`.
    """
    gc.collect()
    verdicts, intervals = [], []
    start = perf_counter()
    for entry, system_id, ref_id in calls:
        fn = getattr(verify, entry)
        t0 = perf_counter()
        try:
            report = tracer.call(ref_id, fn, system_id) if tracer else fn(system_id)
        except Exception:  # a raising verdict is a failed verdict; keep measuring
            traceback.print_exc()
            report = None
        t1 = perf_counter()
        intervals.append((t0, t1))
        problems = check(entry, report, reference[ref_id]) if report else ["raised"]
        verdicts.append({
            "system": ref_id,
            "called_as": system_id,
            "entry": entry,
            "seconds": t1 - t0,
            "status": report.status if report else "RAISED",
            "aut_order": str(report.aut_order) if report else None,
            "c3_count": report.c3_count if report else None,
            "problems": problems,
        })
    end = perf_counter()
    result = {"wall_s": end - start, "verdicts": verdicts}
    if probe:
        pass_units = probe.unit_times(start, end)
        for v, (t0, t1) in zip(verdicts, intervals):
            v["ref_seconds"] = probe.reference_seconds(t0, t1, pass_units)
        result["ref_wall_s"] = sum(v["ref_seconds"] for v in verdicts)
        result["probe_samples"] = len(pass_units)
    return result


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(args):
    env = environment()
    print(f"env python={env['python']} nproc={env['nproc']} "
          f"loadavg={','.join(f'{x:.2f}' for x in env['loadavg_at_start'])} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if not (SRC / "rootmat" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'rootmat'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    reference = json.loads(Path(args.reference).read_text())["systems"]
    rootmat, calls, setup_s = setup(args.workload, args.seed)

    plain, traced, spans = [], [], []
    # Traced runs leave the probe off, so that no span holds probe time.
    probe = None if args.trace else calibration.SpeedProbe()
    deadline = perf_counter() + args.seconds
    while True:
        with probe or contextlib.nullcontext():
            plain.append(run_pass(rootmat.verify, calls, reference, probe=probe))
        _print_pass("pass", len(plain), plain[-1])
        if args.trace:
            tracer = layers.Tracer()
            tracer.install(rootmat)
            try:
                result = run_pass(rootmat.verify, calls, reference, tracer)
            finally:
                tracer.restore()
            result["layers"] = tracer.metrics_by_trace()
            traced.append(result)
            spans.extend([len(traced)] + span for span in tracer.spans)
            _print_pass("traced pass", len(traced), result)
        if perf_counter() >= deadline:
            break

    runs = plain + traced
    verdicts = [v for p in runs for v in p["verdicts"]]
    failed = sum(1 for v in verdicts if v["problems"])
    for v in verdicts:
        if v["problems"]:
            print(f"FAILED {v['system']} (called as {v['called_as']}): {'; '.join(v['problems'])}")
    print(f"failed_frac {failed}/{len(verdicts)} = {failed / len(verdicts):.4f} (verdicts over {len(runs)} passes)")

    if args.trace:
        metrics, units = _layer_metrics(plain, traced)
    else:
        metrics = {
            "setup_s": setup_s,
            "ref_wall_s": statistics.median(p["ref_wall_s"] for p in plain),
            "ref_slowest_verdict_s": statistics.median(
                max(v["ref_seconds"] for v in p["verdicts"]) for p in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    if not args.trace:
        print("measured, not scaled to the reference speed:")
        print(f"  {'wall_s':30s} {statistics.median(p['wall_s'] for p in plain):14.6f} s")
        print(f"  {'slowest_verdict_s':30s} "
              f"{statistics.median(max(v['seconds'] for v in p['verdicts']) for p in plain):14.6f} s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": env, "args": vars(args), "metrics": metrics,
        "failed": failed, "attempted": len(verdicts), "passes": runs,
    }, indent=1) + "\n")
    if spans:
        layers.write_spans(OUT / f"{stem}.spans.jsonl", spans)
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _print_pass(label, index, result):
    slowest = max(result["verdicts"], key=lambda v: v["seconds"])
    line = (f"{label} {index}: wall {result['wall_s']:.3f} s, "
            f"slowest {slowest['system']} {slowest['seconds']:.3f} s, "
            f"{len(result['verdicts'])} verdicts")
    if "ref_wall_s" in result:
        ref_slowest = max(result["verdicts"], key=lambda v: v["ref_seconds"])
        line += (f"; at reference speed: wall {result['ref_wall_s']:.3f} s, slowest "
                 f"{ref_slowest['system']} {ref_slowest['ref_seconds']:.3f} s, "
                 f"{result['probe_samples']} probe samples")
    print(line)


def _layer_metrics(plain, traced):
    """Per-layer metrics: medians of times over traced passes, exact counts."""
    totals = [layers.total(p["layers"]) for p in traced]
    for other in totals[1:]:
        for name in layers.COUNTS:
            if other[name] != totals[0][name]:
                print(f"WARNING count {name} differs between traced passes: "
                      f"{totals[0][name]} vs {other[name]}")
    metrics = {}
    for name, unit in layers.METRICS.items():
        values = [t[name] for t in totals]
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    units = dict(layers.METRICS, **{"trace.overhead_s": "s"})

    print("per system (first traced pass):")
    cols = ["verify.total_s", "rootsystems.kgens_s", "linmatroid.c3_s", "linmatroid.rank_calls",
            "graphauto.search_s", "graphauto.nodes", "permgrp.k_bsgs_s"]
    print("  " + f"{'system':10s}" + "".join(f"{c:>24s}" for c in cols))
    for system, row in traced[0]["layers"].items():
        print("  " + f"{system:10s}" + "".join(f"{row[c]:24.6g}" for c in cols))
    print("per layer (median over traced passes):")
    for layer in layers.LAYERS:
        counts = ", ".join(f"{n.split('.')[1]}={metrics[n]}" for n in layers.COUNTS
                           if n.startswith(layer + "."))
        print(f"  {layer:15s} total {metrics[layer + '.total_s']:9.4f} s  "
              f"self {metrics[layer + '.self_s']:9.4f} s  {counts}")
    print(f"  graphauto.gens_per_leaf = {metrics['graphauto.gens']} / "
          f"{metrics['graphauto.compared_leaves']} = {metrics['graphauto.gens_per_leaf']:.4f}")
    return metrics, units


def run_all(args):
    """Each workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", args.reference]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["metrics"][f"{workload}.failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "1"}
    print("summary:")
    for name, metric in merged["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}")
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference answers (system id -> [|Aut|, |C3|])")
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
