"""Checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py      # a few minutes

1. `reference.json` agrees with the closed-form orders and circuit counts
   in README.md, derived here without calling rootmat.
2. A deliberately wrong reference makes failed_frac > 0.
3. The seed is honoured: on each workload, seeds 1, 2 and 1 again give the
   same verdicts and group orders, and the same seed gives identical
   per-system counts.  Across seeds, the counts of every system the seed
   does not relabel (all but the direct sums) are identical too; counts
   of a direct sum may depend on the component order the seed picked and
   are printed side by side.
"""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb, factorial

import layers
from run import HERE, OUT, WORKLOADS, make_inputs

REFERENCE = HERE / "reference.json"
SEED_A = 1


def closed_form(system_id):
    """[|Aut(M(R))| on lines, |C3|] from the formulas in README.md."""
    if "+" in system_id:
        # components here are pairwise non-isomorphic or all equal
        parts = system_id.split("+")
        aut = factorial(len(parts)) if len(set(parts)) == 1 else 1
        c3 = 0
        for part in parts:
            a, c = closed_form(part)
            aut *= a
            c3 += c
        return [aut, c3]
    if system_id.startswith("I2_"):
        m = int(system_id[3:])
        return [factorial(m), comb(m, 3)]
    fixed = {"E6": [51840, 120], "E7": [1451520, 336], "E8": [348364800, 1120],
             "F4": [1152, 104], "H3": [120, 70], "H4": [14400, 920]}
    if system_id in fixed:
        return fixed[system_id]
    fam, n = system_id[0], int(system_id[1:])
    if fam == "A":
        return [factorial(n + 1) if n >= 2 else 1, comb(n + 1, 3)]
    a2_count = 4 * comb(n, 3)  # A2 subsystems on coordinates i < j < k
    if fam == "D":
        return [576 if n == 4 else 2 ** (n - 1) * factorial(n), a2_count]
    if fam == "B":  # plus four triples in each of the C(n, 2) B2 subsystems
        return [24 if n == 2 else 2 ** (n - 1) * factorial(n), a2_count + 4 * comb(n, 2)]
    raise ValueError(system_id)


def ensure(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_reference():
    systems = json.loads(REFERENCE.read_text())["systems"]
    used = {sid for calls in WORKLOADS.values() for _, sid in calls}
    missing = used - systems.keys()
    ensure(not missing, f"no reference for {sorted(missing)}")
    for sid, expected in systems.items():
        ensure(expected == closed_form(sid), f"{sid}: {expected} != {closed_form(sid)}")
    print(f"ok: reference.json matches the closed forms for {len(systems)} systems")
    return systems


def run(workload, seed, trace, reference=REFERENCE):
    """One benchmark run (a single pass; two when traced) and its result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--reference", str(reference)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    detail = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def check_wrong_reference(systems):
    wrong = dict(systems)
    wrong["A4"] = [systems["A4"][0] + 1, systems["A4"][1]]
    OUT.mkdir(exist_ok=True)
    path = OUT / "wrong-reference.json"
    path.write_text(json.dumps({"systems": wrong}))
    result, _ = run("table", SEED_A, 0, path)
    frac = result["failed"] / result["attempted"]
    ensure(frac > 0 and not result["correct"], f"wrong reference not caught: {result}")
    print(f"ok: a wrong |Aut| for A4 gives failed_frac {result['failed']}/{result['attempted']}")


def verdicts_of(detail):
    return sorted((v["system"], v["status"], v["aut_order"], v["c3_count"])
                  for p in detail["passes"] for v in p["verdicts"])


def called_as(detail, sid):
    return next(v["called_as"] for v in detail["passes"][0]["verdicts"] if v["system"] == sid)


def counts_of(detail):
    traced = detail["passes"][-1]["layers"]
    return {sid: {name: row[name] for name in layers.COUNTS} for sid, row in traced.items()}


def other_seed(workload):
    """The first seed after SEED_A that reorders every direct sum of distinct components."""
    def sums(seed):
        return {ref: called for _, called, ref in make_inputs(workload, seed)
                if len(set(ref.split("+"))) > 1}

    seed = SEED_A + 1
    while any(sums(seed)[ref] == called for ref, called in sums(SEED_A).items()):
        seed += 1
    return seed


def check_seeds(workload):
    seed_b = other_seed(workload)
    _, first = run(workload, SEED_A, 1)
    _, other = run(workload, seed_b, 1)
    _, again = run(workload, SEED_A, 1)
    ensure(verdicts_of(first) == verdicts_of(other) == verdicts_of(again),
           f"{workload}: verdicts depend on the seed")
    a, b, c = counts_of(first), counts_of(other), counts_of(again)
    ensure(a == c, f"{workload}: counts differ between two runs of seed {SEED_A}")
    relabelled = []
    for sid in a:
        if a[sid] == b[sid]:
            continue
        ensure("+" in sid, f"{workload}/{sid}: counts depend on the seed: {a[sid]} vs {b[sid]}")
        diff = {n: (a[sid][n], b[sid][n]) for n in a[sid] if a[sid][n] != b[sid][n]}
        relabelled.append(f"{sid} as {called_as(first, sid)} vs {called_as(other, sid)}: {diff}")
    print(f"ok: {workload}: same verdicts and orders for seeds {SEED_A}, {seed_b}; "
          f"identical counts for seed {SEED_A} twice")
    for line in relabelled:
        print(f"    component order changes counts of {line}")


def main():
    systems = check_reference()
    check_wrong_reference(systems)
    for workload in WORKLOADS:
        check_seeds(workload)


if __name__ == "__main__":
    main()
