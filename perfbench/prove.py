"""Run the workloads over a range of seeds and report medians, spreads and shifts.

    python3 perfbench/prove.py --seeds 1-10 [--sets 2] [--workloads verify-n7,kernel-n9]
                               [--trace 0|1] [--out summary.json]

Each run is ``perfbench/run.py`` in a fresh interpreter, one after another,
with the ``run_seconds`` of BENCHMARK.json.  The runs go in rounds, one per
seed; a round runs every set on every workload in turn.  So the sets are
interleaved in time and a slow spell of the machine falls on all of them
alike, rather than on whichever set ran during it.

For every metric and set it prints the median over seeds and the spread,
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``, next to the metric's bound; for every later set, also the shift of
its median from the first set's, signed so that positive is worse.  A
spread at or above a third of the bound, or a shift worse than the bound,
is flagged.  It exits nonzero on a flag or on any failed gate.  ``--out``
writes the values, with the machine facts of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and (Q3 - Q1) / median; one value, or a zero median
    (a layer the workload never calls), has no spread."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1, help="interleaved sets of runs")
    parser.add_argument("--workloads", default="all", help="comma-separated names")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workloads == "all" else args.workloads.split(",")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    sets = range(args.sets)

    values = {(w, s): {m["name"]: [] for m in declared} for w in chosen for s in sets}
    gate = {w: [0, 0] for w in chosen}
    op_walls = {(w, s): [] for w in chosen for s in sets}
    op_scales = {(w, s): [] for w in chosen for s in sets}
    machine = None
    for seed in seeds:
        for s in sets:
            for workload in chosen:
                context, result = run_one(workload, seed, spec["run_seconds"], args.trace)
                machine = machine or context["machine"]
                op_walls[workload, s].append(context["op_wall_s"])
                op_scales[workload, s].append(context["op_scale"])
                gate[workload][0] += result["attempted"]
                gate[workload][1] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload, s][name].append(metric["value"])

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                     "sets": args.sets, "trace": args.trace, "machine": machine,
                     "workloads": {}}
    ok = True
    for workload in chosen:
        attempted, failed = gate[workload]
        ok = ok and failed == 0
        print(f"{workload}: {len(seeds)} seeds x {args.sets} sets, {attempted} operations, "
              f"{failed} failed (fail_rate {failed / attempted:.3g})")
        rows = {}
        for m in declared:
            bound = m.get("bound")
            sign = 1.0 if m["better"] == "lower" else -1.0
            row = {"unit": m["unit"], "sets": []}
            for s in sets:
                vals = values[workload, s][m["name"]]
                med, q1, q3, sprd = spread(vals)
                first = row["sets"][0]["median"] if row["sets"] else med
                shift = sign * (med - first) / first if first else 0.0
                flag = ""
                if bound is not None and sprd >= bound / 3:
                    flag += "  <-- spread >= bound/3"
                if bound is not None and shift > bound:
                    flag += "  <-- shift worse than bound"
                ok = ok and not flag
                print(f"  {m['name']:42s} set {s} {med:14.6g} {m['unit']:6s} "
                      f"spread {sprd:7.4f}" + (f" shift {shift:+7.4f}" if s else " " * 14)
                      + (f"  bound {bound}" if bound is not None else "") + flag)
                row["sets"].append({"median": med, "q1": q1, "q3": q3, "spread": sprd,
                                    "shift": shift, "values": vals})
            rows[m["name"]] = row
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": rows,
            "op_wall_s": [op_walls[workload, s] for s in sets],
            "op_scale": [op_scales[workload, s] for s in sets]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
