"""gramfloor benchmark: one workload, timed, gated and reported.

    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, never from an installed copy.  The workload repeats its operation
until the next one would end past ``--seconds``, checks every operation's
output against ``reference.json``, and prints as its last stdout line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
each operation runs twice, untraced then traced, and the metrics are the
per-layer ones, including ``trace.overhead``.  End-to-end times are
scaled to a reference speed of the machine, sampled all through the run
by ``SpeedSampler``.  The line before it records the machine, the seed,
the measured times and any gate failures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import threading
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 15
N9_PATTERNS = 1 << 36
# The speed sampler: a fixed pure-Python loop timed every SAMPLE_EVERY
# seconds, and the loop's typical time on the machine of baseline.json
# (2-vCPU Xeon VM, 2.1 GHz, Python 3.11.7).
SAMPLE_EVERY = 0.05
SAMPLE_LOOP = 10_000
SAMPLE_S = 0.0008
# and the typical time there of a bare interpreter, ``python -c pass``
BARE_S = 0.055


def machine_facts(workers: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "IHM_WORKERS": os.environ.get("IHM_WORKERS"),
        "start_method": multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
    }


def run_op(wl, inp, tracer=None):
    """One gated operation: (Op or None, errors, spans or None)."""
    spans = None
    try:
        if tracer is not None:
            tracer.install()
        try:
            op = wl.run(inp)
        finally:
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.take()
        errors = wl.check(inp, op)
    except Exception:
        return None, [traceback.format_exc()], spans
    op.out = None  # checked; holding raw outputs would inflate peak_rss_mb
    return op, errors, spans


class SpeedSampler:
    """Samples the speed of the machine in a background thread.

    A virtual machine with a share of a host's processors, such as the
    2-vCPU one of baseline.json, runs the same code up to 30% slower for
    seconds to minutes at a time.  So every ``SAMPLE_EVERY`` seconds this
    thread times a fixed loop, by its own CPU time: that counts the time
    the loop ran and not the time it waited for a processor, so the
    program's own processes do not slow it, while a slower host does.  It
    costs about 2% of one processor.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY):
            t0 = time.thread_time()
            acc = 0
            for i in range(SAMPLE_LOOP):
                acc += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] into one at the
        reference speed: ``SAMPLE_S`` over the mean loop time then."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:  # shorter than SAMPLE_EVERY: the latest sample
            inside = [self.samples[-1][1]]
        return SAMPLE_S / statistics.mean(inside)


def timed_loop(wl, seconds: float, speed: SpeedSampler, tracer=None) -> list[tuple]:
    """Operations in turn until the next would end past ``seconds``.

    With a tracer, each input runs untraced and then traced, so the pair
    gives the tracing overhead on identical work.  Time an interrupted
    scan's workers spend draining is reported as ``drain_s`` and does not
    count against ``seconds``.  Each operation gets the sampler's scale
    over its own run.
    """
    results = []
    spent = 0.0
    k = 0
    while True:
        inp = wl.inputs[k % len(wl.inputs)]
        k += 1
        t = time.perf_counter()
        batch = []
        for tr in (None, tracer) if tracer is not None else (None,):
            t0 = time.perf_counter()
            batch.append(run_op(wl, inp, tr) + (tr is not None,))
            if batch[-1][0] is not None:
                batch[-1][0].scale = speed.scale(t0, time.perf_counter())
        step = time.perf_counter() - t - sum(r[0].drain_s for r in batch if r[0] is not None)
        results += batch
        spent += step
        if spent + step > seconds:
            return results


def setup_seconds() -> tuple[float, list[float]]:
    """Median time, at the reference speed, for a fresh interpreter to
    import the CLI and build its parser; also the measured times.

    Each launch follows one of a bare interpreter, and is scaled by
    ``BARE_S`` over that launch's time: how fast the machine starts a
    process varies apart from how fast it runs one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def launch(*argv: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0

    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        bare = launch("-c", "pass")
        raw.append(launch("-m", "gramfloor.cli", "--help"))
        scaled.append(raw[-1] * BARE_S / bare)
    return statistics.median(scaled), raw


def peak_rss_mb() -> float:
    """Peak resident size of this process plus that of its largest worker.

    Read before ``setup_seconds``: a child started from this process
    takes this process's peak so far as its own, so a set-up interpreter
    would read as large as this process and could outweigh every worker.
    Where the workload has no workers the children's term is zero.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(wl, ops) -> tuple[dict[str, float], list[float]]:
    """The end-to-end metrics, each operation's times scaled to the
    reference speed by its ``scale``; also the measured set-up times."""
    pps = statistics.median(op.patterns / (op.pattern_s * op.scale) for op in ops)
    rss = peak_rss_mb()
    setup, setup_raw = setup_seconds()
    return {
        "wall_s": statistics.median(op.wall * op.scale for op in ops),
        "patterns_per_s": pps,
        "n9_core_h": N9_PATTERNS * wl.cores / pps / 3600.0,
        "resume_s": statistics.median(op.last_leg * op.scale for op in ops),
        "peak_rss_mb": rss,
        "setup_s": setup,
    }, setup_raw


def completed_pairs(results) -> list[tuple]:
    """(untraced, traced) results of each input where both operations ran."""
    return [(plain, traced) for plain, traced in zip(results[0::2], results[1::2])
            if plain[0] is not None and traced[0] is not None]


def per_layer(results, spans_path: str) -> dict[str, float]:
    import tracer

    pairs = completed_pairs(results)
    spans = [traced[2] for _, traced in pairs]
    metrics = tracer.summarize(spans)
    plain_s = sum(plain[0].wall for plain, _ in pairs)
    traced_s = sum(traced[0].wall for _, traced in pairs)
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    metrics["search.abort.drain_s"] = statistics.median(
        traced[0].drain_s for _, traced in pairs)
    tracer.write_spans(spans_path, spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gramfloor", "cli.py")):
        print(f"error: no gramfloor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workers = len(os.sched_getaffinity(0))  # nproc, passed to the program explicitly
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workers, workdir, reference)
        with SpeedSampler() as speed:
            wl.warm_up()
            results = timed_loop(wl, args.seconds, speed,
                                 tracer.Tracer() if args.trace else None)
            ops = [op for op, _, _, is_traced in results if op is not None and not is_traced]
            if not ops or (args.trace and not completed_pairs(results)):
                for _, errors, _, _ in results:
                    print("\n".join(errors), file=sys.stderr)
                print("error: no operation completed", file=sys.stderr)
                return 1
            if args.trace:
                os.makedirs(os.path.join(HERE, ".trace"), exist_ok=True)
                values = per_layer(results, os.path.join(
                    HERE, ".trace", f"{args.workload}-seed{args.seed}.jsonl"))
                setup_raw = None
            else:
                values, setup_raw = end_to_end(wl, ops)
    finally:
        workloads.wait_for_children()
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} "
                           "disagree with BENCHMARK.json")
    failures = [e for _, errors, _, _ in results for e in errors]
    failed = sum(1 for _, errors, _, _ in results if errors)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": len(results),
        "op_wall_s": [op.wall for op in ops],
        "op_scale": [op.scale for op in ops],
        "setup_raw_s": setup_raw,
        "machine": machine_facts(workers), "gate_failures": failures[:20],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
