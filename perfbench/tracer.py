"""Span tracer for gramfloor, attached from outside the program.

``Tracer.install`` replaces each traced public function by a timing wrapper
in every gramfloor module namespace that binds it, because consumers import
names (``search.power_sums`` is what the scan calls, not
``charpoly.power_sums``).  ``uninstall`` puts the originals back, so the
untraced runs execute the program exactly as shipped.

Spans in the main process form a tree (each records the span that caused it), which
gives self time: a span's duration minus the part its children cover.
``search.scan_block`` also runs in the pool's worker processes; a pool
initializer wraps it there and each call writes (start, end, patterns) into
a shared array, so nothing is sent over a pipe while the scan runs.
Everything stays in memory until ``take`` collects one operation's spans.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import multiprocessing
import os
import statistics
import sys
import time

_CHUNK = 1 << 14
_WORKER_CAPACITY = 1 << 16  # worker scan_block calls per operation

# (layer, defining module, function); the layer name is what metrics use
TRACED = (
    ("cli.main", "gramfloor.cli", "main"),
    ("search.exhaustive_min", "gramfloor.search", "exhaustive_min"),
    ("search.scan_block", "gramfloor.search", "scan_block"),
    ("search.merge_partials", "gramfloor.search", "merge_partials"),
    ("search.checkpoint_save", "gramfloor.search", "checkpoint_save"),
    ("search.checkpoint_load", "gramfloor.search", "checkpoint_load"),
    ("charpoly.power_sums", "gramfloor.charpoly", "power_sums"),
    ("charpoly.newton_identities", "gramfloor.charpoly", "newton_identities"),
    ("charpoly.compare_smallest_roots", "gramfloor.charpoly", "compare_smallest_roots"),
    ("charpoly.smallest_eigenvalue", "gramfloor.charpoly", "smallest_eigenvalue"),
    ("core.mat_mul", "gramfloor.core", "mat_mul"),
    ("extremal.trace_equality_check", "gramfloor.extremal", "trace_equality_check"),
    ("extremal.z0_inverse_closed", "gramfloor.extremal", "z0_inverse_closed"),
    ("extremal.sign_pattern_check", "gramfloor.extremal", "sign_pattern_check"),
    ("inverse.gram_inverse", "gramfloor.inverse", "gram_inverse"),
    ("inverse.gram_inverse_batch", "gramfloor.inverse", "gram_inverse_batch"),
    ("bounds.bounds_table", "gramfloor.bounds", "bounds_table"),
    ("bounds.hong_loewy_check", "gramfloor.bounds", "hong_loewy_check"),
    ("bounds.smith_determinant_check", "gramfloor.bounds", "smith_determinant_check"),
)

# span fields
_NAME, _T0, _T1, _CHILD, _PARENT, _INFO = range(6)


def _gramfloor_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "gramfloor" or name.startswith("gramfloor.")]


def _rebind(original, replacement, undo):
    """Point every gramfloor binding of ``original`` at ``replacement``."""
    for mod in _gramfloor_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _worker_init(buf, count, inner, inner_args):
    """Pool initializer: wrap scan_block in this worker process."""
    from gramfloor import search

    bound = search.scan_block
    scan = getattr(bound, "__wrapped__", bound)  # forked from a traced main process
    capacity = len(buf) // 3

    @functools.wraps(scan)
    def traced(n, start, stop, *rest, **kwargs):
        t0 = time.perf_counter()
        result = scan(n, start, stop, *rest, **kwargs)
        t1 = time.perf_counter()
        with count.get_lock():
            i = count.value
            count.value = i + 1
        if i < capacity:
            buf[3 * i:3 * i + 3] = [t0, t1, float(stop - start)]
        return result

    _rebind(bound, traced, [])
    if inner is not None:
        inner(*inner_args)


class Tracer:
    """Collects spans of one process tree while installed."""

    def __init__(self):
        ctx = multiprocessing.get_context()
        self._wbuf = ctx.RawArray("d", 3 * _WORKER_CAPACITY)
        self._wcount = ctx.Value("q", 0)
        self._undo: list = []
        self._stack: list[int] = []
        self._last_candidates = 0
        self.spans: list[list] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for layer, module, func in TRACED:
            original = getattr(importlib.import_module(module), func)
            _rebind(original, self._wrap(layer, original), self._undo)
        _rebind(concurrent.futures.ProcessPoolExecutor, self._pool, self._undo)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def _pool(self, *args, initializer=None, initargs=(), **kwargs):
        return concurrent.futures.ProcessPoolExecutor(
            *args,
            initializer=_worker_init,
            initargs=(self._wbuf, self._wcount, initializer, initargs),
            **kwargs,
        )

    def _wrap(self, layer, fn):
        probe = getattr(self, "_probe_" + layer.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [layer, 0.0, 0.0, 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_T1] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][_CHILD] += rec[_T1] - rec[_T0]
            if probe is not None:
                rec[_INFO] = probe(args, result)
            return result

        return traced

    # counts taken where the work happens
    def _probe_scan_block(self, args, result):
        return args[2] - args[1]

    def _probe_gram_inverse_batch(self, args, result):
        return len(args[1])

    def _probe_checkpoint_save(self, args, result):
        return os.path.getsize(args[0])

    def _probe_merge_partials(self, args, result):
        self._last_candidates = len(result.candidates)
        return self._last_candidates

    def _probe_exhaustive_min(self, args, result):
        # the final merged state is what the exact adjudication receives
        return (len(result.argmin_indices), self._last_candidates)

    # -- collection --------------------------------------------------------

    def take(self) -> dict:
        """Spans recorded since the last call, main process and workers."""
        count = self._wcount.value
        if count > len(self._wbuf) // 3:
            raise RuntimeError(f"worker span buffer overflow: {count} calls")
        workers = [tuple(self._wbuf[3 * i:3 * i + 3]) for i in range(count)]
        self._wcount.value = 0
        spans, self.spans = self.spans, []
        return {"spans": spans, "workers": workers}


def layer_metrics(op: dict) -> tuple[dict[str, float], list[float]]:
    """Per-layer totals of one operation, plus its scan_block durations."""
    spans = op["spans"]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for rec in spans:
        dur = rec[_T1] - rec[_T0]
        calls[rec[_NAME]] = calls.get(rec[_NAME], 0) + 1
        total[rec[_NAME]] = total.get(rec[_NAME], 0.0) + dur
        self_s[rec[_NAME]] = self_s.get(rec[_NAME], 0.0) + dur - rec[_CHILD]

    def info(layer):
        return [rec[_INFO] for rec in spans
                if rec[_NAME] == layer and rec[_INFO] is not None]

    scan_durs = [rec[_T1] - rec[_T0] for rec in spans if rec[_NAME] == "search.scan_block"]
    scan_durs += [t1 - t0 for t0, t1, _ in op["workers"]]
    scan_patterns = sum(info("search.scan_block")) + sum(p for _, _, p in op["workers"])
    scan_s = sum(scan_durs)
    saves = [rec for rec in spans if rec[_NAME] == "search.checkpoint_save"]
    batch_patterns = sum(info("inverse.gram_inverse_batch"))
    batch_s = total.get("inverse.gram_inverse_batch", 0.0)
    finals = info("search.exhaustive_min")
    adjudicated = sum(c for _, c in finals)

    m = {
        "search.scan_block.calls": len(scan_durs),
        "search.scan_block.worker_calls": len(op["workers"]),
        "search.scan_block.patterns": scan_patterns,
        "search.scan_block.s": scan_s,
        "search.scan_block.ms_per_chunk":
            1e3 * scan_s * _CHUNK / scan_patterns if scan_patterns else 0.0,
        "search.checkpoint_save.bytes": sum(info("search.checkpoint_save")),
        "search.checkpoint_save.last_ms":
            1e3 * (saves[-1][_T1] - saves[-1][_T0]) if saves else 0.0,
        "search.candidates.max": max(info("search.merge_partials"), default=0),
        "search.candidates.useful":
            sum(a for a, _ in finals) / adjudicated if adjudicated else 0.0,
        "search.driver.wait_s": self_s.get("search.exhaustive_min", 0.0),
        "inverse.gram_inverse_batch.ms_per_chunk":
            1e3 * batch_s * _CHUNK / batch_patterns if batch_patterns else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for layer in ("search.checkpoint_save", "search.checkpoint_load",
                  "search.merge_partials", "charpoly.power_sums",
                  "charpoly.newton_identities", "charpoly.compare_smallest_roots",
                  "charpoly.smallest_eigenvalue", "core.mat_mul"):
        m[layer + ".calls"] = calls.get(layer, 0)
        m[layer + ".s"] = total.get(layer, 0.0)
    for layer in ("extremal.trace_equality_check", "extremal.z0_inverse_closed",
                  "extremal.sign_pattern_check", "inverse.gram_inverse",
                  "inverse.gram_inverse_batch", "bounds.bounds_table",
                  "bounds.hong_loewy_check", "bounds.smith_determinant_check"):
        m[layer + ".s"] = total.get(layer, 0.0)
    return m, scan_durs


def summarize(ops: list[dict]) -> dict[str, float]:
    """Median over operations of each per-operation total; p90 over all calls."""
    per_op = []
    durations: list[float] = []
    for op in ops:
        m, durs = layer_metrics(op)
        per_op.append(m)
        durations += durs
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    if len(durations) >= 2:
        p90 = statistics.quantiles(durations, n=10)[-1]
    else:
        p90 = durations[0] if durations else 0.0
    out["search.scan_block.p90_ms"] = 1e3 * p90
    return out


def write_spans(path: str, ops: list[dict]) -> None:
    """One JSON line per span: op, layer, start, end, self, parent, info."""
    with open(path, "w") as fh:
        for k, op in enumerate(ops):
            for rec in op["spans"]:
                fh.write(json.dumps({
                    "op": k, "layer": rec[_NAME], "t0": rec[_T0], "t1": rec[_T1],
                    "self_s": rec[_T1] - rec[_T0] - rec[_CHILD],
                    "parent": rec[_PARENT], "info": rec[_INFO],
                }) + "\n")
            for t0, t1, patterns in op["workers"]:
                fh.write(json.dumps({
                    "op": k, "layer": "search.scan_block", "t0": t0, "t1": t1,
                    "self_s": t1 - t0, "parent": None, "worker": True,
                    "info": int(patterns),
                }) + "\n")
