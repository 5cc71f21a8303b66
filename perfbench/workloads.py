"""The benchmark's workloads: seeded inputs, one timed operation, the gate.

Each workload turns the seed into its inputs up front, so the program only
ever sees generated values.  ``run`` performs one operation and times it;
``check`` compares its outputs with ``reference.json`` and with scalar
recomputation, outside the timed region, and returns what is wrong.
Every call into gramfloor goes through a module attribute
(``search.scan_block``, ``cli.main``) so that the tracer's wrappers, when
installed, see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from gramfloor import charpoly, cli, core, inverse, search


@dataclass
class Op:
    """One timed operation."""

    wall: float  # the whole operation
    last_leg: float  # its final leg: the resumed run on resume-n7, else wall
    patterns: int  # patterns through the scan kernel or the batch inverse
    pattern_s: float  # time those patterns took
    out: dict  # raw outputs for the gate
    drain_s: float = 0.0  # workers still busy after an interrupted scan
    scale: float = 1.0  # reference speed / the machine's during it; set by run.py


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the command line in-process; returns exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    """Hash of a JSON document that ignores its layout."""
    canon = json.dumps(json.loads(text), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _report_errors(text: str, ref: dict, what: str) -> list[str]:
    """A scan report must match the reference outside the two varying fields."""
    got = json.loads(text)
    keys = (set(got) | set(ref)) - {"elapsed", "blocks_completed"}
    return [f"{what}: {k} = {got.get(k)!r}, reference {ref.get(k)!r}"
            for k in sorted(keys) if got.get(k) != ref.get(k)]


def wait_for_children(timeout: float = 120.0) -> float:
    """Block until every worker process this process started has ended."""
    t0 = time.perf_counter()
    while multiprocessing.active_children():
        if time.perf_counter() - t0 > timeout:
            raise RuntimeError("worker processes still running")
        time.sleep(0.005)
    return time.perf_counter() - t0


def _expect(cond: bool, message: str, errors: list[str]) -> None:
    if not cond:
        errors.append(message)


class Workload:
    name = ""
    cores = 1  # processes that do the pattern work

    def __init__(self, seed: int, workers: int, workdir: str, reference: dict):
        self.rng = random.Random(seed)
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.ref = reference
        self.inputs: list = [None]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, inp) -> Op:
        raise NotImplementedError

    def check(self, inp, op: Op) -> list[str]:
        raise NotImplementedError


class VerifyN7(Workload):
    """``gramfloor verify --n 7`` on the process pool, default block size."""

    name = "verify-n7"

    def __init__(self, *args):
        super().__init__(*args)
        self.cores = self.workers

    def warm_up(self) -> None:
        _cli(["verify", "--n", "6", "--workers", str(self.workers)])

    def run(self, inp) -> Op:
        t0 = time.perf_counter()
        rc, out, _ = _cli(["verify", "--n", "7", "--workers", str(self.workers)])
        wall = time.perf_counter() - t0
        return Op(wall, wall, 1 << 21, wall, {"rc": rc, "stdout": out})

    def check(self, inp, op: Op) -> list[str]:
        errors = _report_errors(op.out["stdout"], self.ref["scan_n7"], "verify")
        _expect(op.out["rc"] == self.ref["exit_codes"]["verify"],
                f"verify exit code {op.out['rc']}", errors)
        return errors


class KernelN9(Workload):
    """``search.scan_block`` in one process over windows of the n = 9 space."""

    name = "kernel-n9"
    WINDOW = 1 << 16
    N_WINDOWS = 64

    def __init__(self, *args):
        super().__init__(*args)
        y0i = self.ref["kernel_n9"]["y0_index"]
        self.y0_start = y0i - y0i % self.WINDOW
        # the Y0 window first, then distinct seed-chosen ones; run in turn
        n_windows = (1 << 36) // self.WINDOW
        starts = {self.y0_start}
        self.inputs = [self.y0_start]
        while len(self.inputs) < self.N_WINDOWS:
            s = self.rng.randrange(n_windows) * self.WINDOW
            if s not in starts:
                starts.add(s)
                self.inputs.append(s)

    def warm_up(self) -> None:
        # the first window of a process runs measurably slower than later ones
        for s in self.inputs[1:3]:
            search.scan_block(9, s, s + self.WINDOW)

    def run(self, start) -> Op:
        t0 = time.perf_counter()
        res = search.scan_block(9, start, start + self.WINDOW)
        dt = time.perf_counter() - t0
        return Op(dt, dt, self.WINDOW, dt, {"result": res})

    def check(self, start, op: Op) -> list[str]:
        res = op.out["result"]
        ref = self.ref["kernel_n9"]
        z0 = ref["z0_value"]
        errors: list[str] = []
        where = f"window {start}"
        _expect(res.count == self.WINDOW, f"{where}: scanned {res.count}", errors)
        _expect(res.best >= z0, f"{where}: value {res.best!r} below Y0's {z0!r}", errors)
        lowest = min(res.candidates, key=lambda c: (c[1], c[0]), default=None)
        _expect(lowest is not None and lowest[1] == res.best,
                f"{where}: no candidate carries the minimum", errors)
        if lowest is not None:
            idx, val = lowest
            scalar = charpoly.smallest_eigenvalue(core.gram(core.from_index(9, idx)))
            _expect(val == scalar,
                    f"{where}: kernel {val!r} != scalar {scalar!r} at {idx}", errors)
        if start == self.y0_start:
            y0i = ref["y0_index"]
            _expect(search.y0_index(9) == y0i, "y0_index(9) moved", errors)
            scalar = charpoly.smallest_eigenvalue(core.gram(core.y0(9)))
            _expect(scalar == z0, f"scalar Y0 value {scalar!r} != {z0!r}", errors)
            _expect(res.best == z0, f"Y0 window best {res.best!r} != {z0!r}", errors)
            _expect((y0i, z0) in res.candidates, "Y0 missing from its window", errors)
        return errors


class _Stop(Exception):
    """Raised by the progress callback to interrupt a scan."""


class ResumeN7(Workload):
    """An n = 7 scan in small checkpointed blocks, stopped and resumed."""

    name = "resume-n7"
    BLOCK = 1 << 10
    N_BLOCKS = (1 << 21) // BLOCK

    def __init__(self, *args):
        super().__init__(*args)
        self.cores = self.workers
        # stop near half way; a narrow band keeps the resumed leg's length,
        # and so resume_s, nearly independent of the seed
        lo, hi = int(0.49 * self.N_BLOCKS), int(0.51 * self.N_BLOCKS)
        self.inputs = [self.rng.randint(lo, hi) for _ in range(8)]
        self.ckpt = os.path.join(self.workdir, "resume.ckpt.json")

    def _cycle(self, n: int, stop: int) -> dict:
        if os.path.exists(self.ckpt):
            os.unlink(self.ckpt)

        def progress(done: int, total: int) -> None:
            if done >= stop:
                raise _Stop

        out: dict = {"stopped": False}
        t0 = time.perf_counter()
        try:
            search.exhaustive_min(n, workers=self.workers, block_size=self.BLOCK,
                                  checkpoint_path=self.ckpt, progress=progress)
        except _Stop:
            out["stopped"] = True
        t1 = time.perf_counter()
        # The interrupted scan's pool can go on with its queued blocks after
        # the exception has left exhaustive_min.  That time is reported as
        # drain_s; the resumed leg starts only once those workers are gone.
        out["drain_s"] = wait_for_children()
        t2 = time.perf_counter()
        out["rc"], out["stdout"], out["stderr"] = _cli([
            "uniqueness", "--n", str(n), "--workers", str(self.workers),
            "--block-size", str(self.BLOCK), "--checkpoint", self.ckpt,
        ])
        t3 = time.perf_counter()
        os.unlink(self.ckpt)
        out["legs"] = (t1 - t0, t3 - t2)
        return out

    def warm_up(self) -> None:
        self._cycle(6, 16)

    def run(self, stop) -> Op:
        out = self._cycle(7, stop)
        first, last = out["legs"]
        return Op(first + last, last, 1 << 21, first + last, out, out["drain_s"])

    def check(self, stop, op: Op) -> list[str]:
        out = op.out
        errors = _report_errors(out["stdout"], self.ref["scan_n7"], "resumed uniqueness")
        _expect(out["stopped"], f"scan was not interrupted at block {stop}", errors)
        _expect(out["rc"] == self.ref["exit_codes"]["uniqueness"],
                f"uniqueness exit code {out['rc']}", errors)
        first = next((ln for ln in out["stderr"].splitlines()
                      if ln.startswith("blocks ")), "")
        _expect(first == f"blocks {stop + 1}/{self.N_BLOCKS}",
                f"resume did not continue after block {stop}: {first!r}", errors)
        return errors


def _phi(m: int) -> int:
    result, k, p = m, m, 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


class ExactN48(Workload):
    """The exact-integer layers: extremal, gcd-check, bounds, batch inverse."""

    name = "exact-n48"
    BATCH = 1 << 16
    SAMPLE = 8

    def __init__(self, *args):
        super().__init__(*args)
        # divisor sets of 24 elements: factor-closed and all of one size
        n_div = [0] * 2400
        for d in range(1, 2400):
            for m in range(d, 2400, d):
                n_div[m] += 1
        bases = [m for m in range(360, 2400) if n_div[m] == 24]
        nrng = np.random.default_rng(self.seed)
        self.inputs = []
        for _ in range(4):
            base = self.rng.choice(bases)
            divisors = [d for d in range(1, base + 1) if base % d == 0]
            idx = nrng.integers(0, 1 << 36, size=self.BATCH, dtype=np.int64)
            sample = sorted(self.rng.sample(range(self.BATCH), self.SAMPLE))
            self.inputs.append((divisors, idx, sample))

    @staticmethod
    def _set_arg(divisors: list[int]) -> str:
        return ",".join(map(str, divisors))

    def warm_up(self) -> None:
        _cli(["extremal", "--n", "12"])
        for divisors, idx, _ in self.inputs:
            _cli(["gcd-check", "--set", self._set_arg(divisors)])
        _cli(["bounds", "--n-max", "6"])
        inverse.gram_inverse_batch(9, self.inputs[0][1][:1024])

    def run(self, inp) -> Op:
        divisors, idx, _ = inp
        out: dict = {}
        t0 = time.perf_counter()
        out["extremal"] = _cli(["extremal", "--n", "48"])
        out["gcd"] = _cli(["gcd-check", "--set", self._set_arg(divisors)])
        out["bounds"] = _cli(["bounds", "--n-max", "6"])
        tb = time.perf_counter()
        out["batch"] = inverse.gram_inverse_batch(9, idx)
        t1 = time.perf_counter()
        return Op(t1 - t0, t1 - t0, len(idx), t1 - tb, out)

    def check(self, inp, op: Op) -> list[str]:
        divisors, idx, sample = inp
        ref = self.ref["exact"]
        out = op.out
        errors: list[str] = []

        rc, text, _ = out["extremal"]
        _expect(rc == 0, f"extremal exit code {rc}", errors)
        doc = json.loads(text)
        _expect(doc["sign_pattern_ok"] and doc["trace_equality_ok"],
                "extremal --n 48 flags are false", errors)
        _expect(_digest(text) == ref["extremal_n48_sha256"],
                "extremal --n 48 output differs from the reference", errors)

        rc, text, _ = out["gcd"]
        _expect(rc == 0, f"gcd-check exit code {rc}", errors)
        doc = json.loads(text)
        phi = str(math.prod(_phi(d) for d in divisors))
        _expect(doc["set"] == divisors, "gcd-check echoed another set", errors)
        _expect(doc["hong_loewy"]["holds"], "gcd-check bound does not hold", errors)
        smith = doc.get("smith", {})
        _expect(smith.get("equal") is True and smith.get("determinant") == phi
                and smith.get("phi_product") == phi,
                f"gcd-check Smith determinant {smith} != phi product {phi}", errors)

        rc, text, _ = out["bounds"]
        _expect(rc == 0, f"bounds exit code {rc}", errors)
        _expect(all(row["holds"] for row in json.loads(text)),
                "bounds --n-max 6 has a failing row", errors)
        _expect(_digest(text) == ref["bounds_6_sha256"],
                "bounds --n-max 6 output differs from the reference", errors)

        batch = out["batch"]
        _expect(batch.shape == (len(idx), 9, 9), f"batch shape {batch.shape}", errors)
        _expect(bool((batch == batch.transpose(0, 2, 1)).all()),
                "batch Gram inverses are not symmetric", errors)
        for k in sample:
            scalar = inverse.gram_inverse(core.from_index(9, int(idx[k]))).entries
            _expect(batch[k].tolist() == [list(r) for r in scalar],
                    f"batch inverse of pattern {int(idx[k])} != scalar", errors)
        return errors


WORKLOADS = {w.name: w for w in (VerifyN7, KernelN9, ResumeN7, ExactN48)}
