"""The benchmark's correctness gate: a corrupted reference must fail it.

    python3 -m pytest -p no:cacheprovider perfbench/test_gate.py

Each case builds one workload against a copy of reference.json with one
expected value changed, runs one gated operation through ``run.run_op``,
and requires gate errors: those are what count an operation as failed.
A last case requires none from the intact reference.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402


def _one_ulp_up(section: str, key: str):
    def corrupt(ref: dict) -> None:
        ref[section][key] = math.nextafter(ref[section][key], math.inf)
    return corrupt


def _set(section: str, key: str, value):
    def corrupt(ref: dict) -> None:
        ref[section][key] = value
    return corrupt


CORRUPTIONS = {
    "verify-n7": _set("scan_n7", "argmin_indices", [0, 1398445]),
    "resume-n7": _one_ulp_up("scan_n7", "c_n_estimate"),
    "kernel-n9": _one_ulp_up("kernel_n9", "z0_value"),
    "exact-n48": _set("exact", "extremal_n48_sha256", "0" * 64),
}


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _errors(workload: str, reference: dict, workdir: str) -> list[str]:
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.WORKLOADS[workload](1, nproc, workdir, reference)
    try:
        op, errors, _ = run.run_op(wl, wl.inputs[0])
    finally:
        workloads.wait_for_children()
    assert op is not None, errors
    return errors


@pytest.fixture
def workdir():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    path = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_reference_fails_the_gate(workload, workdir):
    ref = _reference()
    CORRUPTIONS[workload](ref)
    assert _errors(workload, ref, workdir)


def test_intact_reference_passes_the_gate(workdir):
    assert _errors("kernel-n9", _reference(), workdir) == []
