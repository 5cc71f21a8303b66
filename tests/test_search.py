"""Exhaustive scan engine: blocks, the prefilter, merging, checkpoints, determinism."""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gramfloor
from gramfloor import search
from gramfloor.charpoly import smallest_eigenvalue
from gramfloor.core import encode, from_index, gram, to_dense, tri, y0
from gramfloor.search import (
    DEFAULT_BLOCK_SIZE,
    EMPTY_PARTIAL,
    SEARCH_N_MAX,
    TIE_EPS,
    Checkpoint,
    CheckpointError,
    PartialResult,
    SearchReport,
    checkpoint_load,
    checkpoint_save,
    exhaustive_min,
    merge_partials,
    scan_block,
    y0_index,
)
from oracles import batched_values, block_ranges, unfiltered_scan_block

FROZEN_FLOORS = {
    1: 1.0,
    2: 0.38196601125010515,
    3: 0.19806226419516174,
    4: 0.08700311195850605,
    5: 0.03706833470405734,
}


def _without_timing(report: SearchReport) -> dict:
    d = json.loads(report.to_json())
    d.pop("elapsed")
    d.pop("blocks_completed")
    return d


def test_exhaustive_min_frozen_floors():
    for n, expected in FROZEN_FLOORS.items():
        report = exhaustive_min(n)
        assert report.c_n_estimate == expected
        assert report.z0_value == expected
        assert report.argmin_indices == (y0_index(n),)
        assert report.conjecture_holds and report.unique_argmin
        assert report.total_scanned == 1 << tri(n)


def test_scan_values_match_scalar_pipeline():
    n = 4
    result = scan_block(n, 0, 1 << tri(n))
    for bits, value in result.candidates:
        assert value == smallest_eigenvalue(gram(from_index(n, bits)))


@pytest.mark.parametrize("n", range(1, 10))
def test_kernel_values_match_scalar_pipeline_bitwise(n):
    # every pattern up to n = 5; beyond, a seeded sample plus Y0
    total = 1 << tri(n)
    if n <= 5:
        indices = list(range(total))
    else:
        rng = random.Random(n)
        indices = [rng.randrange(total) for _ in range(400)] + [y0_index(n)]
    # the kernel's values, and the batched reference of unfiltered_scan_block
    idx = np.array(indices, dtype=np.int64)
    values = search._values_for(n, idx).tolist()
    reference = batched_values(n, idx).tolist()
    for i, value, ref in zip(indices, values, reference):
        scalar = smallest_eigenvalue(gram(from_index(n, i)))
        assert value == scalar and ref == scalar, i


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_kernel_refuses_a_non_unit_determinant(monkeypatch, n):
    # adding n to p_n keeps every Newton-identity division exact but moves
    # e_n off 1, which only the unit-determinant check then catches
    real_power_sums = search._power_sums_for

    def shifted(n, idx):
        p = real_power_sums(n, idx)
        p[n - 1] += n
        return p

    monkeypatch.setattr(search, "_power_sums_for", shifted)
    with pytest.raises(ArithmeticError, match="unit determinant"):
        search._values_for(n, np.array([y0_index(n)], dtype=np.int64))


@pytest.mark.parametrize("chunk", [7, 1 << 12, 1 << 14])
def test_scan_block_is_independent_of_chunk_size(monkeypatch, chunk):
    reference = scan_block(6, 0, 1 << 15)
    monkeypatch.setattr(search, "_CHUNK", chunk)
    assert scan_block(6, 0, 1 << 15) == reference


# block sizes against chunk sizes; a chunk at least as long as the block
# scans it as the default chunk does, so only one such pair is kept
_SWEEP = [(block, chunk) for block in (1, 3, 64, 4096) for chunk in (2, 7, 64, 4096)
          if chunk < block or chunk == 4096]


def _sweep_blocks(block, chunk, n_max, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", chunk)
    for n in range(1, n_max + 1):
        for start, stop in block_ranges(n, block):
            expected = unfiltered_scan_block(n, start, stop)
            assert scan_block(n, start, stop) == expected, (n, start, stop)


@pytest.mark.parametrize("block, chunk", _SWEEP)
def test_prefilter_keeps_every_block_result(monkeypatch, block, chunk):
    # every block of every n <= 5, and of n = 6 where blocks and chunks are
    # long, equals the scan that values every pattern
    _sweep_blocks(block, chunk, 6 if min(block, chunk) >= 64 else 5, monkeypatch)


@pytest.mark.longrun
@pytest.mark.skipif(
    os.environ.get("GRAMFLOOR_LONGRUN") != "1",
    reason="block sweep of n = 6 at every block and chunk size enabled by GRAMFLOOR_LONGRUN=1",
)
def test_prefilter_keeps_every_block_result_up_to_n6(monkeypatch):
    for block, chunk in _SWEEP:
        _sweep_blocks(block, chunk, 6, monkeypatch)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_prefilter_keeps_seeded_windows(n):
    # windows that start off the chunk grid, and the one holding Y0
    width = 1 << 15
    rng = random.Random(1000 + n)
    y0i = y0_index(n)
    starts = [rng.randrange((1 << tri(n)) - width) for _ in range(3)]
    starts.append(y0i - y0i % width)
    for start in starts:
        result = scan_block(n, start, start + width)
        assert result == unfiltered_scan_block(n, start, start + width), (n, start)
    assert (y0i, smallest_eigenvalue(gram(y0(n)))) in result.candidates


def _block_diagonal(n, blocks):
    """Index of the size-n pattern with ``blocks`` down its diagonal, then I."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return encode(rows).bits


_COPY = [[1, 0], [1, 1]]  # Y Y^T = [[1, 1], [1, 2]]
# patterns whose least eigenvalue is multiple, where the Newton value can
# sit far below it: the identity, copies of one 2 x 2 block, three of Y0(3)
_DEGENERATE = (
    [(n, 0) for n in range(2, 10)]
    + [(n, _block_diagonal(n, [_COPY] * 3)) for n in range(6, 10)]
    + [(n, _block_diagonal(n, [_COPY] * 4)) for n in (8, 9)]
    + [(9, _block_diagonal(9, [to_dense(y0(3)).entries] * 3))]
)


@pytest.mark.parametrize("n, index", _DEGENERATE)
def test_prefilter_keeps_multiple_eigenvalue_patterns(n, index):
    # at t = its own value the pattern must be valued; the Cholesky alone
    # would place it above t, and only the determinant guard keeps it
    value = smallest_eigenvalue(gram(from_index(n, index)))
    counts = search._pair_counts(n, np.array([index], dtype=np.int64))
    assert search._reachable(n, counts, value)[0]


@pytest.mark.parametrize("n", range(2, 10))
def test_prefilter_drops_patterns_clearly_above_the_threshold(n):
    counts = search._pair_counts(n, np.array([y0_index(n)], dtype=np.int64))
    z0 = smallest_eigenvalue(gram(y0(n)))
    assert not search._reachable(n, counts, z0 - 1e-3)[0]
    assert search._reachable(n, counts, z0 - search._MARGIN / 4)[0]


def test_margin_covers_twice_the_cholesky_error():
    # float32 Cholesky of A = Z - sI (Higham, Accuracy and Stability of
    # Numerical Algorithms, Thm 10.3): R^T R = A + dA, |dA| <= g |R^T||R|
    # with g = gamma_{n+1}, so ||dA||_2 <= g ||R||_F^2 <= g tr(A) / (1 - g)
    # and tr(A) <= tr Z <= n(n+1)/2.  Rounding s and the diagonal of A to
    # float32 adds at most 2 (n + 1) u
    u = 2.0 ** -24
    for n in range(1, SEARCH_N_MAX + 1):
        g = (n + 1) * u / (1 - (n + 1) * u)
        e = g / (1 - g) * n * (n + 1) / 2 + 2 * (n + 1) * u
        assert search._MARGIN > 2 * e, n


@pytest.mark.parametrize("pick", ["negated", "first", "last", "breakdown"])
def test_pick_only_steers_the_filter(monkeypatch, pick):
    # a block's threshold starts at the value of one pattern, the one whose
    # Cholesky at shift 0 has the least squared pivot; steered to a pattern
    # the pivots rank last, to a fixed position of the chunk, or to one
    # whose factor broke down, the pick costs only valued patterns, and the
    # result never moves
    real_cholesky = search._cholesky

    def steered(n, counts, s):
        piv = real_cholesky(n, counts, s)
        if s != 0.0:
            return piv
        if pick == "negated":
            return -piv
        if pick == "breakdown":
            piv[1:, piv.shape[1] // 2] = np.nan
            return piv
        fixed = np.zeros_like(piv)
        fixed[:, 0 if pick == "first" else -1] = -1.0
        return fixed

    valued = []
    real_values = search._values_for

    def counted(n, idx):
        valued.append(idx.size)
        return real_values(n, idx)

    for n, chunk in ((5, 64), (6, 512), (7, 4096)):
        monkeypatch.setattr(search, "_CHUNK", chunk)
        blocks = block_ranges(n, 4 * chunk)[:16]
        expected = [unfiltered_scan_block(n, start, stop) for start, stop in blocks]
        with monkeypatch.context() as patch:
            patch.setattr(search, "_cholesky", steered)
            patch.setattr(search, "_values_for", counted)
            for (start, stop), want in zip(blocks, expected):
                valued.clear()
                assert scan_block(n, start, stop) == want, (n, start)
                # the pick alone, then the patterns the filter keeps
                assert valued[0] == 1, (n, start, valued)


def test_filter_reads_the_counts_of_its_chunk(monkeypatch):
    # the counts the filter of each chunk reads are that chunk's own,
    # whatever the kernel computed in between, the pick's among it
    chunk = 64
    seen = []
    real_reachable = search._reachable

    def recorded(n, counts, t):
        seen.append(counts.copy())
        return real_reachable(n, counts, t)

    monkeypatch.setattr(search, "_reachable", recorded)
    monkeypatch.setattr(search, "_CHUNK", chunk)
    for start, stop in block_ranges(6, 4 * chunk)[:8]:
        seen.clear()
        assert scan_block(6, start, stop) == unfiltered_scan_block(6, start, stop)
        lows = range(start, stop, chunk)
        assert len(seen) == len(lows), start
        for lo, counts in zip(lows, seen):
            own = search._pair_counts(6, np.arange(lo, lo + chunk, dtype=np.int64))
            assert np.array_equal(counts, own), lo


def _check_capped_blocks(n, blocks, cap):
    # each block capped at ``cap`` against the scan that values every
    # pattern: equal when its minimum is at most the cap, and otherwise
    # equal on every near-tie at or below cap + TIE_EPS, with a minimum
    # that is the least of its own candidates' values or, with none, inf;
    # merged over the blocks, the two agree.  Returns the capped results
    capped, merged, unfiltered = [], EMPTY_PARTIAL, EMPTY_PARTIAL
    for start, stop in blocks:
        c = scan_block(n, start, stop, cap)
        u = unfiltered_scan_block(n, start, stop)
        if u.best <= cap:
            assert c == u, (n, start, stop)
        else:
            low = [x for x in u.candidates if x[1] <= cap + TIE_EPS]
            assert c.count == u.count, (n, start, stop)
            assert [x for x in c.candidates if x[1] <= cap + TIE_EPS] == low, (n, start)
            assert c.best == min((v for _, v in c.candidates), default=float("inf"))
        capped.append(c)
        merged = merge_partials(merged, c)
        unfiltered = merge_partials(unfiltered, u)
    assert merged == unfiltered, n
    return capped


@pytest.mark.parametrize("block", [1, 7, 64, 1024])
def test_blocks_capped_at_y0s_value_merge_as_the_unfiltered_scan(block):
    for n in range(1, 6):
        _check_capped_blocks(n, block_ranges(n, block), smallest_eigenvalue(gram(y0(n))))


@pytest.mark.parametrize("n", [6, 7])
def test_capped_windows_merged_with_y0s_block_match_the_unfiltered_scan(n):
    width = 1 << 12
    rng = random.Random(2000 + n)
    y0i = y0_index(n)
    cap = smallest_eigenvalue(gram(y0(n)))
    capped = []
    for block in (7, 64, 1024):
        y0_start = y0i - y0i % block
        for _ in range(2):
            start = rng.randrange((1 << tri(n)) - width)
            window = [(lo, min(lo + block, start + width))
                      for lo in range(start, start + width, block)]
            capped += _check_capped_blocks(n, [(y0_start, y0_start + block)] + window, cap)
    # blocks that kept no pattern at all return (count, inf, ())
    assert any(c.best == float("inf") and not c.candidates for c in capped)


def test_scan_block_refuses_sizes_beyond_exactness_bound():
    with pytest.raises(ValueError, match="exhaustive scan supports"):
        scan_block(SEARCH_N_MAX + 1, 0, 16)


def test_exactness_guard_survives_optimize():
    # python -O strips asserts; the 2^53 guard must still refuse n = 10,
    # and the packed decoder n = 12, whose 66 bits overflow an int64
    code = (
        "import numpy as np\n"
        "from gramfloor.core import row_masks\n"
        "from gramfloor.search import scan_block\n"
        "for call in (lambda: scan_block(10, 0, 16),\n"
        "             lambda: row_masks(12, np.zeros(1, dtype=np.int64))):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    tree = str(Path(gramfloor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [tree, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]


def test_scan_block_is_chunk_independent():
    full = scan_block(5, 0, 1024)
    halves = merge_partials(scan_block(5, 0, 512), scan_block(5, 512, 1024))
    assert full == halves


def test_determinism_across_workers_and_blocks():
    base = _without_timing(exhaustive_min(5, workers=1, block_size=16))
    for workers in (1, 2):
        for block_size in (16, 1024):
            report = exhaustive_min(5, workers=workers, block_size=block_size)
            assert _without_timing(report) == base


def test_report_json_round_trip():
    report = exhaustive_min(4)
    assert SearchReport.from_json(report.to_json()) == report
    assert SearchReport.from_json(report.to_json(indent=2)) == report
    # the payload lists the fields in their declared order
    fixed = SearchReport(3, 8, 0.25, (5,), 0.25, True, True, 1.5, 2)
    text = (
        '{"n": 3, "total_scanned": 8, "c_n_estimate": 0.25, "argmin_indices": [5], '
        '"z0_value": 0.25, "conjecture_holds": true, "unique_argmin": true, '
        '"elapsed": 1.5, "blocks_completed": 2}'
    )
    assert fixed.to_json() == text
    assert fixed.to_json(indent=2) == json.dumps(json.loads(text), indent=2)
    assert SearchReport.from_json(text) == fixed


def test_size_validation():
    with pytest.raises(ValueError):
        exhaustive_min(0)
    with pytest.raises(ValueError):
        exhaustive_min(10)
    with pytest.raises(ValueError):
        exhaustive_min(4, workers=0)
    with pytest.raises(ValueError, match="checkpoint"):
        exhaustive_min(9)


@pytest.mark.parametrize("block_size", [0, -1])
def test_bad_block_size_fails_before_y0_is_valued(monkeypatch, block_size):
    def unreachable(*args):
        raise AssertionError("Y0 valued before the block size was checked")

    monkeypatch.setattr(search, "smallest_eigenvalue", unreachable)
    with pytest.raises(ValueError, match="block size must be positive"):
        exhaustive_min(4, block_size=block_size)


def test_floor_sequence_is_decreasing():
    floors = [exhaustive_min(n).c_n_estimate for n in range(1, 7)]
    assert all(a > b for a, b in zip(floors, floors[1:]))


def test_merge_identity_and_commutativity():
    a = scan_block(4, 0, 32)
    b = scan_block(4, 32, 64)
    assert merge_partials(a, EMPTY_PARTIAL) == a
    assert merge_partials(EMPTY_PARTIAL, a) == a
    assert merge_partials(a, b) == merge_partials(b, a)


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6))
def test_merge_is_associative_on_real_blocks(cuts):
    bounds = sorted(set(cuts) | {0, 64})
    pieces = [
        scan_block(4, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ]
    left = EMPTY_PARTIAL
    for piece in pieces:
        left = merge_partials(left, piece)
    right = EMPTY_PARTIAL
    for piece in reversed(pieces):
        right = merge_partials(piece, right)
    assert left == right
    assert left == scan_block(4, 0, 64)


def test_candidates_within_tie_eps():
    result = scan_block(5, 0, 1024)
    for _, value in result.candidates:
        assert value <= result.best + TIE_EPS


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ck.json")
    ck = Checkpoint(
        n=5,
        block_size=128,
        blocks_done=3,
        running_argmin_indices=(17,),
        created="2024-01-01T00:00:00",
        updated="2024-01-01T00:05:00",
    )
    checkpoint_save(path, ck)
    loaded = checkpoint_load(path)
    assert loaded == ck
    saved = json.loads(Path(path).read_text())
    assert saved["version"] == "3"
    assert saved["blocks_done"] == 3 and "completed_runs" not in saved


def test_n9_checkpoint_in_one_run_is_small(tmp_path):
    # every block of n = 9 at the default block size, held as one count
    path = tmp_path / "ck.json"
    nblocks = (1 << tri(9)) // DEFAULT_BLOCK_SIZE
    assert nblocks == 65536
    ck = Checkpoint(
        n=9,
        block_size=DEFAULT_BLOCK_SIZE,
        blocks_done=nblocks,
        running_argmin_indices=(y0_index(9),),
        created="2024-01-01T00:00:00",
        updated="2024-01-01T00:05:00",
    )
    checkpoint_save(str(path), ck)
    assert path.stat().st_size < 1024
    assert checkpoint_load(str(path)) == ck
    assert checkpoint_load(str(path)).blocks_done == nblocks

    # resuming the finished scan scans nothing more and rewrites nothing
    report = exhaustive_min(9, checkpoint_path=str(path))
    assert report.total_scanned == 1 << 36
    assert report.blocks_completed == nblocks
    assert report.argmin_indices == (y0_index(9),)
    assert report.c_n_estimate == report.z0_value
    assert checkpoint_load(str(path)) == ck


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("not json at all")
    with pytest.raises(CheckpointError):
        checkpoint_load(str(path))
    path.write_text(json.dumps({"version": "999"}))
    with pytest.raises(CheckpointError):
        checkpoint_load(str(path))


def test_checkpoint_rejects_parameter_mismatch(tmp_path):
    path = str(tmp_path / "ck.json")
    exhaustive_min(5, block_size=128, checkpoint_path=path)
    with pytest.raises(CheckpointError):
        exhaustive_min(5, block_size=64, checkpoint_path=path)
    with pytest.raises(CheckpointError):
        exhaustive_min(4, block_size=128, checkpoint_path=path)
    # a file written at another Newton tolerance holds values of another c_n
    saved = json.loads(Path(path).read_text())
    assert saved["newton_tol"] == 1e-13
    saved["newton_tol"] = 1e-12
    Path(path).write_text(json.dumps(saved))
    with pytest.raises(CheckpointError, match="tolerance"):
        checkpoint_load(path)
    with pytest.raises(CheckpointError, match="tolerance"):
        exhaustive_min(5, block_size=128, checkpoint_path=path)


def test_interrupted_scan_resumes_identically(tmp_path):
    path = str(tmp_path / "ck.json")
    baseline = _without_timing(exhaustive_min(6, block_size=4096))

    class Interrupt(Exception):
        pass

    def stop_after(done, total):
        if done == 3:
            raise Interrupt()

    with pytest.raises(Interrupt):
        exhaustive_min(6, block_size=4096, checkpoint_path=path, progress=stop_after)
    assert checkpoint_load(path).blocks_done == 3

    resumed = exhaustive_min(6, block_size=4096, checkpoint_path=path)
    assert _without_timing(resumed) == baseline
    assert resumed.blocks_completed == 8


def _older_versions(path):
    # a scan of n = 5 in 64-pattern blocks stopped after 12 blocks, Y0's
    # block among them, written as earlier builds wrote it: version "2" as
    # the leading run and with a later run, version "1" as block ids, with
    # and without the running_min key
    class Stop(Exception):
        pass

    def stop_at_12(done, total):
        if done == 12:
            raise Stop()

    with pytest.raises(Stop):
        exhaustive_min(5, block_size=64, checkpoint_path=str(path), progress=stop_at_12)
    d = json.loads(path.read_text())
    assert d["blocks_done"] == 12 and d["running_argmin_indices"] == [y0_index(5)]
    head = {"n": 5, "block_size": 64}
    tail = {k: d[k] for k in ("running_argmin_indices", "created", "updated")}
    v2 = {"version": "2", **head, "newton_tol": 1e-13}
    v1 = {"version": "1", **head, "completed_block_ids": list(range(12))}
    return {
        "version-2-leading-run": {**v2, "completed_runs": [[0, 12]], **tail},
        "version-2-later-runs": {**v2, "completed_runs": [[0, 2], [10, 11]], **tail},
        "version-1": {**v1, **tail},
        "version-1-running-min": {**v1, "running_min": FROZEN_FLOORS[5], **tail},
    }


@pytest.mark.parametrize("case", ["version-2-leading-run", "version-2-later-runs",
                                  "version-1", "version-1-running-min"])
def test_older_checkpoint_versions_are_refused(tmp_path, case):
    # a file of another version is refused by name and left as it was,
    # however much of it this build could have read
    path = tmp_path / "ck.json"
    doc = _older_versions(path)[case]
    text = json.dumps(doc)
    path.write_text(text)
    match = f"version '{doc['version']}' does not match '3'"
    with pytest.raises(CheckpointError, match=match):
        checkpoint_load(str(path))
    with pytest.raises(CheckpointError, match=match):
        exhaustive_min(5, block_size=64, checkpoint_path=str(path))
    assert path.read_text() == text


_MISSING = object()


@pytest.mark.parametrize("blocks_done", [-1, 17, 1.5, True, "3", None, _MISSING],
                         ids=["negative", "past-the-last-block", "float", "true",
                              "string", "null", "missing"])
def test_checkpoint_rejects_malformed_blocks_done(tmp_path, blocks_done):
    # n = 5 in 64-pattern blocks has 16: a count of 0 .. 16 blocks is an int
    path = tmp_path / "ck.json"
    exhaustive_min(5, block_size=64, checkpoint_path=str(path))
    doc = json.loads(path.read_text())
    assert doc["blocks_done"] == 16
    if blocks_done is _MISSING:
        del doc["blocks_done"]
    else:
        doc["blocks_done"] = blocks_done
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="blocks_done"):
        exhaustive_min(5, block_size=64, checkpoint_path=str(path))


def test_checkpoint_saves_at_most_once_a_second(tmp_path, monkeypatch):
    # one save when the file is created, one when the scan ends, and in
    # between at most one per _SAVE_EVERY seconds, not one per block
    saves = []
    real_save = search.checkpoint_save

    def counting_save(path, ck):
        saves.append(path)
        real_save(path, ck)

    monkeypatch.setattr(search, "checkpoint_save", counting_save)
    report = exhaustive_min(6, block_size=1 << 9, checkpoint_path=str(tmp_path / "ck.json"))
    assert report.blocks_completed == 64
    assert 2 <= len(saves) <= 2 + report.elapsed / search._SAVE_EVERY


def test_interrupted_pool_scan_resumes_identically(tmp_path):
    # same interruption through the process-pool path: queued blocks are
    # cancelled, the checkpoint keeps only what was merged, resume agrees
    path = str(tmp_path / "ck.json")
    baseline = _without_timing(exhaustive_min(6, block_size=4096))

    class Interrupt(Exception):
        pass

    def stop_after(done, total):
        if done == 3:
            raise Interrupt()

    with pytest.raises(Interrupt):
        exhaustive_min(
            6, workers=2, block_size=4096, checkpoint_path=path, progress=stop_after
        )
    assert checkpoint_load(path).blocks_done == 3

    resumed = exhaustive_min(6, workers=2, block_size=4096, checkpoint_path=path)
    assert _without_timing(resumed) == baseline


_real_scan_block = scan_block


def _stamped_scan_block(n, start, stop, *args):
    # runs in the pool's workers: leaves one file per block, named by its
    # start index and holding the monotonic time the worker took it up
    stamp = os.path.join(os.environ["GRAMFLOOR_TEST_STAMPS"], str(start))
    with open(stamp, "w") as fh:
        fh.write(repr(time.monotonic()))
    return _real_scan_block(n, start, stop, *args)


def test_interrupted_pool_scan_stops_its_workers(tmp_path, monkeypatch):
    # an abort cancels the queued blocks: only those already handed to the
    # pool's call queue (at most workers + 1) start after the stop, and the
    # workers are gone by the time the exception reaches the caller
    workers, block_size = 2, 1 << 13
    stamps = tmp_path / "stamps"
    stamps.mkdir()
    monkeypatch.setenv("GRAMFLOOR_TEST_STAMPS", str(stamps))
    monkeypatch.setattr(search, "scan_block", _stamped_scan_block)
    stopped_at = []

    class Interrupt(Exception):
        pass

    def stop_after(done, total):
        if done == 3:
            stopped_at.append(time.monotonic())
            raise Interrupt()

    with pytest.raises(Interrupt):
        exhaustive_min(7, workers=workers, block_size=block_size, progress=stop_after)
    assert multiprocessing.active_children() == []
    started = [float(p.read_text()) for p in stamps.iterdir()]
    late = [t for t in started if t > stopped_at[0]]
    assert len(late) <= workers + 1, (len(late), len(started))


def _disposition_scan_block(n, start, stop, *args):
    # runs in the pool's workers: leaves one file per block, holding how
    # the worker handles SIGINT
    handler = signal.getsignal(signal.SIGINT)
    stamp = os.path.join(os.environ["GRAMFLOOR_TEST_STAMPS"], str(start))
    with open(stamp, "w") as fh:
        fh.write("ignored" if handler is signal.SIG_IGN else repr(handler))
    return _real_scan_block(n, start, stop, *args)


def test_pool_workers_ignore_sigint(tmp_path, monkeypatch):
    # Ctrl-C in a terminal signals the whole process group: the workers
    # must leave it to the driver, which keeps its own handler
    stamps = tmp_path / "stamps"
    stamps.mkdir()
    monkeypatch.setenv("GRAMFLOOR_TEST_STAMPS", str(stamps))
    monkeypatch.setattr(search, "scan_block", _disposition_scan_block)
    driver_handler = signal.getsignal(signal.SIGINT)
    exhaustive_min(4, workers=2, block_size=8)
    assert {p.read_text() for p in stamps.iterdir()} == {"ignored"}
    assert len(list(stamps.iterdir())) == 8
    assert signal.getsignal(signal.SIGINT) is driver_handler


def test_sigint_stops_a_pool_scan_after_the_next_merged_block(tmp_path):
    # a SIGINT is recorded where it lands, and the scan raises
    # KeyboardInterrupt once the block being merged is counted
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    path = str(tmp_path / "ck.json")
    reached = []

    def interrupt_at_3(done, total):
        if done == 3:
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.05)
            reached.append(done)

    with pytest.raises(KeyboardInterrupt):
        exhaustive_min(6, workers=2, block_size=512, checkpoint_path=path,
                       progress=interrupt_at_3)
    assert reached == [3]
    assert checkpoint_load(path).blocks_done == 3
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


class _Stop(Exception):
    """Raised to stop a scan; defined here so a pool worker can send it back."""


def _failing_scan_block(n, start, stop, *args):
    # runs in the pool's workers too: fails on the block that starts at the
    # index held in the environment
    if start == int(os.environ["GRAMFLOOR_TEST_FAIL_AT"]):
        raise _Stop(start)
    return _real_scan_block(n, start, stop, *args)


def _recorded_scan_block(n, start, stop, *args):
    # runs in the pool's workers too: leaves one file per call, named by
    # its range and holding the arguments after it
    stamp = os.path.join(os.environ["GRAMFLOOR_TEST_STAMPS"], f"{start}-{stop}")
    with open(stamp, "w") as fh:
        fh.write(repr(args))
    return _real_scan_block(n, start, stop, *args)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_block_and_rescan_is_capped_at_y0s_value(tmp_path, monkeypatch, workers):
    # stopped once Y0's block is merged and then resumed, the scan hands
    # Y0's value, bit for bit, to every block it submits and to every
    # one-pattern rescan of a restored near-tie, Y0's among them
    n, block_size = 5, 16
    blocks = block_ranges(n, block_size)
    baseline = _without_timing(exhaustive_min(n, block_size=block_size))
    y0i = y0_index(n)
    k = y0i // block_size + 1
    path = str(tmp_path / "ck.json")
    stamps = tmp_path / "stamps"
    stamps.mkdir()
    monkeypatch.setenv("GRAMFLOOR_TEST_STAMPS", str(stamps))
    monkeypatch.setattr(search, "scan_block", _recorded_scan_block)

    def stop_at(done, total):
        if done == k:
            raise _Stop()

    def take_calls():
        calls = {p.name: p.read_text() for p in stamps.iterdir()}
        for p in stamps.iterdir():
            p.unlink()
        return calls

    with pytest.raises(_Stop):
        exhaustive_min(n, workers=workers, block_size=block_size,
                       checkpoint_path=path, progress=stop_at)
    first = take_calls()
    restored = checkpoint_load(path).running_argmin_indices
    assert y0i in restored
    resumed = exhaustive_min(n, workers=workers, block_size=block_size,
                             checkpoint_path=path)
    second = take_calls()
    assert _without_timing(resumed) == baseline
    assert {f"{a}-{b}" for a, b in blocks[:k]} <= set(first)
    assert set(second) == (
        {f"{i}-{i + 1}" for i in restored} | {f"{a}-{b}" for a, b in blocks[k:]}
    )
    z0v = repr((smallest_eigenvalue(gram(y0(n))),))
    assert set(first.values()) == set(second.values()) == {z0v}


@pytest.mark.parametrize("save_every", [0.0, search._SAVE_EVERY])
@pytest.mark.parametrize("workers", [1, 2])
def test_killed_scan_leaves_its_merged_blocks_and_resumes(
    tmp_path, monkeypatch, workers, save_every
):
    # stopped by its progress callback after k blocks, by an interrupt or
    # by a failing block k, a scan leaves exactly blocks 0 .. k - 1 in the
    # checkpoint, whether it saved after every block or not since it
    # started, and the resume reports what an uninterrupted scan does
    n, block_size = 6, 1 << 9
    blocks = block_ranges(n, block_size)
    baseline = _without_timing(exhaustive_min(n, block_size=block_size))
    path = tmp_path / "ck.json"
    monkeypatch.setattr(search, "_SAVE_EVERY", save_every)
    monkeypatch.setattr(search, "scan_block", _failing_scan_block)
    rng = random.Random(101 + workers)
    stops = [(k, _Stop) for k in rng.sample(range(1, len(blocks)), 3)]
    stops.append((rng.randrange(1, len(blocks)), KeyboardInterrupt))
    stops.append((rng.randrange(1, len(blocks)), "failing block"))
    for k, how in stops:
        fail_at = blocks[k][0] if how == "failing block" else -1
        monkeypatch.setenv("GRAMFLOOR_TEST_FAIL_AT", str(fail_at))

        def stop_at(done, total):
            if done == k and how in (_Stop, KeyboardInterrupt):
                raise how()

        if path.exists():
            path.unlink()
        with pytest.raises((_Stop, KeyboardInterrupt)):
            exhaustive_min(n, workers=workers, block_size=block_size,
                           checkpoint_path=str(path), progress=stop_at)
        assert checkpoint_load(str(path)).blocks_done == k, (k, how)

        monkeypatch.setenv("GRAMFLOOR_TEST_FAIL_AT", "-1")
        seen = []
        resumed = exhaustive_min(n, workers=workers, block_size=block_size,
                                 checkpoint_path=str(path),
                                 progress=lambda done, total: seen.append(done))
        assert seen[0] == k + 1, (k, how)
        assert _without_timing(resumed) == baseline, (k, how)


def _interleaved_calls(seed):
    # n = 6, then 5, then 6 again, over ever longer ranges: one index,
    # part of a chunk, more than a chunk and several chunks
    rng = random.Random(seed)
    calls = []
    for length in (1, 100, 3000, 5000, 9000):
        for n in (6, 5, 6):
            length_n = min(length, 1 << tri(n))
            start = rng.randrange((1 << tri(n)) - length_n + 1)
            calls.append((n, start, start + length_n))
    return calls


def test_interleaved_calls_match_the_unfiltered_scan():
    calls = _interleaved_calls(7)
    expected = [unfiltered_scan_block(*call) for call in calls]
    assert [scan_block(*call) for call in calls] == expected
    assert [scan_block(*call) for call in reversed(calls)] == expected[::-1]


def test_threaded_calls_match_the_unfiltered_scan():
    # more threads than cores, switching often: each must see the results
    # of the unfiltered scan, whatever the others scan meanwhile
    calls = [_interleaved_calls(seed) for seed in range(4)]
    expected = [[unfiltered_scan_block(*call) for call in mine] for mine in calls]
    got = [None] * len(calls)

    def run(k):
        got[k] = [scan_block(*call) for call in calls[k]]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_finished_checkpoint_rerun_is_stable(tmp_path):
    path = str(tmp_path / "ck.json")
    first = exhaustive_min(5, block_size=256, checkpoint_path=path)
    again = exhaustive_min(5, block_size=256, checkpoint_path=path)
    assert _without_timing(first) == _without_timing(again)


def test_progress_callback_counts_blocks():
    seen = []
    exhaustive_min(4, block_size=16, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(k, 4) for k in range(1, 5)]


def test_scan_does_not_list_its_blocks_up_front():
    # n = 7 in one-pattern blocks is 2^21 blocks; the driver makes each
    # range as it hands it out, so three blocks in it has allocated little
    seen = []

    def stop_after_3(done, total):
        seen.append(total)
        if done == 3:
            raise _Stop()

    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            exhaustive_min(7, block_size=1, progress=stop_after_3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == [1 << 21] * 3
    assert peak < 16 << 20, peak


def test_y0_index_matches_pattern():
    for n in range(1, 8):
        assert from_index(n, y0_index(n)) == y0(n)


def test_multiprocess_scan_matches_inline():
    inline = _without_timing(exhaustive_min(4, workers=1, block_size=8))
    pooled = _without_timing(exhaustive_min(4, workers=3, block_size=8))
    assert inline == pooled
