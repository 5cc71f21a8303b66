"""Exit codes, report formats, and stream separation for the CLI."""

import csv
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gramfloor
from gramfloor.cli import main
from gramfloor.search import SearchReport, checkpoint_load, exhaustive_min


def test_verify_exit_zero_and_report(capsys):
    assert main(["verify", "--n", "3", "--workers", "1"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["conjecture_holds"] is True
    assert payload["unique_argmin"] is True
    assert payload["argmin_indices"] == [5]
    assert "blocks" in out.err


def test_verify_report_round_trips(capsys):
    main(["verify", "--n", "4", "--workers", "1"])
    report = SearchReport.from_json(capsys.readouterr().out)
    # equality modulo timing: compare the stable fields
    fresh = exhaustive_min(4)
    assert (report.n, report.c_n_estimate, report.argmin_indices) == (
        fresh.n,
        fresh.c_n_estimate,
        fresh.argmin_indices,
    )


def test_verify_rejects_bad_sizes():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "0"])
    assert exc.value.code == 2
    assert main(["verify", "--n", "99"]) == 2


def test_verify_n9_requires_checkpoint(capsys):
    assert main(["verify", "--n", "9"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--prune"])
    assert exc.value.code == 2
    # the Newton stopping rule is fixed, so no subcommand takes a tolerance
    for argv in (["verify", "--n", "3"], ["uniqueness", "--n", "3"],
                 ["extremal", "--n", "3"], ["bounds", "--n-max", "3"],
                 ["gcd-check", "--set", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2, argv


def test_package_exports_resolve():
    missing = [name for name in gramfloor.__all__ if not hasattr(gramfloor, name)]
    assert missing == []
    assert len(set(gramfloor.__all__)) == len(gramfloor.__all__)


def test_uniqueness_exit_zero():
    assert main(["uniqueness", "--n", "4", "--workers", "1"]) == 0


def test_verify_text_format(capsys):
    assert main(["verify", "--n", "3", "--workers", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "conjecture holds = True" in out


def test_extremal_frozen_inverse(capsys):
    assert main(["extremal", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z0_inverse"] == [
        ["3", "-2", "1"],
        ["-2", "2", "-1"],
        ["1", "-1", "1"],
    ]
    assert payload["sign_pattern_ok"] is True
    assert payload["trace_equality_ok"] is True


def test_extremal_size_one(capsys):
    assert main(["extremal", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y0"] == [["1"]]
    assert payload["lambda_min"] == 1.0


def test_extremal_text(capsys):
    assert main(["extremal", "--n", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "Z0 inverse" in out


def test_extremal_at_the_cap(capsys):
    assert main(["extremal", "--n", "64"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["sign_pattern_ok"] is True
    assert payload["trace_equality_ok"] is True
    # the report as the power-sum trace check printed it, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9cc6ceeea5850f96921704f7c1914daa08809a5d0278377bee50a22056002fe5"
    )


def test_extremal_rejects_oversize():
    assert main(["extremal", "--n", "65"]) == 2


def test_bounds_csv_shape(capsys):
    assert main(["bounds", "--n-max", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "c_n", "mattila_general", "mattila_parity", "holds"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
    assert all(r[4] == "True" for r in rows[1:])


def test_bounds_json(capsys):
    assert main(["bounds", "--n-max", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["c_n"] == pytest.approx(0.38196601125010515)


def test_bounds_rejects_small_n_max():
    assert main(["bounds", "--n-max", "1"]) == 2


def test_gcd_check_factor_closed(capsys):
    assert main(["gcd-check", "--set", "1,2,3,4,6,12", "--eps", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hong_loewy"]["holds"] is True
    assert payload["smith"] == {
        "determinant": "32",
        "phi_product": "32",
        "equal": True,
    }


def test_gcd_check_skips_smith_when_not_closed(capsys):
    assert main(["gcd-check", "--set", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hong_loewy"]["holds"] is True
    assert "skipped" in payload["smith"]


def test_gcd_check_rejects_duplicates(capsys):
    assert main(["gcd-check", "--set", "2,2"]) == 2


def test_out_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--n", "3", "--workers", "1", "--out", str(target)]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(target.read_text())["conjecture_holds"] is True


def test_checkpoint_rejection_exits_three(tmp_path):
    path = str(tmp_path / "ck.json")
    assert main(["verify", "--n", "5", "--workers", "1", "--block-size", "128",
                 "--checkpoint", path]) == 0
    assert main(["verify", "--n", "5", "--workers", "1", "--block-size", "64",
                 "--checkpoint", path]) == 3
    # a file recording another Newton tolerance is refused as well
    saved = json.loads(Path(path).read_text())
    saved["newton_tol"] = 1e-12
    Path(path).write_text(json.dumps(saved))
    assert main(["verify", "--n", "5", "--workers", "1", "--block-size", "128",
                 "--checkpoint", path]) == 3
    # so is a near-tie index that is not an integer
    saved["newton_tol"] = 1e-13
    for indices in ([1.5], ["3"]):
        saved["running_argmin_indices"] = indices
        Path(path).write_text(json.dumps(saved))
        assert main(["verify", "--n", "5", "--workers", "1", "--block-size", "128",
                     "--checkpoint", path]) == 3


def test_older_checkpoint_versions_exit_three(tmp_path, capsys):
    # version "2" as earlier builds wrote it, one leading run of block ids,
    # and version "1", a list of block ids: each refused by its version
    path = tmp_path / "ck.json"
    args = ["verify", "--n", "5", "--workers", "1", "--block-size", "128",
            "--checkpoint", str(path)]
    assert main(args) == 0
    saved = json.loads(path.read_text())
    assert saved["version"] == "3" and saved["blocks_done"] == 8
    rest = {k: saved[k] for k in ("running_argmin_indices", "created", "updated")}
    older = {
        "2": {"version": "2", "n": 5, "block_size": 128, "newton_tol": 1e-13,
              "completed_runs": [[0, 8]], **rest},
        "1": {"version": "1", "n": 5, "block_size": 128,
              "completed_block_ids": list(range(8)), **rest},
    }
    capsys.readouterr()
    for version, doc in older.items():
        path.write_text(json.dumps(doc))
        assert main(args) == 3, version
        out = capsys.readouterr()
        assert out.out == ""
        assert f"checkpoint version '{version}' does not match '3'" in out.err


def test_repeated_near_tie_index_exits_three(tmp_path, capsys):
    # a near-tie index listed twice would be scanned and adjudicated twice,
    # and Y0 would tie with itself: such a file is refused, as is an
    # unsorted list, while the file as written resumes to the unique argmin
    path = tmp_path / "ck.json"

    class Stop(Exception):
        pass

    def stop_at_12(done, total):
        if done == 12:
            raise Stop()

    with pytest.raises(Stop):
        exhaustive_min(5, block_size=64, checkpoint_path=str(path), progress=stop_at_12)
    written = path.read_text()
    saved = json.loads(written)
    assert saved["running_argmin_indices"] == [685]
    args = ["uniqueness", "--n", "5", "--block-size", "64", "--workers", "1",
            "--checkpoint", str(path)]
    for indices in ([685, 685], [685, 100]):
        path.write_text(json.dumps({**saved, "running_argmin_indices": indices}))
        capsys.readouterr()
        assert main(args) == 3, indices
        out = capsys.readouterr()
        assert out.out == ""
        assert "strictly increasing" in out.err
    path.write_text(written)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["argmin_indices"] == [685]


def _child_env():
    """This process's environment with its own gramfloor tree first on PYTHONPATH.

    A child interpreter then imports the code under test, not whatever copy
    happens to be installed, whether or not the suite runs with PYTHONPATH set.
    """
    tree = str(Path(gramfloor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [tree, env.get("PYTHONPATH")]))
    return env


def _declared_scripts():
    """The [project.scripts] table of the repository's pyproject.toml.

    Parsed by hand because tomllib is Python 3.11+ and requires-python is 3.10.
    """
    scripts = {}
    in_table = False
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            scripts[key.strip().strip('"')] = value.strip().strip('"')
    return scripts


# What an installed console script does: import module:attr, name the program,
# and exit with the target's return value. The target comes in as argv[1].
_CONSOLE_WRAPPER = """
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
sys.argv[0] = "gramfloor"
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def test_streams_do_not_mix_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gramfloor.cli", "verify", "--n", "3", "--workers", "1"],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    # stdout must parse as one JSON document, so no progress lines leaked
    json.loads(proc.stdout)
    assert "blocks 1/1" in proc.stderr
    assert "blocks 1/1" not in proc.stdout


def test_ctrl_c_on_the_process_group_stops_a_pool_scan(tmp_path):
    # Ctrl-C in a terminal sends SIGINT to every process of the foreground
    # group, the pool's workers included; each trial must end promptly,
    # with exit code 130 and no traceback, and leave a checkpoint that loads
    for trial in range(10):
        path = tmp_path / f"ck{trial}.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "gramfloor.cli", "uniqueness", "--n", "7",
             "--block-size", "1024", "--workers", "2", "--checkpoint", str(path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            start_new_session=True,
        )
        # a scan that never reports a block is killed too, so no trial hangs
        guard = threading.Timer(60, os.killpg, (proc.pid, signal.SIGKILL))
        guard.start()
        try:
            first = proc.stderr.readline()
            assert first.startswith("blocks "), (trial, first)
            os.killpg(proc.pid, signal.SIGINT)
            try:
                _, err = proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                pytest.fail(f"trial {trial}: scan still running 20 s after SIGINT")
        finally:
            guard.cancel()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 130, (trial, proc.returncode, err)
        assert "Traceback" not in err, (trial, err)
        assert str(path) in err, (trial, err)
        assert checkpoint_load(str(path)).n == 7


def test_console_entry_point():
    target = _declared_scripts().get("gramfloor")
    assert target == "gramfloor.cli:main"

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", _CONSOLE_WRAPPER, target, *args],
            capture_output=True,
            text=True,
            env=_child_env(),
        )

    proc = run("extremal", "--n", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2
    # main must hand back the subcommand's exit code, not just print
    assert run("extremal", "--n", "65").returncode == 2


@pytest.mark.skipif(
    shutil.which("gramfloor") is None, reason="gramfloor executable not on PATH"
)
def test_installed_console_entry_point():
    proc = subprocess.run(
        ["gramfloor", "extremal", "--n", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2
