"""``cli.main`` registers ``gc.freeze`` to run at exit, so interpreter
shutdown skips its final collection.  A process must still exit with the
command's code and leave every file complete: these tests run the CLI as a
subprocess and compare its files with those of the same command run in this
process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chemolab.cli import main

from test_config_cli import CART_CONFIG, SWEEP_SMALL, write_config

SRC = Path(__file__).resolve().parent.parent / "src"


def python(*args, threads=None):
    """``python <args>`` in a fresh process that imports chemolab from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["CHEMOLAB_THREADS"] = str(threads)
    command = [sys.executable, *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def run_cli(*args, threads=None):
    return python("-m", "chemolab.cli", *args, threads=threads)


def test_run_keeps_its_exit_code_and_complete_files(tmp_path):
    cfg = write_config(tmp_path, CART_CONFIG.replace("t_end = 0.5", "t_end = 0.2"))
    done = run_cli("run", cfg, "--outdir", tmp_path / "sub")
    assert done.returncode == 0, done.stderr
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "here")]) == 0
    for name in ("timeseries.csv", "report.txt"):
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert len((tmp_path / "sub" / "timeseries.csv").read_text().splitlines()) == 1 + 3
    report = (tmp_path / "sub" / "report.txt").read_text()
    assert report.endswith("\n") and report.splitlines()[-1].startswith("min_v_floor_gap: ")


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_keeps_its_exit_code_and_complete_summary(tmp_path, threads):
    spec = write_config(tmp_path, SWEEP_SMALL, "sweep.cfg")
    done = run_cli("sweep", spec, "--outdir", tmp_path / "sub", threads=threads)
    assert done.returncode == 0, done.stderr
    assert main(["sweep", str(spec), "--outdir", str(tmp_path / "here")]) == 0
    summary = (tmp_path / "sub" / "sweep_summary.csv").read_bytes()
    assert summary == (tmp_path / "here" / "sweep_summary.csv").read_bytes()
    assert len(summary.decode().splitlines()) == 1 + 4


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_malformed_config_exits_one(tmp_path, command):
    cfg = write_config(tmp_path, CART_CONFIG.replace("chi = 0.5", "chi = oops"))
    done = run_cli(command, cfg, "--outdir", tmp_path / "out")
    assert done.returncode == 1
    assert "chemolab: error:" in done.stderr
    assert not (tmp_path / "out").exists()


def test_main_registers_one_freeze_however_often_it_runs():
    # gc.freeze is counted through a stand-in, in a process of its own
    code = (
        "import atexit, gc\n"
        "calls = []\n"
        "gc.freeze = lambda: calls.append(None)\n"
        "from chemolab.cli import main\n"
        "for _ in range(2):\n"
        "    main(['exponents', '--chi', '0.4', '--k', '1', '--n', '6'])\n"
        "atexit._run_exitfuncs()\n"
        "print('freezes', len(calls))\n"
    )
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "freezes 1"
