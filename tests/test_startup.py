"""What a fresh ``shotgfmc`` process sets up when the package loads.

Each test starts its own interpreter, since the pytest process has
already imported numpy and the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _python(args, **env_vars):
    """Run python with src/ on the path, no BLAS variable but env_vars."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("env_vars, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    # OpenBLAS reads OMP_NUM_THREADS too, so a user's setting there wins
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_import_pins_openblas_to_one_thread_unless_the_user_set_one(env_vars, expected):
    out = _python(["-c", "import os, shotgfmc; "
                         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"], **env_vars)
    assert out.strip() == expected


def test_cli_import_loads_no_process_pool():
    out = _python(["-c", "import sys, shotgfmc.cli; "
                         "print('concurrent.futures.process' in sys.modules)"])
    assert out.strip() == "False"


def test_cli_default_scan_bytes_are_the_single_blas_thread_bytes(tmp_path):
    # the L = 14 trial table's norm is a BLAS dot that OpenBLAS splits across
    # threads; so this fails without the pin on 2 or more cores, and passes
    # either way on 1 core
    def scan(name, **env_vars):
        out_dir = tmp_path / name
        _python(["-m", "shotgfmc", "scan", "--trial", "exact-groundstate", "--L", "14",
                 "--M0", "1", "--reps", "1", "--seed", "3", "--threads", "1",
                 "--out-dir", str(out_dir)], **env_vars)
        return (out_dir / "local_energy_scan.csv").read_bytes()

    assert scan("default") == scan("one", OPENBLAS_NUM_THREADS="1")
