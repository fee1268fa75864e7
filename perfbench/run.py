#!/usr/bin/env python3
"""End-to-end benchmark of the shotgfmc CLI.

    python3 perfbench/run.py --workload sweep-jastrow --seed 1 --seconds 35 --trace 0

Runs the workload's CLI command as a subprocess again and again, one at a
time (a closed loop with one client), for about ``--seconds`` seconds,
and checks every command's outputs: the first against references
computed in ``checks.py``, every later one byte for byte against the
first, which is the CLI's documented determinism. The program comes from
``src/`` of the checkout this file sits in; nothing is installed.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s``,
``cpu_s`` and ``peak_rss_mib`` of the commands and the median ``setup_s``
of a few ``python -m shotgfmc --version`` runs. ``--trace 1`` runs the
command once untraced, then traced through ``tracing.py`` for the rest of
the time, and reports the per-module metrics (medians over the traced
commands) and the tracing overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is one replicate
the command was asked for; a command that exits non-zero or fails a
check counts all of its replicates as failed. A fuller record (machine,
per-command samples and, when traced, the spans of one traced command)
goes to ``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import filecmp
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracing import layer_metrics, load_spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
SETUP_REPEATS_BETWEEN = 2
# every run must end within this many seconds of its start
HARD_LIMIT_S = 170.0
# manifest fields that differ between two runs of the same command
VOLATILE_MANIFEST_KEYS = ("created_at", "wall_time_s")


class SetupError(RuntimeError):
    """The program cannot be started from this checkout."""


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    traced: bool = False


def run_command(argv: list, env: dict, stdout_path: Path, timeout: float) -> Sample:
    """Spawn argv and wait for it, with the rusage of it and its children.

    The process gets its own session so that a timeout kills its pool
    workers too.
    """
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def measure_setup(env: dict, work: Path, repeats: int) -> list:
    """Wall times of `python -m shotgfmc --version`, which only imports."""
    times = []
    for _ in range(repeats):
        sample = run_command([sys.executable, "-m", "shotgfmc", "--version"], env,
                             work / "version.out", timeout=60.0)
        if sample.returncode != 0 or not (work / "version.out").read_text().strip():
            raise SetupError("`python -m shotgfmc --version` failed: "
                             + (work / "version.err").read_text().strip())
        times.append(sample.wall_s)
    return times


def _manifest_body(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    for key in VOLATILE_MANIFEST_KEYS:
        manifest.pop(key, None)
    return manifest


def compare_outputs(ref: Path, out: Path) -> list:
    """Differences between two output directories (manifest timings aside)."""
    names = sorted(p.name for p in ref.iterdir())
    if names != sorted(p.name for p in out.iterdir()):
        return [f"output files differ: {names} vs {sorted(p.name for p in out.iterdir())}"]
    errors = []
    for name in names:
        if name == "run_manifest.json":
            same = _manifest_body(ref / name) == _manifest_body(out / name)
        else:
            same = filecmp.cmp(ref / name, out / name, shallow=False)
        if not same:
            errors.append(f"{name} differs from the first command's")
    return errors


def check_outputs(workload: str, out: Path, stdout_path: Path, seed: int) -> list:
    """Run checks.py on one command's outputs; its failure messages."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "checks.py"), workload,
                           str(out), str(stdout_path), str(seed)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return [f"checks.py exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    return json.loads(proc.stdout)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numba = subprocess.run([sys.executable, "-c", "import numba"],
                           capture_output=True, timeout=120).returncode == 0
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "numba_imports": numba, "platform": platform.platform()}


def cli_seed(workload: str, seed: int) -> int:
    """The base seed handed to the CLI, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Loop:
    """What the command loop of one run collected."""

    samples: list = field(default_factory=list)         # Sample per command
    setup: list = field(default_factory=list)           # setup_s samples
    errors: list = field(default_factory=list)          # check failures
    failed: int = 0                                     # failed operations
    layer_samples: list = field(default_factory=list)   # per traced command
    first_spans: list = field(default_factory=list)     # of the first traced command


def command_loop(wl, seed: int, seconds: float, trace: bool, env: dict, work: Path,
                 deadline: float) -> Loop:
    """Run wl's command until the next one would end after `seconds`.

    With trace, the first command runs untraced and all later ones traced,
    and at least one traced command runs.
    """
    out, ref, spans_dir = work / "out", work / "ref", work / "spans"
    common = ("--seed", str(seed), "--out-dir", str(out), "--threads", str(THREADS))
    threads = THREADS if wl.args[0] == "sweep" else 0
    loop = Loop(setup=measure_setup(env, work, SETUP_REPEATS))
    durations = []
    t_loop = time.perf_counter()
    while True:
        traced = trace and bool(loop.samples)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir()
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_dir)]
        else:
            cmd = [sys.executable, "-m", "shotgfmc"]
        t_cmd = time.perf_counter()
        sample = run_command([*cmd, *wl.args, *common], env, work / "stdout.txt",
                             timeout=max(1.0, deadline - t_cmd))
        sample.traced = traced
        loop.samples.append(sample)
        if sample.returncode != 0:
            errors = [f"command exited with {sample.returncode}: "
                      + (work / "stdout.err").read_text().strip()[-2000:]]
        elif not ref.exists():
            t_check = time.perf_counter()
            errors = check_outputs(wl.name, out, work / "stdout.txt", seed)
            # a one-off cost: it does not predict the next command's length
            t_cmd += time.perf_counter() - t_check
            out.rename(ref)
            (work / "stdout.txt").rename(work / "ref-stdout.txt")
        else:
            errors = compare_outputs(ref, out)
            if not filecmp.cmp(work / "ref-stdout.txt", work / "stdout.txt", shallow=False):
                errors.append("stdout differs from the first command's")
        if errors:
            loop.failed += wl.replicates
            loop.errors.extend(errors)
        if traced:
            spans = load_spans(str(spans_dir))
            loop.layer_samples.append(layer_metrics(spans, threads))
            loop.first_spans = loop.first_spans or spans
        # set-up samples between commands make setup_s a median over the
        # whole run, not over one moment of it
        loop.setup += measure_setup(env, work, SETUP_REPEATS_BETWEEN)
        durations.append(time.perf_counter() - t_cmd)
        if trace and not loop.layer_samples:
            continue
        if time.perf_counter() - t_loop + statistics.median(durations) > seconds:
            return loop


def end_to_end_metrics(loop: Loop) -> dict:
    samples = [s for s in loop.samples if not s.traced]
    return {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mib": (statistics.median(s.peak_rss_mib for s in samples), "MiB"),
        "setup_s": (statistics.median(loop.setup), "s"),
    }


def per_layer_metrics(loop: Loop) -> dict:
    metrics = {}
    for name in loop.layer_samples[0]:
        values = [m[name] for m in loop.layer_samples]
        # counts stay whole numbers
        median = (statistics.median_low if isinstance(values[0], int)
                  else statistics.median)
        metrics[name] = (median(values), _layer_unit(name))
    untraced = loop.samples[0].wall_s
    traced = statistics.median(s.wall_s for s in loop.samples if s.traced)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "MiB/s" if "mib" in name else "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_fraction"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S

    src = ROOT / "src"
    if not (src / "shotgfmc" / "__init__.py").is_file():
        print(f"error: no shotgfmc sources under {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = cli_seed(wl.name, args.seed)
    work = BENCH_DIR / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    try:
        measure_setup(env, work, 1)  # warm-up, not reported
        loop = command_loop(wl, seed, args.seconds, bool(args.trace), env, work, deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer_metrics(loop) if args.trace else end_to_end_metrics(loop)
    result = {"correct": not loop.errors,
              "attempted": wl.replicates * len(loop.samples), "failed": loop.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {
        "workload": wl.name, "seed": args.seed, "cli_seed": seed,
        "argv": ["python", "-m", "shotgfmc", *wl.args,
                 "--seed", str(seed), "--out-dir", "<work>/out", "--threads", str(THREADS)],
        "threads": THREADS, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(), "setup_s": loop.setup,
        "commands": [asdict(s) for s in loop.samples], "errors": loop.errors,
        "result": result,
    }
    if args.trace:
        record["trace"] = {"overhead_s": metrics["trace.overhead_s"][0],
                           "untraced_wall_s": loop.samples[0].wall_s,
                           "per_command": loop.layer_samples, "spans": loop.first_spans}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for message in loop.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
