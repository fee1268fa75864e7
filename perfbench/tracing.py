"""Span tracing of the shotgfmc CLI, done from outside the package.

Run as a script, this is a drop-in for ``python -m shotgfmc``:

    python perfbench/tracing.py SPANS_DIR sweep --trial jastrow --L 8,10 ...

Before calling ``shotgfmc.cli.main`` it replaces each function in
``WRAPS`` (the public ones, plus the pool task ``scaling._run_replicate``
for the pool's busy time) with a timing wrapper, in the module that
*calls* it (the attribute the caller looks up at run time), so no
tracing code lives under ``src/``. Every call becomes a span with an id, its parent's id,
name, pid, start and end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so spans of pool workers share the
parent's time base). Spans stay in memory and are appended to
``SPANS_DIR/spans-<pid>.jsonl`` whenever the process's outermost span
closes: at the end of ``cli.main`` in the CLI process, and at the end of
each replicate task in a process-pool worker. Workers are forked by the
pool (the default start method on Linux), so they inherit the wrapped
functions and the open parent span.

``layer_metrics`` turns the spans of one command into the per-module
metrics the benchmark reports.
"""

import functools
import glob
import importlib
import json
import os
import sys
import time

# (calling module, attribute it looks up). The span is named after the
# module that defines the function, so cli.ground_state and
# scaling.ground_state both give exact.ground_state spans. A dotted
# attribute is a method, wrapped on its class.
WRAPS = (
    ("cli", "ground_state"),
    ("cli", "build_table"),
    ("cli", "local_energy_scan"),
    ("cli", "write_scan_csv"),
    ("cli", "sample_counts"),
    ("cli", "noisy_amplitudes"),
    ("cli", "run_chain"),
    ("cli", "reweighted_energy"),
    ("cli", "average_local_energy"),
    ("cli", "run_sweep"),
    ("cli", "summarize"),
    ("cli", "write_sweep_csv"),
    ("config", "RunConfig.validate"),
    ("scaling", "ground_state"),
    ("scaling", "reference_energy"),
    ("scaling", "build_table"),
    ("scaling", "_run_replicate"),
    ("scaling", "sample_counts"),
    ("scaling", "noisy_amplitudes"),
    ("scaling", "run_chain"),
    ("scaling", "reweighted_energy"),
    ("scaling", "average_local_energy"),
    ("shots", "sample_counts"),
    ("shots", "noisy_amplitudes"),
    ("shots", "local_energy_table"),
    ("gfmc", "chain_fill"),
    ("gfmc", "sliding_window_sums"),
    ("gfmc", "all_diagonal_energies"),
    ("exact", "all_diagonal_energies"),
    ("trial", "bond_correlations"),
)

# module that defines a function -> the layer its time is charged to
LAYERS = ("model", "trial", "exact", "shots", "gfmc", "scaling", "cli")
LAYER_OF = {"_kernels": "gfmc", "config": "cli", **{name: name for name in LAYERS}}


def _count_steps(args, result):
    return {"steps": args[0].chain_length}


def _count_iterations(args, result):
    return {"iterations": result.iterations}


def _count_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


# per-span counts, read from the call's arguments or result
COUNTERS = {
    "gfmc.run_chain": _count_steps,
    "exact.ground_state": _count_iterations,
    "shots.write_scan_csv": _count_bytes,
}


class Tracer:
    """Span recorder for one process tree; fork-aware."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.spans = []
        self.stack = []        # ids of the open spans, innermost last
        self.root_depth = 0    # open spans inherited from the forking parent
        self.next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.spans = []
        self.root_depth = len(self.stack)

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            sid = f"{pid}:{self.next_id}"
            self.next_id += 1
            span = {"id": sid, "parent": self.stack[-1] if self.stack else None,
                    "name": name, "pid": pid}
            self.stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.update(counter(args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                if len(self.stack) == self.root_depth:
                    self.flush()

        return traced

    def flush(self):
        path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []


def run_traced_cli(spans_dir: str, cli_args: list) -> int:
    cli = importlib.import_module("shotgfmc.cli")
    tracer = Tracer(spans_dir)
    for module, dotted in WRAPS:
        owner = importlib.import_module(f"shotgfmc.{module}")
        *path, attr = dotted.split(".")
        for name in path:
            owner = getattr(owner, name)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr)))
    return tracer.wrap(cli.main)(cli_args)


# ---------------------------------------------------------------------------
# analysis

def load_spans(spans_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f)
    return spans


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children in pool workers run in parallel, so their union, not their
    sum, is subtracted.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(s["start"], s["end"], children.get(s["id"], []))
            for s in spans}


def layer_metrics(spans: list, threads: int) -> dict:
    """Per-module metrics of one traced command (0 where a layer is idle)."""
    own = self_times(spans)
    total, calls, self_by_name = {}, {}, {}
    counts = {"steps": 0, "iterations": 0, "bytes": 0}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + (s["end"] - s["start"])
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own[s["id"]]
        layer_self[LAYER_OF[name.split(".", 1)[0]]] += own[s["id"]]
        for key in counts:
            counts[key] += s.get(key, 0)

    chain_s = total.get("gfmc.run_chain", 0.0)
    write_s = total.get("shots.write_scan_csv", 0.0)
    sweep_s = total.get("scaling.run_sweep", 0.0)
    busy_s = total.get("scaling._run_replicate", 0.0)
    metrics = {
        "gfmc.run_chain_s": chain_s,
        "gfmc.run_chain_calls": calls.get("gfmc.run_chain", 0),
        "gfmc.walker_steps": counts["steps"],
        "gfmc.walker_steps_per_s": counts["steps"] / chain_s if chain_s else 0.0,
        "gfmc.reweighted_energy_s": total.get("gfmc.reweighted_energy", 0.0),
        "gfmc.average_local_energy_s": total.get("gfmc.average_local_energy", 0.0),
        "gfmc.local_energy_table_s": total.get("gfmc.local_energy_table", 0.0),
        "exact.ground_state_s": total.get("exact.ground_state", 0.0),
        "exact.ground_state_calls": calls.get("exact.ground_state", 0),
        "exact.lanczos_iterations": counts["iterations"],
        "shots.write_scan_csv_s": write_s,
        "shots.write_scan_csv_mib_per_s":
            counts["bytes"] / 2**20 / write_s if write_s else 0.0,
        "shots.local_energy_scan_s": self_by_name.get("shots.local_energy_scan", 0.0),
        "shots.sample_counts_s": total.get("shots.sample_counts", 0.0),
        "shots.sample_counts_calls": calls.get("shots.sample_counts", 0),
        "trial.build_table_s": total.get("trial.build_table", 0.0),
        "scaling.run_sweep_s": sweep_s,
        "scaling.replicate_tasks": calls.get("scaling._run_replicate", 0),
        "scaling.pool_busy_fraction":
            busy_s / (threads * sweep_s) if sweep_s and threads else 0.0,
        "scaling.reference_energy_s": total.get("scaling.reference_energy", 0.0),
        "scaling.summarize_s": total.get("scaling.summarize", 0.0),
        "scaling.write_sweep_csv_s": total.get("scaling.write_sweep_csv", 0.0),
        "cli.main_self_s": self_by_name.get("cli.main", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


if __name__ == "__main__":
    sys.exit(run_traced_cli(sys.argv[1], sys.argv[2:]))
