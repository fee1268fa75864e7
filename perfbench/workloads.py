"""The three benchmark workloads: what each CLI command is asked to do.

Kept free of numpy so the benchmark's own process stays small: a child's
``ru_maxrss`` starts from the parent's high-water mark at spawn, so a
large parent would raise every ``peak_rss_mib`` it measures.
"""

from dataclasses import dataclass

# sweep-jastrow: the paper's figure at its two smallest sizes above L = 6
# (the exponential fit needs two), on the CLI's default per-L M grid.
# Chains are cut from the default 50000 steps to 5000 so one command
# takes seconds, not minutes; the chain kernel still does ~90% of the work.
SWEEP_L = (8, 10)
SWEEP_REPLICATES = 16
SWEEP_CHAIN_LENGTH = 5000
SWEEP_GRID_POINTS = 12  # points of the default M grid per size

# scan-groundstate: full-basis local-energy scan, no chain
SCAN_L = 16
SCAN_M0 = 10
SCAN_REPS = 16

# gfmc-groundstate: serial chains on one 2 MiB table, M = 30 * 2^L
GFMC_L = 18
GFMC_M = 30 * 2 ** GFMC_L
GFMC_REPLICATES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple        # CLI arguments, without --seed/--out-dir/--threads
    replicates: int    # operations one command attempts


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep-jastrow",
            ("sweep", "--trial", "jastrow", "--L", ",".join(map(str, SWEEP_L)),
             "--replicates", str(SWEEP_REPLICATES),
             "--chain-length", str(SWEEP_CHAIN_LENGTH)),
            len(SWEEP_L) * SWEEP_GRID_POINTS * SWEEP_REPLICATES,
        ),
        Workload(
            "scan-groundstate",
            ("scan", "--trial", "exact-groundstate", "--L", str(SCAN_L),
             "--M0", str(SCAN_M0), "--reps", str(SCAN_REPS)),
            SCAN_REPS,
        ),
        Workload(
            "gfmc-groundstate",
            ("gfmc", "--trial", "exact-groundstate", "--L", str(GFMC_L),
             "--M", str(GFMC_M), "--replicates", str(GFMC_REPLICATES)),
            GFMC_REPLICATES,
        ),
    )
}
