"""Correctness checks of one workload's CLI outputs.

    python perfbench/checks.py WORKLOAD OUT_DIR STDOUT_FILE SEED

prints a JSON list of failure messages (empty when the outputs are
right). It runs in its own process because parsing the scan table takes
a few hundred MiB. The references are computed here, apart from the
program: the ground-state energy comes from the closed-form free-fermion
solution, the rest are properties the method must have.
"""

import io
import json
import math
import os
import sys

import numpy as np

from workloads import (
    GFMC_L,
    GFMC_REPLICATES,
    SCAN_L,
    SCAN_M0,
    SCAN_REPS,
    SWEEP_GRID_POINTS,
    SWEEP_L,
    SWEEP_REPLICATES,
)

E0_REL_TOL = 1e-9
# residual tolerance of the CLI's Lanczos solve (the default of
# shotgfmc.exact.ground_state); a local energy (H psi)(x) / psi(x) of the
# computed ground state can differ from E0 by up to this residual / psi(x)
LANCZOS_TOL = 1e-10
# sweep targets whose crossing must exist at both sizes. The 0.005
# crossing at L = 8 lies near the top of the default M grid, where only
# two grid points fall inside the fit band on some seeds, so the program
# reports a fit error there; it is checked only when both crossings exist.
SWEEP_REQUIRED_TARGETS = ("0.01", "0.02")


def free_fermion_e0(L: int, J: float = 1.0, Gamma: float = 1.0) -> float:
    """Ground-state energy of the periodic TFI chain, even-parity sector.

    Jordan-Wigner fermions with antiperiodic momenta k = pi (2n+1) / L:
    E0 = -sum_k sqrt(J^2 + Gamma^2 - 2 J Gamma cos k).
    """
    return -math.fsum(
        math.sqrt(J * J + Gamma * Gamma - 2 * J * Gamma * math.cos(math.pi * (2 * n + 1) / L))
        for n in range(L)
    )


def _e0_mismatch(where: str, value: float, L: int) -> list:
    ref = free_fermion_e0(L) / L
    if abs(value - ref) > E0_REL_TOL * abs(ref):
        return [f"{where}: E0_per_site {value!r} != free-fermion {ref!r} (L={L})"]
    return []


def check_sweep(out_dir: str, stdout: str, seed: int) -> list:
    errors = []
    by_LM = {}
    with open(os.path.join(out_dir, "sweep_points.csv")) as f:
        rows = [line.split(",") for line in f.read().splitlines()[2:]]
    for row in rows:
        L, M, rep = int(row[0]), int(row[1]), int(row[3])
        errors += _e0_mismatch("sweep_points.csv", float(row[5]), L)
        by_LM.setdefault((L, M), {})[rep] = float(row[4]) - float(row[5])
    for L in SWEEP_L:
        grid = sorted(M for (L_, M) in by_LM if L_ == L)
        if len(grid) != SWEEP_GRID_POINTS:
            errors.append(f"L={L}: {len(grid)} M values, expected {SWEEP_GRID_POINTS}")
            continue
        if any(sorted(by_LM[(L, M)]) != list(range(SWEEP_REPLICATES)) for M in grid):
            errors.append(f"L={L}: some M lacks replicates 0..{SWEEP_REPLICATES - 1}")
            continue
        low = np.mean(list(by_LM[(L, grid[0])].values()))
        high = np.mean(list(by_LM[(L, grid[-1])].values()))
        # at the smallest budget the walk is confined to the few measured
        # states, which can only raise the energy
        if not low > 0:
            errors.append(f"L={L}: mean signed error {low!r} at M={grid[0]} is not positive")
        if not abs(high) < abs(low):
            errors.append(f"L={L}: error at M={grid[-1]} ({high!r}) is not below "
                          f"the error at M={grid[0]} ({low!r})")

    with open(os.path.join(out_dir, "scaling_summary.json")) as f:
        summary = json.load(f)
    if summary["provenance"]["base_seed"] != seed:
        errors.append("scaling_summary.json carries another base seed")
    if json.loads(stdout) != summary:
        errors.append("stdout summary differs from scaling_summary.json")
    small, large = (str(L) for L in SWEEP_L)
    for target, fit in summary["global"].items():
        m_small = summary["per_L"][small]["M_star"][target]
        m_large = summary["per_L"][large]["M_star"][target]
        if target not in SWEEP_REQUIRED_TARGETS and (m_small is None or m_large is None):
            continue
        if m_small is None or m_large is None or not m_large > m_small:
            errors.append(f"target {target}: M*(L={large})={m_large!r} is not above "
                          f"M*(L={small})={m_small!r}")
        if not fit.get("b", 0.0) > 0:
            errors.append(f"target {target}: fitted b is not positive ({fit!r})")
    return errors


def check_scan(out_dir: str, stdout: str, seed: int) -> list:
    n = 1 << SCAN_L
    M = SCAN_M0 * n
    with open(os.path.join(out_dir, "local_energy_scan.csv"), "rb") as f:
        raw = f.read().replace(b",NA,", b",nan,")
    data = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=2, encoding="latin1")
    del raw
    if data.shape != (SCAN_REPS * n, 10):
        return [f"scan table has shape {data.shape}, expected ({SCAN_REPS * n}, 10)"]
    errors = []
    rep, rank, state = data[:, 0], data[:, 1], data[:, 2]
    exact_amp, noisy_amp, exact_eloc, noisy_eloc = data[:, 3], data[:, 4], data[:, 5], data[:, 6]
    if not (np.array_equal(rep, np.repeat(np.arange(SCAN_REPS), n))
            and np.array_equal(rank, np.tile(np.arange(n), SCAN_REPS))):
        errors.append("rows are not in (rep, rank) order")
    if not all(np.array_equal(np.sort(state[r * n:(r + 1) * n]), np.arange(n))
               for r in range(SCAN_REPS)):
        errors.append("a replicate does not list every basis state once")
    if not (np.all(data[:, 7] == SCAN_L) and np.all(data[:, 8] == SCAN_M0)
            and np.all(data[:, 9] == seed)):
        errors.append("L, M0 or seed column does not match the command")

    # zero-variance property of the exact trial: e_L(x) = E0 everywhere,
    # up to the solver's residual amplified by 1/psi(x)
    e0 = free_fermion_e0(SCAN_L)
    allowed = E0_REL_TOL * abs(e0) + LANCZOS_TOL / exact_amp
    bad = np.abs(exact_eloc - e0) > allowed
    if np.any(bad):
        i = int(np.argmax(bad))
        errors.append(f"{int(bad.sum())} exact_eloc differ from free-fermion E0 {e0!r}, "
                      f"e.g. state {int(state[i])}: {exact_eloc[i]!r}")

    if not np.array_equal(np.isnan(noisy_eloc), noisy_amp == 0.0):
        errors.append("noisy_eloc is NA at other states than those with noisy_amp 0")
    counts = M * noisy_amp ** 2
    whole = np.rint(counts)
    if np.max(np.abs(counts - whole)) > 1e-6:
        errors.append("M * noisy_amp^2 is not a whole number of shots")
    per_rep = whole.reshape(SCAN_REPS, n).sum(axis=1)
    if not np.all(per_rep == M):
        errors.append(f"shot counts per replicate {per_rep.tolist()} do not all sum to M={M}")
    return errors


def check_gfmc(out_dir: str, stdout: str, seed: int) -> list:
    with open(os.path.join(out_dir, "gfmc_result.json")) as f:
        result = json.load(f)
    errors = _e0_mismatch("gfmc_result.json", result["E0_per_site"], GFMC_L)
    rew = result["reweighted"]
    if len(rew["per_replicate"]) != GFMC_REPLICATES:
        errors.append(f"{len(rew['per_replicate'])} replicates, expected {GFMC_REPLICATES}")
    # variational bound: no estimate lies systematically below E0
    floor = free_fermion_e0(GFMC_L) / GFMC_L - 4 * rew["std_error"]
    if not rew["mean"] >= floor:
        errors.append(f"reweighted mean {rew['mean']!r} is below E0 - 4 SE = {floor!r}")
    if json.loads(stdout) != {k: v for k, v in result.items() if k != "schema_version"}:
        errors.append("stdout payload differs from gfmc_result.json")
    return errors


CHECKS = {
    "sweep-jastrow": check_sweep,
    "scan-groundstate": check_scan,
    "gfmc-groundstate": check_gfmc,
}


def main(argv: list) -> int:
    workload, out_dir, stdout_path, seed = argv
    with open(stdout_path) as f:
        stdout = f.read()
    try:
        errors = CHECKS[workload](out_dir, stdout, int(seed))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors = [f"outputs could not be read: {exc!r}"]
    print(json.dumps(errors))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
