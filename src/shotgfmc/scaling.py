"""Measurement-budget sweeps and the exponential-cost fits.

For every (L, M, replicate) a frozen shot-noise table is drawn from the
exact trial distribution, one chain is run on it, and the energy per site
is recorded. Per (L, M) the 16 replicates aggregate into the absolute
value of the mean signed error (noisy chains are biased; the bias is what
crosses the target lines) and its standard error. Each size's exact E0
comes from its own Lanczos solve, so a sweep depends only on its
arguments and seed.

Crossings M*(eps) are localized by a weighted log-log fit with free
exponent in an error band around each target (the measured error decays
with local exponents between roughly -0.5 and -1.3 across the grid, so a
global fixed -1/2 model displaces the crossing; see fit_prefactor for the
fixed-exponent prefactor that is still reported per L). The per-target
crossings then feed the exponential fit log2 M* = log2 a + b*L over
L > 6.

``run_walkers`` is the one driver from walkers (M, rep) to measured
chains: ``run_sweep`` and the ``gfmc`` command both run their chains
through it, and ``build_trial`` builds the trial table they share.
"""

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exact import ground_state
from .gfmc import (
    GfmcConfig,
    average_local_energy,
    max_population,
    reweighted_energy,
    run_chain,
)
from .model import TfiModel, check_table_size
from .shots import MAX_SHOTS, check_threads, draw_tables, write_csv_rows
from .trial import JastrowParams, build_table, check_ground_state_gamma

# shots.draw_tables calls these; perfbench/tracing.py looks them up here
from .shots import noisy_amplitudes, sample_counts  # noqa: F401

SECONDS_PER_YEAR = 3.156e7

SWEEP_SCHEMA = "sweep_points.v1"
SUMMARY_SCHEMA = "scaling_summary.v1"

DEFAULT_TARGETS = (0.005, 0.01, 0.02)
DEFAULT_FIT_WINDOW = (0.005, 0.1)
DEFAULT_CROSSING_BAND = 5.0
# name -> estimate of a ChainRecord, for sweep and gfmc; each entry looks its
# function up here at call time, where perfbench/tracing.py wraps it
ESTIMATORS = {"reweighted": lambda r: reweighted_energy(r),
              "average": lambda r: average_local_energy(r)}
CROSSING_METHODS = ("local", "prefactor")
TRIAL_KINDS = ("jastrow", "exact-groundstate")

# empirical crossing scale used to center the default geometric M grids,
# and the grid's factor-2 steps below and above that center
_GRID_CENTER = {"jastrow": (29.9, 0.982), "exact-groundstate": (37.8, 0.970)}
_GRID_STEPS_BELOW = 9
_GRID_STEPS_ABOVE = 2


class FitError(RuntimeError):
    """A fit had too few usable points or no crossing."""


@dataclass
class SweepPoint:
    L: int
    M: int
    trial_kind: str
    estimator: str
    replicate_estimates: np.ndarray  # energy per site, one entry per replicate
    e0_per_site: float
    mean_error: float = field(init=False)
    std_error: float = field(init=False)

    def __post_init__(self):
        self.replicate_estimates = np.asarray(self.replicate_estimates, dtype=np.float64)
        signed = self.replicate_estimates - self.e0_per_site
        self.mean_error = float(abs(signed.mean()))
        self.std_error = float(signed.std(ddof=1) / math.sqrt(len(signed)))


def default_m_grid(L: int, trial_kind: str) -> list[int]:
    """Geometric factor-2 grid centered on the expected 0.005 crossing."""
    a_ref, b_ref = _GRID_CENTER[trial_kind]
    center = a_ref * 2.0 ** (b_ref * L)
    return sorted({max(1, round(center * 2.0 ** j))
                   for j in range(-_GRID_STEPS_BELOW, _GRID_STEPS_ABOVE + 1)})


def check_size(m: TfiModel, trial_kind: str, cfg: GfmcConfig) -> float:
    """Reject m before any solve and return its resolved shift: the exact
    trial's Gamma rule first (the auto shift also fails at Gamma = 0), then
    the table cap, then the shift."""
    if trial_kind == "exact-groundstate":
        check_ground_state_gamma(m.Gamma)
    check_table_size(m)
    return cfg.resolve_lambda_shift(m)


def build_trial(m: TfiModel, kind: str, jastrow: JastrowParams | None = None):
    """(trial table, GroundStateResult or None if no solve was needed).

    The exact trial at Gamma = 0 is rejected before the solve.
    """
    if kind == "exact-groundstate":
        check_ground_state_gamma(m.Gamma)
        gs = ground_state(m)
        return build_table("exact-groundstate", m, vector=gs.vector), gs
    return build_table(kind, m, params=jastrow), None


def run_walkers(m: TfiModel, cfg: GfmcConfig, trial, walkers, base_seed: int,
                measure) -> list:
    """measure(record) for the ChainRecord of each walker (M, rep), in order.

    Each walker chains on its table and generator from draw_tables, in
    populations of at most max_population(cfg) that hold their W tables
    once, in the (W, 2^L) array run_chain walks. A record does not depend
    on its population, and leaves only through what measure returns.
    """
    width = max_population(cfg)
    results = []
    for first in range(0, len(walkers), width):
        amps, rngs = draw_tables(trial, walkers[first:first + width], base_seed)
        records = run_chain(cfg, amps, m, rngs)
        # free the tables before measure runs, the records before the next draw
        del amps
        results += map(measure, records)
        del records
    return results


def _run_replicate(task):
    """Pool task: one share of the walkers at one L, run by run_walkers.

    Returns the walkers' energies per site, in order. The name predates
    populations; perfbench/tracing.py wraps it by name.
    """
    m, cfg, trial, walkers, base_seed, estimator = task
    estimate = ESTIMATORS[estimator]
    try:
        return run_walkers(m, cfg, trial, walkers, base_seed, lambda r: estimate(r) / m.L)
    except Exception as exc:
        (M0, rep0), (M1, rep1) = walkers[0], walkers[-1]
        raise RuntimeError(f"walkers failed at L={m.L} (M={M0} rep={rep0} .. "
                           f"M={M1} rep={rep1})") from exc


def run_sweep(m_grid, L_grid, trial_kind: str, base_cfg: GfmcConfig,
              replicates: int = 16, *, J: float = 1.0, Gamma: float = 1.0,
              base_seed: int = 0, estimator: str = "reweighted",
              jastrow: JastrowParams | None = None,
              threads: int | None = 1) -> list[SweepPoint]:
    """One SweepPoint per distinct (L, M): replicates chains on fresh frozen tables.

    m_grid is None (default per-L grids) or a list shared by every L;
    repeated sizes and budgets run once. Each size's reference energy
    comes from its own Lanczos solve, so the points depend only on the
    arguments. The walkers of one L are split into `threads` run_walkers
    tasks, run on a pool of min(threads, tasks, cores) workers, or
    in-process when that is 1; threads=None means one per core. Walker
    seeds depend only on (base_seed, L, M, rep) and a record not on its
    task or population, so neither the schedule nor threads can change
    any number. A failed
    task aborts the sweep with its (L, M, rep) range attached. Arguments
    (empty grids and budgets outside 1 .. MAX_SHOTS included) and every
    size (check_size) are checked before any solve.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {tuple(ESTIMATORS)}")
    if trial_kind not in TRIAL_KINDS:
        raise ValueError(f"trial_kind must be one of {TRIAL_KINDS}")
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if len(L_grid) == 0 or (m_grid is not None and len(m_grid) == 0):
        raise ValueError("L_grid and m_grid must each give at least one value")
    if m_grid is not None and min(m_grid) < 1:
        raise ValueError(f"every shot budget M must be >= 1, got m_grid = {list(m_grid)}")
    if m_grid is not None and max(m_grid) > MAX_SHOTS:
        raise ValueError(f"every shot budget M must be at most 2^63 - 1 = {MAX_SHOTS}, "
                         f"got m_grid = {list(m_grid)}")
    threads = check_threads(threads)
    models = [TfiModel(L, J, Gamma) for L in sorted(set(L_grid))]
    for m in models:
        check_size(m, trial_kind, base_cfg)
    tasks = []
    e0_per_site = {}
    for m in models:
        trial, gs = build_trial(m, trial_kind, jastrow)
        e0_per_site[m.L] = reference_energy(m, gs) / m.L
        ms = default_m_grid(m.L, trial_kind) if m_grid is None else sorted(set(m_grid))
        walkers = [(int(M), rep) for M in ms for rep in range(replicates)]
        width = -(-len(walkers) // threads)
        for i in range(0, len(walkers), width):
            tasks.append((m, base_cfg, trial, walkers[i:i + width], base_seed, estimator))

    # the pool forks all its workers at the first task, so start no more
    # than there are tasks and cores
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: loading the pool costs every other command ~18 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replicate, tasks))
    else:
        outcomes = [_run_replicate(task) for task in tasks]
    # tasks hold each L's walkers in (M, rep) order, so reps arrive in order
    ests = {}
    for (m, _cfg, _trial, walkers, *_), outcome in zip(tasks, outcomes):
        for (M, _rep), est in zip(walkers, outcome):
            ests.setdefault((m.L, M), []).append(est)
    return [SweepPoint(L, M, trial_kind, estimator, ests[(L, M)], e0_per_site[L])
            for (L, M) in sorted(ests)]


def reference_energy(m: TfiModel, gs=None) -> float:
    """Exact ground-state energy of m, the E0 reference of sweep and gfmc.

    gs, the GroundStateResult of m if one was already solved, is used as
    is; without it m is solved by Lanczos.
    """
    return (gs if gs is not None else ground_state(m)).energy


# ---------------------------------------------------------------------------
# fits

class PrefactorFit(NamedTuple):
    c: float
    n_points: int
    window: tuple
    rms_residual: float


class CrossingFit(NamedTuple):
    m_star: float
    exponent: float
    n_points: int
    band: float


class ExponentialFit(NamedTuple):
    a: float
    b: float
    n_points: int


def _point_arrays(points):
    Ms = np.array([p.M for p in points], dtype=np.float64)
    errs = np.array([p.mean_error for p in points])
    ses = np.array([max(p.std_error, 1e-30) for p in points])
    return Ms, errs, ses


def fit_prefactor(points: list[SweepPoint],
                  window: tuple = DEFAULT_FIT_WINDOW) -> PrefactorFit:
    """Weighted zero-intercept fit mean_error = c * M^(-1/2) inside window.

    Weights are 1/std_error^2. Raises FitError with fewer than 3 in-window
    points. The rms residual is reported so the quality of the fixed
    -1/2 model over the window can be judged.
    """
    Ms, errs, ses = _point_arrays(points)
    inside = (errs >= window[0]) & (errs <= window[1])
    n = int(inside.sum())
    if n < 3:
        raise FitError(f"only {n} points with error inside {window}; need 3")
    x = Ms[inside] ** -0.5
    y = errs[inside]
    w = 1.0 / ses[inside] ** 2
    c = float(np.sum(w * x * y) / np.sum(w * x * x))
    rms = float(np.sqrt(np.mean((y - c * x) ** 2)))
    return PrefactorFit(c, n, tuple(window), rms)


def crossing_M(c: float, eps: float) -> float:
    """Crossing of c * M^(-1/2) with the constant error line eps; FitError
    where it overflows a float."""
    if c <= 0 or eps <= 0:
        raise ValueError("c and eps must be positive")
    try:
        m_star = (c / eps) ** 2
    except OverflowError:
        m_star = math.inf
    if not math.isfinite(m_star):
        raise FitError(f"crossing M* = (c/eps)^2 overflows a float at c = {c!r}, eps = {eps!r}")
    return m_star


def fit_crossing(points: list[SweepPoint], eps: float,
                 band: float = DEFAULT_CROSSING_BAND) -> CrossingFit:
    """Localize the M where mean_error crosses eps.

    Power-law fit log(err) = alpha + beta log(M) over the points whose
    error lies within a factor `band` of the target, weighted by err/se
    (the reciprocal log-scale sigma), solved for err = eps.
    """
    if eps <= 0 or band <= 1:
        raise FitError("eps must be positive and band > 1")
    Ms, errs, ses = _point_arrays(points)
    inside = (errs >= eps / band) & (errs <= eps * band) & (errs > 0)
    n = int(inside.sum())
    if n < 3:
        raise FitError(f"only {n} points within a factor {band} of eps={eps}; need 3")
    x = np.log(Ms[inside])
    y = np.log(errs[inside])
    w = errs[inside] / ses[inside]
    beta, alpha = np.polyfit(x, y, 1, w=w)
    if beta >= 0:
        raise FitError(f"error does not decrease with M near eps={eps} (exponent {beta:.3f})")
    m_star = float(np.exp((math.log(eps) - alpha) / beta))
    if not np.isfinite(m_star) or m_star <= 0:
        raise FitError(f"crossing fit produced M*={m_star!r}")
    return CrossingFit(m_star, float(beta), n, band)


def fit_exponential(m_star_by_L: dict, L_min_exclusive: int = 6) -> ExponentialFit:
    """Least squares of log2 M* = log2 a + b*L over sizes L > L_min_exclusive."""
    items = sorted((L, v) for L, v in m_star_by_L.items()
                   if v is not None and L > L_min_exclusive)
    if len(items) < 2:
        raise FitError(f"need at least 2 sizes above L={L_min_exclusive}, have {len(items)}")
    Ls = np.array([L for L, _ in items], dtype=np.float64)
    logm = np.log2([v for _, v in items])
    b, log2a = np.polyfit(Ls, logm, 1)
    with np.errstate(over="ignore"):
        a = float(2.0 ** log2a)
    if not math.isfinite(a):
        raise FitError(f"prefactor a = 2^{float(log2a)!r} overflows a float")
    return ExponentialFit(a, float(b), len(items))


def summarize(points: list[SweepPoint], targets=DEFAULT_TARGETS,
              window=DEFAULT_FIT_WINDOW, band: float = DEFAULT_CROSSING_BAND,
              L_min_exclusive: int = 6, crossing_method: str = "local") -> dict:
    """Per-L prefactors and crossings, then the global exponential fits.

    Returns the scaling_summary.v1 dict, as written to scaling_summary.json
    (the sweep command adds its provenance).

    crossing_method "local" uses fit_crossing per target;
    "prefactor" derives every crossing from the single windowed
    M^(-1/2) prefactor via crossing_M. Fit failures are recorded per
    (L, target) instead of aborting. An empty points list and repeated
    targets are rejected.
    """
    if not points:
        raise ValueError("summarize needs at least one sweep point")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {list(targets)}")
    if crossing_method not in CROSSING_METHODS:
        raise ValueError("crossing_method must be 'local' or 'prefactor'")
    by_L: dict[int, list[SweepPoint]] = {}
    for p in points:
        by_L.setdefault(p.L, []).append(p)

    per_L = {}
    m_star_by_target: dict[float, dict[int, float | None]] = {t: {} for t in targets}
    for L, pts in sorted(by_L.items()):
        entry: dict = {"window": list(window)}
        try:
            pf = fit_prefactor(pts, window)
            entry["c"] = pf.c
            entry["c_n_points"] = pf.n_points
            entry["c_rms_residual"] = pf.rms_residual
        except FitError as exc:
            pf = None
            entry["c"] = None
            entry["c_error"] = str(exc)
        entry["M_star"] = {}
        entry["crossings"] = {}
        for t in targets:
            try:
                if crossing_method == "local":
                    cf = fit_crossing(pts, t, band)
                    m_star = cf.m_star
                    crossing = {"exponent": cf.exponent, "n_points": cf.n_points,
                                "band": cf.band}
                elif pf is None:
                    raise FitError(entry["c_error"])
                else:
                    m_star = crossing_M(pf.c, t)
                    crossing = {"method": "prefactor"}
            except FitError as exc:
                m_star, crossing = None, {"error": str(exc)}
            entry["M_star"][repr(t)] = m_star
            entry["crossings"][repr(t)] = crossing
            m_star_by_target[t][L] = m_star
        per_L[str(L)] = entry

    global_fits = {}
    for t in targets:
        try:
            ef = fit_exponential(m_star_by_target[t], L_min_exclusive)
            global_fits[repr(t)] = {"a": ef.a, "b": ef.b, "n_points": ef.n_points,
                                    "L_min_exclusive": L_min_exclusive}
        except FitError as exc:
            global_fits[repr(t)] = {"error": str(exc)}

    return {
        "schema_version": SUMMARY_SCHEMA,
        "trial_kind": points[0].trial_kind,
        "estimator": points[0].estimator,
        "targets": list(targets),
        "window": list(window),
        "crossing_method": crossing_method,
        "crossing_band": band,
        "per_L": per_L,
        "global": global_fits,
    }


# ---------------------------------------------------------------------------
# wall-time extrapolation

def _require_finite(**inputs) -> None:
    for name, value in inputs.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got an integer too large "
                             f"for a float") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(**inputs) -> None:
    bad = {name: value for name, value in inputs.items() if value <= 0}
    if bad:
        raise ValueError(f"{' and '.join(bad)} must be positive, got "
                         f"{' and '.join(repr(v) for v in bad.values())}")


class RuntimeEstimate(NamedTuple):
    shots: float
    seconds: float
    years: float


def extrapolate_runtime(a: float, b: float, L: int, circuit_layers: int,
                        gate_clock_hz: float) -> RuntimeEstimate:
    """Shot count a*2^(b*L) and the serial wall time to collect it.

    One shot costs circuit_layers / gate_clock_hz seconds; qubit reset,
    readout and communication latency are not included.
    """
    _require_finite(a=a, b=b, L=L)
    # b may be any finite real
    _require_positive(a=a, L=L)
    try:
        shots = a * 2.0 ** (b * L)
    except OverflowError:
        shots = math.inf
    if not math.isfinite(shots) or shots == 0.0:
        flow = "overflows a float" if shots else "underflows to 0"
        raise ValueError(f"shot count a*2^(b*L) {flow} at "
                         f"a = {a!r}, b = {b!r}, L = {L!r}")
    return runtime_for_shots(shots, circuit_layers, gate_clock_hz)


def runtime_for_shots(shots: float, circuit_layers: int,
                      gate_clock_hz: float) -> RuntimeEstimate:
    """Wall time for an explicitly given shot count."""
    _require_finite(shots=shots, circuit_layers=circuit_layers, gate_clock_hz=gate_clock_hz)
    _require_positive(shots=shots, circuit_layers=circuit_layers, gate_clock_hz=gate_clock_hz)
    seconds = shots * circuit_layers / gate_clock_hz
    if not math.isfinite(seconds) or seconds == 0.0:
        flow = "overflows a float" if seconds else "underflows to 0"
        raise ValueError(f"wall time shots*circuit_layers/gate_clock_hz {flow} at "
                         f"shots = {shots!r}, circuit_layers = {circuit_layers!r}, "
                         f"gate_clock_hz = {gate_clock_hz!r}")
    return RuntimeEstimate(shots, seconds, seconds / SECONDS_PER_YEAR)


# ---------------------------------------------------------------------------
# serialization

def write_sweep_csv(points: list[SweepPoint], path) -> None:
    """One row per replicate, sorted by (L, M, rep); floats as their repr."""
    with open(path, "wb") as f:
        f.write(f"# schema={SWEEP_SCHEMA}\n".encode())
        f.write(b"L,M,trial_kind,rep,energy_per_site,E0_per_site,signed_error\n")
        for p in sorted(points, key=lambda q: (q.L, q.M)):
            est = p.replicate_estimates
            write_csv_rows(f, [f"{p.L},{p.M},{p.trial_kind},".encode(), np.arange(len(est)),
                               b",", est, b",", np.full(len(est), p.e0_per_site), b",",
                               est - p.e0_per_site, b"\n"])
