"""Green's function Monte Carlo with independent walkers.

Each walker moves with the importance-sampled propagator built from
lam*1 - H and a trial amplitude table; only the sequence of normalization
factors b and local energies e = lam - b is kept. The ground-state
estimator multiplies a sliding window of l past b factors into each
sample's weight (in the log domain, max-shifted before exponentiation);
the plain chain average of e is also exposed.

The walker can only step onto states with nonzero amplitude, so tables
with zero entries (shot-noise tables) confine the walk to the measured
support. Walkers that share a model and a config are stepped together as
one population (``_kernels.chain_fill``), one kernel iteration per run of
stays: most steps leave the walker where it is, and such a run repeats
one (state, b) pair, so the kernel tests a run's uniforms against the
stay weight together and records the run at once. The stay test is the
same product and comparison as the per-step inverse CDF, each uniform
is used at its own step, and every walker keeps its own table and draws
its whole stream in one call, so its record is bit-identical to the
single-walker loop's and does not depend on the population.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import chain_fill, sliding_window_sums
from .model import TfiModel, all_diagonal_energies, flip_bit
from .trial import AmplitudeTable

DEFAULT_CHAIN_LENGTH = 50_000
DEFAULT_WARMUP = 1_000
DEFAULT_REWEIGHT_WINDOW = 100

# refresh cadence of the sliding log-weight sum (drift control)
_WINDOW_RECOMPUTE_EVERY = 10_000

# largest b record one population may hold, as its (walkers, steps)
# array of float64; scaling.run_walkers splits bigger batches
POPULATION_RECORD_BYTES = 8 << 20


def auto_lambda_shift(m: TfiModel) -> float:
    """Default diagonal shift: L*J + 2*Gamma.

    Any value above L*J keeps every propagator entry nonnegative; the two
    field units of headroom keep the projection per reweighting step fast
    enough that a window of ~100 factors converges the estimator. Requires
    Gamma > 0; pass an explicit shift otherwise.
    """
    lam = m.L * m.J + 2.0 * m.Gamma
    if lam <= m.L * m.J:
        raise ValueError("auto shift needs Gamma > 0; give lambda_shift explicitly")
    return lam


@dataclass(frozen=True)
class GfmcConfig:
    """Chain parameters. lambda_shift=None resolves to auto_lambda_shift."""

    lambda_shift: float | None = None
    chain_length: int = DEFAULT_CHAIN_LENGTH
    warmup: int = DEFAULT_WARMUP
    l_reweight: int = DEFAULT_REWEIGHT_WINDOW

    def __post_init__(self):
        if self.chain_length <= self.warmup + self.l_reweight:
            raise ValueError(
                f"chain_length ({self.chain_length}) must exceed "
                f"warmup + l_reweight ({self.warmup} + {self.l_reweight})"
            )
        if self.warmup < 0 or self.l_reweight < 1:
            raise ValueError("warmup must be >= 0 and l_reweight >= 1")

    def resolve_lambda_shift(self, m: TfiModel) -> float:
        lam = self.lambda_shift if self.lambda_shift is not None else auto_lambda_shift(m)
        if not np.isfinite(lam) or lam <= m.L * m.J:
            raise ValueError(
                f"lambda_shift must be finite and exceed L*J = {m.L * m.J} to keep "
                f"the propagator nonnegative, got {lam}"
            )
        return float(lam)


@dataclass
class ChainRecord:
    """Per-step (state, b, e) after warmup; e[n] = lambda_shift - b[n] exactly."""

    states: np.ndarray
    b_values: np.ndarray
    e_values: np.ndarray
    config: GfmcConfig
    lambda_shift: float

    def __len__(self) -> int:
        return len(self.states)


def local_energy_table(t: AmplitudeTable, m: TfiModel) -> tuple[np.ndarray, np.ndarray]:
    """Local energies for every basis state.

    Returns (e, defined): e[x] is NaN where the amplitude vanishes and
    defined is the boolean support mask. Zero-amplitude neighbors
    contribute nothing.
    """
    defined = t.amps > 0.0
    acc = np.zeros(m.n_states)
    flipped = np.empty(m.n_states)
    for k in range(m.L):
        acc += flip_bit(t.amps, k, flipped)
    e = np.full(m.n_states, np.nan)
    e[defined] = (
        all_diagonal_energies(m)[defined] - m.Gamma * acc[defined] / t.amps[defined]
    )
    return e, defined


def _draw_initial_state(t: AmplitudeTable, rng: np.random.Generator) -> int:
    p = t.probabilities
    total = p.sum()
    if total <= 0.0:
        raise RuntimeError("amplitude table has no support")
    cdf = np.cumsum(p)
    x = int(np.searchsorted(cdf, rng.random() * total, side="right"))
    if x == len(p):
        # the pairwise total can exceed cdf[-1]; a draw in that gap
        # belongs to the last state with p > 0
        x = int(np.flatnonzero(p)[-1])
    return x


def max_population(cfg: GfmcConfig) -> int:
    """Most walkers whose b records, one row of chain_length - warmup
    float64 per walker, fit in POPULATION_RECORD_BYTES (at least 1).

    The cap also bounds the population's uniforms, chain_length + 8
    float64 per walker, which chain_fill frees before run_chain builds
    the e records."""
    return max(1, POPULATION_RECORD_BYTES // (8 * (cfg.chain_length - cfg.warmup)))


def run_chain(cfg: GfmcConfig, tables, m: TfiModel, rngs) -> list[ChainRecord]:
    """Generate a population of chains, one per table.

    tables and rngs are matching sequences: walker w runs on tables[w]
    and draws from rngs[w]. Every walker draws its initial state from
    amps^2 (restricted to the support by construction) and then
    chain_length uniforms from its own generator; its record covers steps
    warmup .. chain_length-1. A walker's record is a function of (config,
    table, model, generator state) alone, bit for bit, whatever
    population it runs in. Each record's arrays are C-contiguous rows of
    the population's (walkers, steps) arrays.
    """
    tables, rngs = list(tables), list(rngs)
    if not tables or len(tables) != len(rngs):
        raise ValueError("a population needs one generator per table")
    if any(table.L != m.L for table in tables):
        raise ValueError("table and model sizes disagree")
    lam = cfg.resolve_lambda_shift(m)
    x = np.array([_draw_initial_state(table, r) for table, r in zip(tables, rngs)],
                 dtype=np.int64)
    n_rec = cfg.chain_length - cfg.warmup
    # one contiguous row per walker
    states = np.empty((len(tables), n_rec), dtype=np.int64)
    bvals = np.empty((len(tables), n_rec))
    chain_fill(np.stack([table.amps for table in tables]),
               lam - all_diagonal_energies(m), m.Gamma, cfg.warmup, x, rngs,
               states, bvals)
    evals = lam - bvals
    return [ChainRecord(states[w], bvals[w], evals[w], cfg, lam)
            for w in range(len(tables))]


def reweighted_energy(r: ChainRecord, l: int | None = None) -> float:
    """Ground-state energy estimate from the recorded (b, e) sequences.

    Each sample n >= l carries the product of the l preceding b factors,
    accumulated as a sliding sum of log b and max-shifted before
    exponentiation; the common positive rescaling cancels in the ratio.
    """
    if l is None:
        l = r.config.l_reweight
    n = len(r)
    if n <= l:
        raise ValueError(f"record length {n} must exceed the window l={l}")
    if np.any(r.b_values <= 0):
        raise ValueError("all b factors must be positive")
    logb = np.log(r.b_values)
    log_weights = np.empty(n - l)
    sliding_window_sums(logb, l, _WINDOW_RECOMPUTE_EVERY, log_weights)
    g = np.exp(log_weights - log_weights.max())
    return float(np.sum(g * r.e_values[l:])) / float(np.sum(g))


def average_local_energy(r: ChainRecord) -> float:
    """Plain post-warmup mean of the local energies, no reweighting."""
    if len(r) == 0:
        raise ValueError("empty chain record")
    return float(np.mean(r.e_values))
