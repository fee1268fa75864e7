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
one population by ``chain_fill``, on numpy arrays with one column per
walker, one iteration per run of stays rather than one per step: most
steps leave the walker where it is, and such a run repeats one (state, b)
pair. An iteration builds each walker's propagator row once and runs the
stay test on its next ``_RUN_WINDOW`` uniforms. The steps before the
first failure are stays and are recorded in one go; the step after them
(the failing one, or the one after a window that passed in full) runs the
inverse-CDF selection with its own uniform. Walkers drift apart in time:
each keeps its own place in its own stream, and a run stops at the end of
the chain.

A walker's trajectory is bit-identical to the single-walker loop kept as
a reference in ``tests/oracles.py``, and so does not depend on the
population it runs in. The row is accumulated left to right in the same
order. The stay test is the same product u*b and the same comparison with
the stay weight that the loop's inverse CDF makes at index 0. Each
uniform is used at its own step and nowhere else, and every walker keeps
its own table and draws its whole stream in one call, as the loop draws
it.
"""

from dataclasses import dataclass

import numpy as np

from .model import TfiModel, all_diagonal_energies, check_row_shape, neighbour_sum

DEFAULT_CHAIN_LENGTH = 50_000
DEFAULT_WARMUP = 1_000
DEFAULT_REWEIGHT_WINDOW = 100

# steps whose stay test one chain_fill iteration runs before the walker
# selects again
_RUN_WINDOW = 8

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
        # each message starts with its parameter's name, its gfmc.* config key
        if self.chain_length <= self.warmup + self.l_reweight:
            raise ValueError(
                "chain_length must satisfy chain_length > warmup + l_reweight "
                f"({self.chain_length} <= {self.warmup} + {self.l_reweight})"
            )
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.l_reweight < 1:
            raise ValueError("l_reweight must be >= 1")

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


def local_energy_table(amps: np.ndarray, m: TfiModel) -> tuple[np.ndarray, np.ndarray]:
    """Local energies for every basis state of the nonnegative 2^L row amps.

    Returns (e, defined): e[x] is NaN where the amplitude vanishes and
    defined is the boolean support mask. Zero-amplitude neighbors
    contribute nothing.
    """
    check_row_shape(np.shape(amps), m)
    defined = amps > 0.0
    # diag - (Gamma * acc) / amps, in that order, in the neighbour sum's array
    e = neighbour_sum(amps, m.L)
    e *= m.Gamma
    np.divide(e, amps, out=e, where=defined)
    np.subtract(all_diagonal_energies(m), e, out=e)
    e[~defined] = np.nan
    return e, defined


def _draw_initial_state(amps: np.ndarray, rng: np.random.Generator) -> int:
    p = amps * amps
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

    The cap also bounds the population's uniforms, chain_length +
    _RUN_WINDOW float64 per walker, which chain_fill frees before
    run_chain builds the e records."""
    return max(1, POPULATION_RECORD_BYTES // (8 * (cfg.chain_length - cfg.warmup)))


def chain_fill(amps, stay, Gamma, warmup, x, rngs, states, bvals):
    """Walk every walker warmup + n_rec steps, recording after warmup.

    amps is (W, 2^L), one amplitude table per walker; stay[x] = lam - E_diag(x).
    For the current state x of walker w the row of the importance-sampled
    propagator is
      stay weight   stay[x]
      flip weight k Gamma * amps[w, x ^ 1<<k] / amps[w, x]
    b is the row sum and the next state is drawn by inverse CDF with the
    walker's next uniform, first index wins on ties. x (W,) holds the
    initial states. Row w of states and bvals (W, n_rec), C-contiguous,
    receives walker w's x and b at steps warmup .. warmup + n_rec - 1.
    Walker w draws its warmup + n_rec uniforms from rngs[w] in one call;
    the population holds them all, W * (warmup + n_rec + _RUN_WINDOW)
    float64, until it returns.
    """
    W, n_states = amps.shape
    L = n_states.bit_length() - 1
    K = _RUN_WINDOW
    n_rec = states.shape[1]
    n_steps = warmup + n_rec
    flat = np.ascontiguousarray(amps).reshape(-1)
    # move[j] is the XOR mask of CDF row j: row 0 stays, row k+1 flips site k
    move = np.concatenate(([0], np.int64(1) << np.arange(L, dtype=np.int64)))
    flips = move[:, None]
    window = np.arange(K)[:, None]
    # row w holds walker w's uniforms and then +inf, so a run that reaches
    # the chain's end fails the stay test there
    width = n_steps + K
    uniforms = np.full((W, width), np.inf)
    for w, rng in enumerate(rngs):
        uniforms[w, :n_steps] = rng.random(n_steps)
    uflat = uniforms.reshape(-1)
    # -1 marks a record entry where no run starts
    states.fill(-1)
    sflat, bflat = states.reshape(-1), bvals.reshape(-1)

    # per live walker: its index, its state and the step it takes next
    walker = np.arange(W)
    x = x.copy()
    step = np.zeros(W, dtype=np.int64)
    while walker.size:
        row_base = walker << L
        # step n's uniform is at index ubase + n of uflat, and its record
        # at index rec_base + n of the records
        ubase = walker * width
        rec_base = walker * n_rec - warmup
        # propagator rows are stored transposed, one column per walker,
        # so the left-to-right accumulation runs over contiguous rows
        weights = np.empty((L + 1, walker.size))
        cdf = np.empty((L + 1, walker.size))
        # row K stays False, so a window whose steps all stay ends at K
        stays = np.zeros((K + 1, walker.size), dtype=bool)
        # the scratch arrays serve until a walker finishes
        while step.max() < n_steps:
            # row 0 is amps[w, x], row k+1 the flip-k neighbour
            near = flat.take(flips ^ (row_base + x))
            np.divide(near[1:], near[0], out=weights[1:])
            weights[1:] *= Gamma
            np.take(stay, x, out=weights[0])
            np.add.accumulate(weights, 0, None, cdf)
            b = cdf[L]
            # a step stays when u*b < cdf[0], the inverse CDF's test at
            # index 0; every step from step up to end stays
            np.less(uflat.take(window + (ubase + step)) * b, cdf[0], out=stays[:K])
            end = step + stays.argmin(axis=0)
            # (x, b) holds from step through end; runs inside the warmup
            # land on record 0 and are overwritten by the run that reaches
            # warmup
            at = rec_base + np.maximum(step, warmup)
            sflat[at] = x
            bflat[at] = b
            # step end selects with its own uniform; at the chain's end
            # u = inf, and the walker finishes whatever it selects
            t = uflat.take(ubase + end) * b
            below = t < cdf
            sel = below.argmax(axis=0)
            # weights are nonnegative, so the CDF peaks at b in the last row
            if not below[L].all():
                # cumulative roundoff (or u = inf) left t at/past the top;
                # take the last nonempty flip interval (stay if there is none)
                missed = ~below[L]
                positive = weights[1:, missed] > 0.0
                last = L - positive[::-1].argmax(axis=0)
                sel[missed] = np.where(positive.any(axis=0), last, 0)
            x ^= move[sel]
            step = end + 1
        live = step < n_steps
        walker, x, step = walker[live], x[live], step[live]
    # every record row starts with a run; spread each run's (x, b) over
    # the steps up to the next run
    for srow, brow in zip(states, bvals):
        starts = np.flatnonzero(srow >= 0)
        runs = np.diff(starts, append=n_rec)
        srow[:] = np.repeat(srow[starts], runs)
        brow[:] = np.repeat(brow[starts], runs)


def sliding_window_sums(values, width, recompute_every, out):
    """out[j] = sum(values[j : j+width]) for j = 0 .. len(out)-1.

    The running sum is refreshed from scratch every recompute_every steps
    to stop add/subtract drift from accumulating over long records. Within
    a block the sums are one cumulative sum over the interleaved
    [s0, +new_1, -old_1, +new_2, ...], read at every other entry; adding
    -c is exactly subtracting c, so each entry equals the running update
    s + new - old.
    """
    n_out = out.shape[0]
    for j0 in range(0, n_out, recompute_every):
        j1 = min(j0 + recompute_every, n_out)
        terms = np.empty(2 * (j1 - j0) - 1)
        # s0 summed in order from 0.0, as the running sum starts
        terms[0] = np.cumsum(np.concatenate(([0.0], values[j0:j0 + width])))[-1]
        terms[1::2] = values[j0 + width:j1 + width - 1]
        terms[2::2] = -values[j0:j1 - 1]
        out[j0:j1] = np.cumsum(terms)[::2]


def run_chain(cfg: GfmcConfig, amps, m: TfiModel, rngs) -> list[ChainRecord]:
    """Generate a population of chains, one per amplitude table.

    amps is the population's (W, 2^L) array, row w walker w's table
    (nonnegative and normalized, a trial row or a drawn row), and
    walker w draws from rngs[w]. chain_fill walks amps itself, so the
    population holds its W tables once, plus its uniforms and its
    records. Every walker draws its initial state from its row squared
    (restricted to the support by construction) and then chain_length
    uniforms from its own generator; its record covers steps warmup ..
    chain_length-1. A walker's record is a function of (config, table,
    model, generator state) alone, bit for bit, whatever population it
    runs in. Each record's arrays are C-contiguous rows of the
    population's (walkers, steps) arrays.
    """
    amps, rngs = np.asarray(amps), list(rngs)
    if not len(amps) or len(amps) != len(rngs):
        raise ValueError("a population needs one generator per table")
    check_row_shape(amps.shape[1:], m)
    lam = cfg.resolve_lambda_shift(m)
    x = np.array([_draw_initial_state(row, r) for row, r in zip(amps, rngs)],
                 dtype=np.int64)
    n_rec = cfg.chain_length - cfg.warmup
    # one contiguous row per walker
    states = np.empty((len(amps), n_rec), dtype=np.int64)
    bvals = np.empty((len(amps), n_rec))
    # the stay vector is built after the draws, so it is not alive while they sample
    stay = all_diagonal_energies(m)
    chain_fill(amps, np.subtract(lam, stay, out=stay), m.Gamma, cfg.warmup, x, rngs,
               states, bvals)
    evals = lam - bvals
    return [ChainRecord(states[w], bvals[w], evals[w], cfg, lam)
            for w in range(len(amps))]


def reweighted_energy(r: ChainRecord) -> float:
    """Ground-state energy estimate from the recorded (b, e) sequences.

    Each sample n >= l, l = r.config.l_reweight, carries the product of
    the l preceding b factors, accumulated as a sliding sum of log b and
    max-shifted before exponentiation; the common positive rescaling
    cancels in the ratio.
    """
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
