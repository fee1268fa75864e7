"""The population chain kernel and the sliding log-weight sums.

``chain_fill`` advances a population of W walkers on numpy arrays with one
column per walker, one iteration per run of stays rather than one per
step. Each walker has its own amplitude table and its own generator, from
which it draws all of its uniforms at once. An iteration builds each
walker's propagator row once and runs the stay test on its next
``_RUN_WINDOW`` uniforms. The steps before the first failure are stays,
where x and b do not change, so the run of constant (x, b) is recorded in
one go. The step after them (the failing one, or the one after a window
that passed in full) runs the inverse-CDF selection with its own uniform.
Walkers drift apart in time: each keeps its own place in its own stream,
and a run stops at the end of the chain.

A walker's trajectory is bit-identical to the single-walker loop kept as
a reference in ``tests/oracles.py``, and so does not depend on the
population it runs in. The row is accumulated left to right in the same
order. The stay test is the same product u*b and the same comparison with
the stay weight that the loop's inverse CDF makes at index 0. Each
uniform is used at its own step and nowhere else, and each stream is
drawn in one call, as the loop draws it.
"""

import numpy as np

# steps whose stay test one iteration runs before the walker selects again
_RUN_WINDOW = 8


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
