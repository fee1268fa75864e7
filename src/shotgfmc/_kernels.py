"""The population chain kernel and the sliding log-weight sums.

``chain_fill`` advances a population of W walkers in lockstep on numpy
arrays with one column per walker. Each walker has its own amplitude table and its
own generator, and every step repeats the arithmetic of the single-walker
loop in the same order (row entries accumulated left to right, the same
inverse-CDF selection), so a walker's trajectory is bit-identical to the
scalar loop's and does not depend on the population it runs in. The
scalar loops are kept as references in ``tests/oracles.py``.
"""

import numpy as np

# steps of uniforms drawn from each walker's generator per call
_UNIFORM_BLOCK = 1024


def chain_fill(amps, stay, Gamma, warmup, x, rngs, states, bvals):
    """Walk every walker warmup + len(states) steps, recording after warmup.

    amps is (W, 2^L), one amplitude table per walker; stay[x] = lam - E_diag(x).
    For the current state x of walker w the row of the importance-sampled
    propagator is
      stay weight   stay[x]
      flip weight k Gamma * amps[w, x ^ 1<<k] / amps[w, x]
    b is the row sum and the next state is drawn by inverse CDF with the
    walker's next uniform, first index wins on ties. x (W,) holds the
    initial states and is advanced in place; row n - warmup of states and
    bvals (n_rec, W) holds every walker's x and b at step n >= warmup.
    Walker w draws its uniforms from rngs[w] in blocks, which consumes the
    stream exactly like one long draw.
    """
    W, n_states = amps.shape
    L = n_states.bit_length() - 1
    n_steps = warmup + len(states)
    flat = np.ascontiguousarray(amps).reshape(-1)
    row_base = np.arange(W, dtype=np.int64) << L
    # move[j] is the XOR mask of CDF row j: row 0 stays, row k+1 flips site k
    move = np.concatenate(([0], np.int64(1) << np.arange(L, dtype=np.int64)))
    # propagator rows are stored transposed, one column per walker, so the
    # left-to-right accumulation runs over contiguous rows of W entries
    weights = np.empty((L + 1, W))
    cdf = np.empty((L + 1, W))
    for start in range(0, n_steps, _UNIFORM_BLOCK):
        stop = min(start + _UNIFORM_BLOCK, n_steps)
        urand = np.stack([rng.random(stop - start) for rng in rngs], axis=1)
        for n in range(start, stop):
            # row 0 is amps[w, x], row k+1 the flip-k neighbour
            near = flat.take(move[:, None] ^ (row_base + x))
            np.divide(near[1:], near[0], out=weights[1:])
            weights[1:] *= Gamma
            np.take(stay, x, out=weights[0])
            np.add.accumulate(weights, 0, None, cdf)
            b = cdf[L]
            if n >= warmup:
                states[n - warmup] = x
                bvals[n - warmup] = b
            below = urand[n - start] * b < cdf
            sel = below.argmax(axis=0)
            # weights are nonnegative, so the CDF peaks at b in the last row
            if not below[L].all():
                # cumulative roundoff left t at/past the top; take the last
                # nonempty flip interval (stay if there is none)
                missed = ~below[L]
                positive = weights[1:, missed] > 0.0
                last = L - positive[::-1].argmax(axis=0)
                sel[missed] = np.where(positive.any(axis=0), last, 0)
            x ^= move[sel]


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
