"""The sup-deviation of a step function from exp(-t), folded over levels
read in segments: a tail as ``TailEngine.segments`` streams it, or a table."""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, HorizonTooShortError

_SUP_CHUNK = 1 << 13  # horizon entries per chunk of the sup-deviation


def sup_fold(segments, horizons: list, step: float, s0: float = 0.0, div: float = 1.0,
             done=None):
    """sup_{t >= s0} |levels[floor(t/step)]/div - exp(-t)| over levels read
    as (k, chunk, _) segments from k = 0, to the first K of ``horizons``
    where ``done(levels[K], K)`` holds (the first K when done is None):
    (sup, K, levels[K]), or None when none does.

    The sup is attained at the endpoints of the flats [k*step, (k+1)*step)
    (the first from s0); past K both sides lie below max(levels[K],
    exp(-step*K)).  Flats go in the chunks [c, c + 1) * _SUP_CHUNK of
    levels[:K + 1], one exp array for both endpoints, so exp's bits do not
    depend on the segments.  The scan stops at the first chunk start m where
    a later term, at most max(max levels[m:], exp(-m*step)) +
    max(0, -min levels[m:]), cannot raise the sup (rounding is monotone;
    exp(-m*step) takes a margin over exp's last-bit error).  Per-chunk max
    and min of each segment give the extremes and find a NaN; they bound a
    tail's later segments, whose H never rises or goes negative.  So the
    result is a one-pass max, bit for bit.
    """
    if not s0 >= 0.0:  # NaN included
        raise DomainError(f"s0 must be non-negative, got {s0}")
    if not step > 0.0:  # NaN included
        raise DomainError(f"step must be positive, got {step}")
    if not div > 0.0:
        raise DomainError(f"div must be positive, got {div}")
    if s0 / step >= horizons[-1] + 1:  # floor(s0/step) > K, infinity included
        raise HorizonTooShortError(f"s0={s0} beyond tail horizon {horizons[-1]}")
    W, k0 = _SUP_CHUNK, int(math.floor(s0 / step))
    # Held: the segment read last (from step k) and a copy of chunk c's levels before it.
    sup, c, stop, k, H, carry = 0.0, k0 // W, False, 0, np.empty(0), np.empty(0)

    def take(hi):  # the flats of chunk c below hi; False once the rest cannot count
        nonlocal sup
        lo, i = max(k0, c * W), c - c_top
        if max(top[i], math.exp(-step * lo) * (1.0 + 1e-12)) + max(0.0, -low[i]) <= sup:
            return False
        t = step * np.arange(lo, hi + 1)
        t[0] = max(t[0], s0)
        e = np.exp(-t)
        flats = (H[lo - k:hi - k] if lo >= k
                 else np.concatenate((carry[lo - c * W:], H[:hi - k]))) / div
        sup = max(sup, float(np.abs(flats - e[:-1]).max()), float(np.abs(flats - e[1:]).max()))
        return True

    for K in horizons:
        while True:
            while not stop and (c + 1) * W <= min(K + 1, k + H.size):
                stop = not take((c + 1) * W)
                c += 1
            if k + H.size > K:
                break
            carry, H = (np.empty(0) if stop else H[c * W - k:].copy() if c * W >= k
                        else np.concatenate((carry, H))), None  # freed before the next push
            k, H, _ = next(segments)
            if not stop:
                starts, c_top = np.arange(c * W - k, H.size, W), c
                starts[:1] = max(c * W - k, 0)  # chunk c begins in the carry
                top = np.maximum.accumulate(np.maximum.reduceat(H, starts)[::-1])[::-1] / div
                low = np.minimum.accumulate(np.minimum.reduceat(H, starts)[::-1])[::-1] / div
                if carry.size:  # division is monotone, so it commutes with max and min
                    top[0], low[0] = max(top[0], carry.max() / div), min(low[0], carry.min() / div)
                if np.isnan(top).any():  # maximum propagates a NaN, which max() would skip
                    raise DomainError("levels must not be NaN")
        level = float(H[K - k])
        if done is None or done(level, K):
            if not stop and c * W <= K:
                take(K + 1)
            return max(sup, level / div, math.exp(-step * K)), K, level
