"""Resilient consensus by trimmed averaging (W-MSR).

At each step every normal vehicle discards up to f neighbor values strictly
greater than its own and up to f strictly smaller, then averages what is left
(own value included) with uniform weights.  Adversarial vehicles broadcast an
arbitrary scripted signal instead of following the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _count, _distinct, _vector, _vertex, neighbors
from .stream import uniform


class Constant:
    """Broadcast a fixed value."""

    def __init__(self, value: float):
        self.value_ = float(value)

    def value(self, step: int) -> float:
        return self.value_


class Ramp:
    """Broadcast start + slope * step."""

    def __init__(self, start: float, slope: float):
        self.start = float(start)
        self.slope = float(slope)

    def value(self, step: int) -> float:
        return self.start + self.slope * step


class Sinusoid:
    def __init__(self, amplitude: float, omega: float, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)

    def value(self, step: int) -> float:
        return self.amplitude * math.sin(self.omega * step + self.phase)


class SeededRandom:
    """Uniform draws in [low, high]: value(step) is numpy's
    default_rng((seed, step)).uniform(low, high), reproduced bit for bit by
    `stream`, so traces are reproducible and randomly accessible.  A range
    whose width high - low is not a finite double is refused."""

    def __init__(self, low: float, high: float, seed: int):
        if low > high:
            raise ValueError(f"low {low} is above high {high}")
        self.low = float(low)
        self.high = float(high)
        if not math.isfinite(self.high - self.low):
            raise ValueError(f"the width high - low of the range from {low} to {high} "
                             f"is {self.high - self.low}, not a finite number")
        self.seed = _count("seed", seed, 0)

    def value(self, step: int) -> float:
        return uniform((self.seed, step), self.low, self.high)


@dataclass(frozen=True)
class Adversary:
    vehicle: int
    strategy: object  # anything with .value(step) -> float


def is_f_local(g: Graph, adversary_set, f: int) -> bool:
    """True iff every vehicle outside the set has <= f neighbors inside it."""
    f = _count("f", f, 0)
    inside = {_vertex(g, v) for v in adversary_set}
    return all(sum(u in inside for u in nbrs) <= f
               for i, nbrs in enumerate(g.adjacency) if i not in inside)


@dataclass(frozen=True)
class ConsensusTrace:
    values: np.ndarray  # (T+1, n)
    normal: tuple[int, ...]
    adversaries: tuple[int, ...]
    converged_at: int | None
    safety_violations: tuple[tuple[int, int], ...]  # (step, vehicle)
    f_local: bool  # is_f_local(g, adversaries, f): no normal vehicle sees more than f

    def spread(self, step: int) -> float:
        vals = self.values[step, list(self.normal)]
        return float(vals.max() - vals.min())


# slack for the per-step hull check: uniform averaging can round at most a
# couple of ulps past the previous extremes
_HULL_SLACK = 1e-12


def run_wmsr(
    g: Graph,
    x0,
    adversaries,
    f: int,
    T: int = 500,
    tol: float = 1e-9,
) -> ConsensusTrace:
    """Run the trimmed-average iteration for T steps.

    Adversary rows of the trace follow their scripted strategy exactly
    (including step 0, overriding x0 there).  Records in `f_local` whether
    the adversary set is f-local — the convergence guarantee is only
    sufficient under (2f+1)-robustness plus an f-local adversary set.  The
    kept values are added greater ones largest first, then smaller ones
    smallest first, then equal ones.  After the run, each normal value is
    checked against the safety hull, the previous step's normal [min, max]
    (violations are recorded, and impossible when the adversary set is
    f-local).

    A scripted value that is not finite is refused with a ValueError before
    the first step, and an average that overflows after the last one.
    """
    n = g.n
    f, T, x0 = _count("f", f, 0), _count("T", T, 0), _vector("x0", x0, n)
    advs = list(adversaries)
    adv_ids = _distinct([_vertex(g, a.vehicle) for a in advs], "adversary")
    strategy = {a.vehicle: a.strategy for a in advs}
    normal = tuple(v for v in range(n) if v not in strategy)
    if not normal:
        raise ValueError("at least one normal vehicle is required")

    values = np.zeros((T + 1, n))
    values[0] = x0
    for v, strat in strategy.items():
        values[:, v] = [strat.value(k) for k in range(T + 1)]
    if not np.isfinite(values).all():  # x0 is finite, so a scripted value is not
        step, v = np.argwhere(~np.isfinite(values))[0].tolist()
        raise ValueError(f"adversary {v} broadcasts {float(values[step, v])!r} at step {step}; "
                         "scripted values must be finite")

    # One W-MSR step for every normal vehicle at once.  Column r of nbr lists
    # the neighbours of normal[r], padded with index n, which reads NaN: it
    # sorts last, and is neither greater, smaller nor equal to the own value.
    rows = np.array(normal)
    nbr_lists = [neighbors(g, i) for i in normal]
    width = max(len(nl) for nl in nbr_lists)
    nbr = np.full((width, len(normal)), n)
    for r, nl in enumerate(nbr_lists):
        nbr[: len(nl), r] = nl
    ext = np.full(n + 1, np.nan)
    # A column of `layout` is [0 | sorted neighbours reversed | sorted], kept
    # where greater than own and past the f largest, smaller and past the f
    # smallest, or equal.  A running sum down it adds the kept values in the
    # order above (a dropped one reads 0.0); the 0 slot counts the own value.
    pos = np.arange(width)[:, None]
    keep = np.vstack([np.ones((1, len(normal)), bool), pos >= width - (nbr < n).sum(axis=0) + f,
                      np.broadcast_to(pos >= f, nbr.shape)])
    layout = np.zeros(keep.shape)
    greater, ascending = layout[1 : width + 1], layout[width + 1 :]
    mask = keep.copy()
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        for k in range(T):
            ext[:n] = values[k]
            own = ext[rows]
            ascending[...] = ext[nbr]
            ascending.sort(axis=0)
            greater[...] = ascending[::-1]
            np.greater(greater, own, out=mask[1 : width + 1])
            np.less(ascending, own, out=mask[width + 1 :])
            mask &= keep
            mask[width + 1 :] |= ascending == own
            # .sum(axis=0) does not keep that order: 5 of 2000 random layouts differed bitwise
            total = np.cumsum(np.where(mask, layout, 0.0), axis=0)[-1]
            values[k + 1, rows] = (own + total) / mask.sum(axis=0)
    if not np.isfinite(values).all():  # a sum of values near the double range's end
        step, v = np.argwhere(~np.isfinite(values))[0].tolist()
        raise ValueError(f"vehicle {v} averages to {float(values[step, v])!r} at step {step}; "
                         "x0 and the scripted values are too large")

    is_normal = np.isin(np.arange(n), rows)
    lo = values.min(axis=1, where=is_normal, initial=np.inf)
    hi = values.max(axis=1, where=is_normal, initial=-np.inf)
    converged = np.flatnonzero(hi - lo < tol)
    slack = _HULL_SLACK * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    new = values[1:]
    outside = ~(((lo - slack)[:-1, None] <= new) & (new <= (hi + slack)[:-1, None]))
    step, vehicle = np.nonzero(outside & is_normal)

    return ConsensusTrace(
        values=values,
        normal=normal,
        adversaries=adv_ids,
        converged_at=int(converged[0]) if converged.size else None,
        safety_violations=tuple(zip((step + 1).tolist(), vehicle.tolist())),
        f_local=is_f_local(g, adv_ids, f),
    )
