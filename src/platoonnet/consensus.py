"""Resilient consensus by trimmed averaging (W-MSR).

At each step every normal vehicle discards up to f neighbor values strictly
greater than its own and up to f strictly smaller, then averages what is left
(own value included) with uniform weights.  Adversarial vehicles broadcast an
arbitrary scripted signal instead of following the update.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, neighbors


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
    """Uniform draws in [low, high]; value(step) is a pure function of
    (seed, step), so traces are reproducible and randomly accessible."""

    def __init__(self, low: float, high: float, seed: int):
        if low > high:
            raise ValueError(f"low {low} is above high {high}")
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)

    def value(self, step: int) -> float:
        rng = np.random.default_rng((self.seed, step))
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Adversary:
    vehicle: int
    strategy: object  # anything with .value(step) -> float


def is_f_local(g: Graph, adversary_set, f: int) -> bool:
    """True iff every vehicle outside the set has <= f neighbors inside it."""
    s = set(int(v) for v in adversary_set)
    for i in range(g.n):
        if i in s:
            continue
        if sum(1 for j in neighbors(g, i) if j in s) > f:
            return False
    return True


@dataclass(frozen=True)
class ConsensusTrace:
    values: np.ndarray  # (T+1, n)
    normal: tuple[int, ...]
    adversaries: tuple[int, ...]
    f: int
    tol: float
    converged_at: int | None
    safety_violations: tuple[tuple[int, int], ...]  # (step, vehicle)

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
    (including step 0, overriding x0 there).  Warns if the adversary set is
    not f-local — the convergence guarantee is only sufficient under
    (2f+1)-robustness plus an f-local adversary set.  Every step is checked
    against the safety hull: each normal value must stay within the previous
    step's normal [min, max] (violations are recorded, and impossible when
    the adversary set is f-local).
    """
    n = g.n
    if f < 0:
        raise ValueError("f must be >= 0")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    advs = list(adversaries)
    adv_ids = [a.vehicle for a in advs]
    if len(set(adv_ids)) != len(adv_ids):
        raise ValueError("duplicate adversary vehicles")
    if any(not 0 <= v < n for v in adv_ids):
        raise ValueError("adversary vehicle out of range")
    strategy = {a.vehicle: a.strategy for a in advs}
    normal = tuple(v for v in range(n) if v not in strategy)
    if not normal:
        raise ValueError("at least one normal vehicle is required")
    if not is_f_local(g, adv_ids, f):
        warnings.warn(
            f"adversary set {sorted(adv_ids)} is not {f}-local; "
            "resilient-consensus guarantees do not apply",
            stacklevel=2,
        )

    values = np.zeros((T + 1, n))
    values[0] = x0
    for v, strat in strategy.items():
        values[:, v] = [strat.value(k) for k in range(T + 1)]

    # One W-MSR step for every normal vehicle at once.  Row r of nbr lists
    # the neighbours of normal[r], padded with index n, which reads NaN: it
    # is neither greater, smaller nor equal to the own value, so never kept.
    rows = np.array(normal)
    nbr_lists = [neighbors(g, i) for i in normal]
    width = max(len(nl) for nl in nbr_lists)
    nbr = np.full((len(normal), width), n)
    for r, nl in enumerate(nbr_lists):
        nbr[r, : len(nl)] = nl
    row_of = np.arange(len(normal))[:, None]
    pos = np.arange(width)
    ext = np.full(n + 1, np.nan)
    # The kept values are added from 0.0, left to right, in a fixed order:
    # the greater ones largest first, then the smaller ones smallest first,
    # then the equal ones.  They sit in that order after a 0.0 column, so
    # the running sum along a row adds them so; a dropped value is a 0.0
    # there, which leaves the sum as it is.
    summands = np.zeros((len(normal), width + 1))

    violations: list[tuple[int, int]] = []
    converged_at: int | None = None
    for k in range(T + 1):
        vals = values[k, rows]
        lo, hi = float(vals.min()), float(vals.max())
        if converged_at is None and hi - lo < tol:
            converged_at = k
        if k == T:
            break
        slack = _HULL_SLACK * (1.0 + max(abs(lo), abs(hi)))
        ext[:n] = values[k]
        own = vals[:, None]
        nv = ext[nbr]
        n_g = (nv > own).sum(axis=1, keepdims=True)
        n_s = (nv < own).sum(axis=1, keepdims=True)
        n_all = n_g + n_s + (nv == own).sum(axis=1, keepdims=True)
        # ascending, a row is [smaller | equal | greater | padding]; read it
        # in summation order: greater descending, smaller, equal
        ascending = np.sort(nv, axis=1)
        order = np.where(pos < n_g, n_all - 1 - pos, pos - n_g)
        kept = np.where(pos < n_g, pos >= f, (pos >= n_g + f) | (pos >= n_g + n_s))
        kept &= pos < n_all
        summands[:, 1:] = np.where(kept, ascending[row_of, order], 0.0)
        total = np.cumsum(summands, axis=1)[:, -1]
        new = (vals + total) / (1 + kept.sum(axis=1))
        values[k + 1, rows] = new
        outside = ~((lo - slack <= new) & (new <= hi + slack))
        violations.extend((k + 1, int(i)) for i in rows[outside])

    return ConsensusTrace(
        values=values,
        normal=normal,
        adversaries=tuple(sorted(adv_ids)),
        f=f,
        tol=tol,
        converged_at=converged_at,
        safety_violations=tuple(violations),
    )
