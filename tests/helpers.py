"""Shared test utilities: seeded random graph generation and the reference
implementations (oracles) that only the tests run."""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

from platoonnet.connectivity import _reach_table
from platoonnet.estimation import (
    RANK_RCOND,
    CandidateFit,
    FaultScenario,
    MeasurementTrace,
    ModelMismatchError,
    RecoveryResult,
    WeightMatrix,
    observation_model,
)
from platoonnet.formation import (
    _ZERO_MODE_TOL,
    FormationSystem,
    FormationTrace,
    SweepResult,
    hinf_closed_form,
    modal_peak_frequency,
)
from platoonnet.graph import Graph, degrees, neighbors


def random_connected_graph(rng, n_min=4, n_max=10, avoid_complete=True) -> Graph:
    """Random connected graph: random spanning tree plus extra edges.

    With avoid_complete the sampler rejects complete graphs, for which the
    spectral bound lambda2 <= vertex connectivity does not hold
    (lambda2(K_n) = n but the connectivity is n - 1).
    """
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        edges = set()
        order = rng.permutation(n)
        for idx in range(1, n):
            a = int(order[idx])
            b = int(order[int(rng.integers(0, idx))])
            edges.add((min(a, b), max(a, b)))
        max_m = n * (n - 1) // 2
        extra = int(rng.integers(0, max_m - n + 2))
        for _ in range(extra):
            a, b = (int(v) for v in rng.integers(0, n, 2))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        if avoid_complete and len(edges) == max_m:
            continue
        return Graph.from_edges(n, sorted(edges))


def random_graph(rng, n_min=2, n_max=10) -> Graph:
    """Random simple graph, connected or not: each pair is an edge with a
    probability drawn per graph from [0, 1]."""
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform())
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.uniform() < p])


def missing_edges(g: Graph) -> list[tuple[int, int]]:
    present = set(g.edges)
    return [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if (i, j) not in present
    ]


def is_r_reachable(g: Graph, S, r: int) -> bool:
    """True iff some vertex of S has at least r neighbors outside S."""
    S = {int(v) for v in S}
    if not S or not S <= set(range(g.n)):
        raise ValueError(f"S must be a nonempty set of vertices below n={g.n}, got {sorted(S)}")
    mask = sum(1 << v for v in S)
    return any((g.neighbor_bitmasks[v] & ~mask).bit_count() >= r for v in S)


def brute_force_robustness(g: Graph) -> int:
    """Unpruned reference: scan every disjoint nonempty subset pair.

    Only usable for small n (3^n pairs); the production version must agree.
    """
    n = g.n
    neigh = [set(neighbors(g, v)) for v in range(n)]

    def max_reach(subset: frozenset) -> int:
        return max(len(neigh[v] - subset) for v in subset)

    best = n  # upper bound; minimized below
    full = 1 << n
    for mask1 in range(1, full):
        s1 = frozenset(v for v in range(n) if mask1 >> v & 1)
        comp = full - 1 & ~mask1
        sub = comp
        while sub:
            s2 = frozenset(v for v in range(n) if sub >> v & 1)
            best = min(best, max(max_reach(s1), max_reach(s2)))
            sub = (sub - 1) & comp
    return best


def pair_scan_robustness(g: Graph) -> int:
    """Reference for robustness: the pruned scan of subset pairs it replaced,
    O(3^n) in the worst case.  Pairs (S1, S2 subset of the complement) are
    scored max(reach[S1], reach[S2]) and the running best prunes the scan."""
    n = g.n
    full = (1 << n) - 1
    reach = _reach_table(g).tolist()

    # min over pairs (S1, S2 subset of complement) of max(reach).  Seeded with
    # ceil(n/2), which a half/half partition pair always attains for n >= 2,
    # so pruning on the running best never changes the result.
    best = (n + 1) // 2
    for s1 in range(1, full):
        r1 = reach[s1]
        if r1 >= best:
            continue
        comp = full ^ s1
        sub = comp
        while sub:
            r2 = reach[sub]
            if r2 < best:
                best = r1 if r1 > r2 else r2
                if r1 >= best or best == 0:
                    break
            sub = (sub - 1) & comp
        if best == 0:
            break
    return best


def edge_sum_isoperimetric(g: Graph) -> Fraction:
    """Reference for isoperimetric_constant: the boundary of every subset
    bitmask S as sum_v deg(v) [v in S] - 2 |E(S)|, one 2^n mask product per
    vertex and per edge, minimised over 0 < |S| <= n/2."""
    n = g.n
    idx = np.arange(1 << n, dtype=np.uint32)
    size = np.bitwise_count(idx).astype(np.int32)
    bits = [((idx >> np.uint32(v)) & np.uint32(1)).astype(np.int32) for v in range(n)]
    boundary = np.zeros(1 << n, dtype=np.int32)
    for v, deg in enumerate(degrees(g)):
        boundary += np.int32(deg) * bits[v]
    for i, j in g.edges:
        boundary -= 2 * (bits[i] & bits[j])
    pos = np.flatnonzero((size > 0) & (2 * size <= n))
    # quotients of small integers: the float comparison is exact
    best = pos[np.argmin(boundary[pos] / size[pos])]
    return Fraction(int(boundary[best]), int(size[best]))


def brute_force_vertex_connectivity(g: Graph) -> int:
    """Reference via removal sets: smallest vertex set whose deletion
    disconnects the graph (n - 1 for complete graphs)."""
    from itertools import combinations

    n = g.n
    neigh = [neighbors(g, v) for v in range(n)]

    def connected_after(removed: set) -> bool:
        remaining = [v for v in range(n) if v not in removed]
        if len(remaining) <= 1:
            return True
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            v = stack.pop()
            for w in neigh[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    for size in range(n - 1):
        for removed in combinations(range(n), size):
            if not connected_after(set(removed)):
                return size
    return n - 1


def lap_eigenvalues(system: FormationSystem) -> np.ndarray:
    """All Laplacian eigenvalues of the formation's graph, ascending."""
    return np.linalg.eigvalsh(system.lap)


def delta(system: FormationSystem) -> np.ndarray:
    """Per-vehicle spacing offset: Delta_i = d0 * sum_{j in N(i)} (j - i)."""
    d = np.zeros(system.graph.n)
    for i, j in system.graph.edges:
        d[i] += system.d0 * (j - i)
        d[j] += system.d0 * (i - j)
    return d


def b_affine(system: FormationSystem) -> np.ndarray:
    """Affine term b = [0; kp Delta] of xdot = A x + b + F w."""
    return np.concatenate([np.zeros(system.graph.n), system.kp * delta(system)])


def f_mat(system: FormationSystem) -> np.ndarray:
    """Disturbance input F = [0; I]: w drives the velocities."""
    n = system.graph.n
    return np.vstack([np.zeros((n, n)), np.eye(n)])


def modal_hinf(lam: float, kp: float, ku: float) -> float:
    """Worst-case gain of the single-mode transfer
    sqrt(lam) / (s^2 + ku lam s + kp lam); zero for the lam = 0 mode."""
    if lam < -_ZERO_MODE_TOL:
        raise ValueError("Laplacian eigenvalues cannot be negative")
    if lam <= _ZERO_MODE_TOL:
        return 0.0
    return hinf_closed_form(lam, kp, ku)[0]


def modal_gain(lam: float, kp: float, ku: float, omega: float) -> float:
    """|sqrt(lam) / ((jw)^2 + ku lam jw + kp lam)| at w = omega."""
    if lam <= _ZERO_MODE_TOL:
        return 0.0
    den = complex(kp * lam - omega * omega, ku * lam * omega)
    return math.sqrt(lam) / abs(den)


def sqrt_laplacian_output(system: FormationSystem) -> np.ndarray:
    """Alternative output matrix [L^{1/2}, 0]: same gain at every frequency
    as the incidence-transpose output (L^{1/2} = V diag(sqrt(lambda)) V^T,
    with the zero eigenvalue clamped)."""
    w, v = np.linalg.eigh(system.lap)
    half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return np.hstack([half, np.zeros_like(half)])


def rk4_formation(system, disturbance=None, T=10.0, h=1e-3, x0=None, record_every=1):
    """Reference for simulate_formation: fixed-step RK4 on xdot = A x + b + F w(t),
    with w(t) evaluated from the Disturbance parts at each stage.  Its error
    is O(h^4); h must keep h * max|pole| inside the RK4 stability region."""
    n = system.graph.n
    x = system.equilibrium_state.copy() if x0 is None else np.array(x0, dtype=np.float64)
    a_mat, b_aff, f_in = system.a_mat, b_affine(system), f_mat(system)

    def w_at(t):
        w = np.zeros(n)
        if disturbance is not None:
            omega = disturbance.omega
            for part, scale in ((disturbance.constant, 1.0),
                                (disturbance.sine, math.sin(omega * t)),
                                (disturbance.cosine, math.cos(omega * t))):
                if part is not None:
                    w += np.asarray(part, dtype=np.float64) * scale
        return w

    def deriv(t, state):
        return a_mat @ state + b_aff + f_in @ w_at(t)

    steps = int(round(T / h))
    times, states = [0.0], [x.copy()]
    t = 0.0
    for s in range(1, steps + 1):
        k1 = deriv(t, x)
        k2 = deriv(t + h / 2, x + (h / 2) * k1)
        k3 = deriv(t + h / 2, x + (h / 2) * k2)
        k4 = deriv(t + h, x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = s * h
        if s % record_every == 0 or s == steps:
            times.append(t)
            states.append(x.copy())
    arr = np.array(states)
    pos, vel = arr[:, :n], arr[:, n:]
    span_err = pos @ system.c_mat[:, :n].T - system.desired_spans
    return FormationTrace(t=np.array(times), positions=pos, velocities=vel, span_errors=span_err)


def grid_hinf_sweep(system, output=None, n_log=2000, n_window=50, refine=True) -> SweepResult:
    """Reference for hinf_sweep: max of sigma_max(C (jwI - A)^{-1} F) on the
    full realization over a log grid on [1e-3, 1e3] rad/s plus n_window
    points within +-20% of each mode's analytic peak frequency, then a
    golden-section polish around the grid argmax.  A is singular at w = 0,
    so the static end is only approached from the 1e-3 rad/s grid floor."""
    n2 = system.a_mat.shape[0]
    out = system.c_mat if output is None else output
    f_in = f_mat(system)

    def sigma_max(w):
        x = np.linalg.solve((1j * w) * np.eye(n2) - system.a_mat, f_in)
        return float(np.linalg.svd(out @ x, compute_uv=False)[0])

    parts = [np.geomspace(1e-3, 1e3, n_log)]
    for lam in lap_eigenvalues(system):
        wbar = modal_peak_frequency(float(lam), system.kp, system.ku)
        if wbar > 0:
            parts.append(np.linspace(0.8 * wbar, 1.2 * wbar, n_window))
    grid = np.unique(np.concatenate(parts))
    grid = grid[grid > 0]
    vals = np.array([sigma_max(w) for w in grid])
    best = int(np.argmax(vals))
    value, freq = float(vals[best]), float(grid[best])
    if refine and len(grid) >= 2:
        lo = grid[best - 1] if best > 0 else grid[0]
        hi = grid[best + 1] if best + 1 < len(grid) else grid[-1]
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lo), float(hi)
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = sigma_max(c), sigma_max(d)
        for _ in range(80):
            if b - a <= 1e-13 * max(1.0, b):
                break
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = sigma_max(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = sigma_max(d)
        if max(fc, fd) > value:
            value, freq = max(fc, fd), (c if fc > fd else d)
    return SweepResult(value=value, frequency=float(freq), grid_points=len(grid))


def wmsr_update(own: float, neighbor_values, f: int) -> float:
    """One trimmed-average step: the scalar reference for run_wmsr.

    neighbor_values is a sequence of (vehicle, value).  Up to f values
    strictly greater than own are removed (largest first) and up to f
    strictly smaller (smallest first); values equal to own are never removed.
    Which of several tied values is removed cannot change the result.  The
    kept values, greater ones largest first, then smaller ones smallest
    first, then equal ones, are added left to right and averaged uniformly
    with own.
    """
    if f < 0:
        raise ValueError("f must be >= 0")
    greater = sorted((val for _, val in neighbor_values if val > own), reverse=True)
    smaller = sorted(val for _, val in neighbor_values if val < own)
    equal = [val for _, val in neighbor_values if val == own]
    kept = greater[f:] + smaller[f:] + equal
    total = 0.0
    for val in kept:  # not sum(): it is compensated on Python >= 3.12
        total += val
    return (own + total) / (1 + len(kept))


def wmsr_loop(g: Graph, x0, adversaries, f: int, T: int):
    """Reference for run_wmsr: wmsr_update applied vehicle by vehicle.
    Returns (values, safety violations, converged_at) for tol = 1e-9."""
    n = g.n
    strategy = {a.vehicle: a.strategy for a in adversaries}
    normal = [v for v in range(n) if v not in strategy]
    values = np.zeros((T + 1, n))
    values[0] = x0
    for v, strat in strategy.items():
        values[0, v] = strat.value(0)
    violations, converged_at = [], None
    for k in range(T + 1):
        vals = values[k, normal]
        if converged_at is None and float(vals.max() - vals.min()) < 1e-9:
            converged_at = k
        if k == T:
            break
        cur = values[k]
        lo, hi = float(vals.min()), float(vals.max())
        slack = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        nxt = np.empty(n)
        for v, strat in strategy.items():
            nxt[v] = strat.value(k + 1)
        for i in normal:
            nxt[i] = wmsr_update(cur[i], [(j, cur[j]) for j in neighbors(g, i)], f)
            if not (lo - slack <= nxt[i] <= hi + slack):
                violations.append((k + 1, i))
        values[k + 1] = nxt
    return values, violations, converged_at


def is_row_stochastic(W: WeightMatrix, tol: float = 1e-12) -> bool:
    w = W.matrix
    return bool(np.all(w >= 0.0) and np.max(np.abs(w.sum(axis=1) - 1.0)) <= tol)


def phi_vector(scenario: FaultScenario, step: int) -> np.ndarray:
    """The injected values of the faulty vehicles at one step, in sorted
    vehicle order (zero where the scenario names none)."""
    return np.array([scenario.phi.get((v, step), 0.0) for v in scenario.faulty])


def joint_lstsq_recover(trace: MeasurementTrace, W: WeightMatrix, f: int) -> RecoveryResult:
    """Reference for recover_initial_state's candidate screening: one joint
    least-squares solve of [O, J_F] per candidate fault set (SVD, rcond =
    RANK_RCOND), kept iff the residual's largest entry is
    < 1e-8 * (1 + ||Y||_inf).  Reports unique whenever all kept x[0] agree
    within that tolerance, with no identifiability test."""
    n = W.graph.n
    L = int(trace.y.shape[0])
    y_flat = np.asarray(trace.y, dtype=np.float64).reshape(-1)
    tol = 1e-8 * (1.0 + float(np.max(np.abs(y_flat))))
    others = [v for v in range(n) if v != trace.observer]
    consistent = []
    for size in range(f + 1):
        for fault_set in itertools.combinations(others, size):
            obs, forced = observation_model(W, trace.observer, L, fault_set)
            m_mat = np.hstack([obs, forced])
            z, *_ = np.linalg.lstsq(m_mat, y_flat, rcond=RANK_RCOND)
            resid = float(np.max(np.abs(m_mat @ z - y_flat)))
            if resid < tol:
                consistent.append(CandidateFit(fault_set=fault_set, x0=z[:n].copy(),
                                               phi=z[n:].reshape(L - 1, size), residual=resid))
    if not consistent:
        raise ModelMismatchError(
            f"no candidate fault set of size <= {f} is consistent with the measurements"
        )
    base = min(consistent, key=lambda c: c.residual)
    agree = all(np.max(np.abs(c.x0 - base.x0)) < tol for c in consistent)
    return RecoveryResult(unique=agree, x0=base.x0 if agree else None,
                          candidates=tuple(consistent), tol=tol)


def csv_writer_rows(header, columns) -> str:
    """Reference for cli._write_csv: the text csv.writer writes for a header
    and then each row of equal-length columns (numpy arrays or sequences),
    fed one row at a time, with boolean arrays spelled 0 and 1."""
    def cells(column) -> list:
        if not isinstance(column, np.ndarray):
            return list(column)
        return (column.astype(np.int64) if column.dtype.kind == "b" else column).tolist()

    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*map(cells, columns)):
        writer.writerow(row)
    return out.getvalue()
