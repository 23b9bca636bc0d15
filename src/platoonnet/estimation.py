"""Fault-tolerant recovery of the initial platoon state from local data.

Each vehicle runs the linear iteration x[k+1] = W x[k] + A phi[k], where A
selects the (unknown) fault-injection columns and phi stacks the fault
signals.  A vehicle observes itself and its graph neighbors.  Recovery
enumerates candidate fault sets of size <= f, tests each in the parity
space of the observability matrix (the measurements with every possible
initial state projected out), keeps the consistent ones, and succeeds when
x[0] is identifiable under each of them and they all agree on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _vertex, laplacian, neighbors


class ModelMismatchError(RuntimeError):
    """No candidate fault set is consistent with the measurements."""


def _support(g: Graph) -> np.ndarray:
    """Boolean n x n mask of the diagonal plus the graph's edges."""
    return (laplacian(g) != 0) | np.eye(g.n, dtype=bool)


@dataclass(frozen=True)
class WeightMatrix:
    """n x n iteration matrix supported on the diagonal plus graph edges."""

    graph: Graph
    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.float64)
        n = self.graph.n
        if w.shape != (n, n):
            raise ValueError(f"weight matrix must be {n}x{n}, got {w.shape}")
        if np.any(~_support(self.graph) & (w != 0.0)):
            raise ValueError("weight matrix has entries off the graph support")
        object.__setattr__(self, "matrix", w)


def random_weights(g: Graph, seed: int) -> WeightMatrix:
    """Draw i.i.d. uniform [0.2, 1.0] entries on the support, row-major.

    Deterministic for a given seed: row i fills positions sorted({i} ∪ N(i))
    in increasing column order from numpy's default_rng(seed).
    """
    rows, cols = np.nonzero(_support(g))
    w = np.zeros((g.n, g.n))
    w[rows, cols] = np.random.default_rng(seed).uniform(0.2, 1.0, rows.size)
    return WeightMatrix(g, w)


@dataclass(frozen=True)
class FaultScenario:
    """Which vehicles inject faults, what they inject, and for how long.

    phi maps (vehicle, step) -> injected value; missing entries are zero.
    Steps run 0..horizon-1 and affect states x[1..horizon].
    """

    faulty: tuple[int, ...]
    phi: dict[tuple[int, int], float]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "faulty", tuple(sorted(set(int(v) for v in self.faulty))))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for (v, k) in self.phi:
            if v not in self.faulty:
                raise ValueError(f"phi entry for vehicle {v} not in faulty set {self.faulty}")
            if not 0 <= k < self.horizon:
                raise ValueError(f"phi step {k} outside 0..{self.horizon - 1}")


def simulate_faulty(W: WeightMatrix, x0, scenario: FaultScenario) -> np.ndarray:
    """State trace x[0..horizon] under x[k+1] = W x[k] + A phi[k].  Every
    faulty id must be a vehicle of W's graph."""
    n = W.graph.n
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    for v in scenario.faulty:
        _vertex(W.graph, v)
    states = np.zeros((scenario.horizon + 1, n))
    states[0] = x0
    for k in range(scenario.horizon):
        nxt = W.matrix @ states[k]
        for v in scenario.faulty:
            val = scenario.phi.get((v, k))
            if val is not None:
                nxt[v] = nxt[v] + val
        states[k + 1] = nxt
    return states


def packet_drop_scenario(
    W: WeightMatrix, x0, vehicle: int, horizon: int
) -> tuple[FaultScenario, np.ndarray]:
    """Forward-simulate a total packet loss at one vehicle, recording the
    equivalent fault signal: the vehicle loses all its neighbours' packets,
    as if vehicle i injected phi[k] = -sum_{j in N(i)} w_ij x_j[k].  Returns
    (scenario, states); simulate_faulty on the returned scenario reproduces
    the same states."""
    n = W.graph.n
    nbrs = neighbors(W.graph, vehicle)
    states = np.zeros((horizon + 1, n))
    states[0] = np.asarray(x0, dtype=np.float64)
    phi: dict[tuple[int, int], float] = {}
    for k in range(horizon):
        val = float(-np.dot(W.matrix[vehicle, nbrs], states[k][nbrs]))
        phi[(vehicle, k)] = val
        nxt = W.matrix @ states[k]
        nxt[vehicle] = nxt[vehicle] + val
        states[k + 1] = nxt
    return FaultScenario(faulty=(vehicle,), phi=phi, horizon=horizon), states


def measured_rows(g: Graph, observer: int) -> list[int]:
    """Vehicles whose states observer i sees: sorted N(i) ∪ {i}."""
    if not 0 <= observer < g.n:
        raise ValueError(f"observer {observer} out of range for n={g.n}")
    return sorted(set(neighbors(g, observer)) | {observer})


@dataclass(frozen=True)
class MeasurementTrace:
    """Stacked local measurements y[k] = C_i x[k], k = 0..L-1."""

    observer: int
    rows: tuple[int, ...]
    y: np.ndarray  # (L, len(rows))


def observe(g: Graph, states: np.ndarray, observer: int, length: int | None = None) -> MeasurementTrace:
    """Extract observer i's measurements from a full state trace."""
    rows = measured_rows(g, observer)
    states = np.asarray(states)
    L = states.shape[0] if length is None else length
    if L > states.shape[0]:
        raise ValueError(f"requested {L} measurement steps from a {states.shape[0]}-state trace")
    return MeasurementTrace(observer=observer, rows=tuple(rows), y=states[:L, rows].copy())


def _stacked_maps(W: WeightMatrix, observer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The observability matrix O (m x n) and the fault map T (m x (L-1) x n)
    of one observer, m = L * |rows|.

    Row block k of O is C W^k.  T[:, j, v] is the response of the stacked
    measurements to a unit fault of vehicle v at step j: C W^(k-1-j) e_v in
    row block k > j, zero above it.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = W.graph.n
    rows = measured_rows(W.graph, observer)
    rp = len(rows)
    # C W^p for p = 0..length-1, computed by repeated multiplication
    cw = np.zeros((length, rp, n))
    cw[0] = np.eye(n)[rows]
    for p in range(1, length):
        cw[p] = cw[p - 1] @ W.matrix
    forced = np.zeros((length, rp, length - 1, n))
    for j in range(length - 1):
        forced[j + 1:, :, j, :] = cw[: length - 1 - j]
    return cw.reshape(length * rp, n), forced.reshape(length * rp, length - 1, n)


def observation_model(
    W: WeightMatrix, observer: int, length: int, fault_set=()
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked observability and forced-response maps for one observer.

    Returns (O, J) such that the stacked measurements satisfy
    Y = O x[0] + J Phi exactly, where Phi stacks phi[0..L-2] (each of size
    |fault_set|, ordered by sorted fault set).  With length = 1, J has zero
    columns.
    """
    faults = sorted(set(int(v) for v in fault_set))
    obs, forced = _stacked_maps(W, observer, length)
    return obs, forced[:, :, faults].reshape(obs.shape[0], (length - 1) * len(faults))


@dataclass(frozen=True)
class CandidateFit:
    """Least-squares fit of one candidate fault set."""

    fault_set: tuple[int, ...]
    x0: np.ndarray
    phi: np.ndarray  # (L-1, |fault_set|)
    residual: float


@dataclass(frozen=True)
class RecoveryResult:
    unique: bool
    x0: np.ndarray | None
    candidates: tuple[CandidateFit, ...]
    tol: float

    @property
    def best(self) -> CandidateFit:
        return min(self.candidates, key=lambda c: c.residual)


RANK_RCOND = 1e-10
# largest batch of stacked G_F, in elements: ~16 MB per batched array
_BATCH_ELEMENTS = 1 << 21


def recover_initial_state(trace: MeasurementTrace, W: WeightMatrix, f: int) -> RecoveryResult:
    """Recover x[0] from one observer's measurements, tolerating <= f faults.

    Parity-space test.  Y = O x[0] + T_F Phi for the true fault set F, so
    projecting onto the left null space N of O removes x[0]:
    z = N^T Y = G_F Phi with G_F = N^T T_F.  O is factored once per call
    (SVD, rank cut at RANK_RCOND relative to its largest singular value);
    then, for each size 0..f, every candidate fault set of that size
    (lexicographic, observer excluded) is solved in one batched SVD: Phi is
    the minimum-norm solution (same relative cut per matrix), the residual
    is N (z - G_F Phi), and a candidate is kept iff its largest entry is
    < 1e-8 * (1 + ||Y||_inf).  A kept candidate's state is
    x[0] = O^+ (Y - T_F Phi).

    The result is unique only if x[0] is identifiable under every kept
    candidate (O has full column rank, and every null direction of G_F is
    also a null direction of T_F, so no fault signal can imitate a change
    of x[0]) and all kept states agree componentwise within the tolerance.
    Otherwise it is an ambiguity result listing the kept candidates.
    Raises ModelMismatchError if nothing is consistent.
    """
    if f < 0:
        raise ValueError("f must be >= 0")
    n = W.graph.n
    L = int(trace.y.shape[0])
    y = np.asarray(trace.y, dtype=np.float64).reshape(-1)
    m = y.size
    tol = 1e-8 * (1.0 + float(np.max(np.abs(y))))
    obs, forced = _stacked_maps(W, trace.observer, L)

    u, s, vt = np.linalg.svd(obs)
    rank = int(np.count_nonzero(s > RANK_RCOND * s[0]))
    null = u[:, rank:]
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    z = null.T @ y
    # G_v = N^T T_v for every vehicle v: (n, m - rank, L - 1)
    parity = (null.T @ forced.reshape(m, -1)).reshape(m - rank, L - 1, n).transpose(2, 0, 1)

    others = [v for v in range(n) if v != trace.observer]
    consistent: list[CandidateFit] = []
    identifiable = rank == n
    for size in range(f + 1):
        cols = (L - 1) * size
        per_batch = max(1, _BATCH_ELEMENTS // max(1, (m - rank) * cols))
        sets = itertools.combinations(others, size)
        while batch := list(itertools.islice(sets, per_batch)):
            idx = np.array(batch, dtype=np.intp).reshape(len(batch), size)
            # G_F with columns ordered (step, vehicle), as in observation_model
            g = parity[idx].transpose(0, 2, 3, 1).reshape(len(batch), m - rank, cols)
            gu, gs, gvt = np.linalg.svd(g, full_matrices=False)
            live = gs > RANK_RCOND * gs[:, :1]
            coef = (gu.transpose(0, 2, 1) @ z) / np.where(live, gs, 1.0)
            phi = ((coef * live)[:, None, :] @ gvt)[:, 0, :]
            resid = (z - (g @ phi[:, :, None])[:, :, 0]) @ null.T
            resid = np.max(np.abs(resid), axis=1, initial=0.0)
            for i in np.flatnonzero(resid < tol):
                fault_set = batch[i]
                t_f = forced[:, :, list(fault_set)].reshape(m, cols)
                x0 = pinv @ (y - t_f @ phi[i])
                consistent.append(CandidateFit(fault_set=fault_set, x0=x0,
                                               phi=phi[i].reshape(L - 1, size),
                                               residual=float(resid[i])))
                if identifiable:
                    # part of T_F on the null space of G_F must vanish
                    v = gvt[i][live[i]]
                    leak = t_f - (t_f @ v.T) @ v
                    scale = np.max(np.abs(t_f), initial=0.0)
                    identifiable = np.max(np.abs(leak), initial=0.0) <= RANK_RCOND * scale
    if not consistent:
        raise ModelMismatchError(
            f"no candidate fault set of size <= {f} is consistent with the measurements"
        )
    base = min(consistent, key=lambda c: c.residual)
    unique = identifiable and all(np.max(np.abs(c.x0 - base.x0)) < tol for c in consistent)
    return RecoveryResult(
        unique=bool(unique),
        x0=base.x0 if unique else None,
        candidates=tuple(consistent),
        tol=tol,
    )


def max_tolerable_faults(k: int) -> int:
    """Faults a P(n, k) platoon can tolerate for unique recovery: floor((k-1)/2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k - 1) // 2
