"""Distributed formation keeping and its disturbance amplification.

Double-integrator vehicles i = 0..n-1 with state (p_i, u_i), u = pdot, run
the neighbor feedback

    udot_i = sum_{j in N(i)} [ kp (p_j - p_i + Delta_ij) + ku (u_j - u_i) ] + w_i

with Delta_ij = d0 (j - i) encoding the desired spacing.  Stacked:

    xdot = A x + b + F w,   y = C x,
    A = [[0, I], [-kp L, -ku L]],  F = [[0], [I]],  C = [B^T, 0],

where L is the graph Laplacian and B the oriented incidence matrix, so y
collects the per-edge position differences.  The worst-case L2 gain from w
to spacing error has a closed form in lambda2 = lambda_2(L); an independent
Hamiltonian level-set computation of sup_w sigma_max(C (jwI - A)^{-1} F)
cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (Graph, _count, _endpoints, _vector, algebraic_connectivity, components,
                    incidence, laplacian)

BRANCH_UNDERDAMPED = "underdamped-peak"
BRANCH_STATIC = "static-gain"


def _check_gains(kp: float, ku: float) -> None:
    if not (0 < kp < math.inf and 0 < ku < math.inf):  # false for NaN
        raise ValueError("gains kp and ku must be finite and positive")


def _state_matrix(lap: np.ndarray, kp: float, ku: float) -> np.ndarray:
    """[[0, I], [-kp lap, -ku lap]]: the closed loop on positions and speeds."""
    n = len(lap)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -kp * lap
    a[n:, n:] = -ku * lap
    return a


@dataclass(frozen=True)
class FormationSystem:
    graph: Graph
    kp: float
    ku: float
    d0: float

    def __post_init__(self):
        _check_gains(self.kp, self.ku)

    @cached_property
    def lap(self) -> np.ndarray:
        return laplacian(self.graph).astype(np.float64)

    @cached_property
    def a_mat(self) -> np.ndarray:
        return _state_matrix(self.lap, self.kp, self.ku)

    @cached_property
    def c_mat(self) -> np.ndarray:
        n, m = self.graph.n, self.graph.m
        c = np.zeros((m, 2 * n))
        c[:, :n] = incidence(self.graph).T
        return c

    @cached_property
    def desired_spans(self) -> np.ndarray:
        """Desired (p_i - p_j) per canonical edge (i, j): d0 * (j - i)."""
        return np.array([self.d0 * (j - i) for i, j in self.graph.edges])

    @cached_property
    def equilibrium_state(self) -> np.ndarray:
        n = self.graph.n
        x = np.zeros(2 * n)
        x[:n] = -self.d0 * np.arange(n)
        return x

    @cached_property
    def lambda2(self) -> float:
        """Second-smallest Laplacian eigenvalue; exactly 0.0 for one vehicle or
        a disconnected graph."""
        return algebraic_connectivity(self.graph)


def build_formation(g: Graph, kp: float, ku: float, d0: float = 10.0) -> FormationSystem:
    return FormationSystem(graph=g, kp=float(kp), ku=float(ku), d0=float(d0))


def hinf_closed_form(lambda2: float, kp: float, ku: float) -> tuple[float, str, float]:
    """Closed-form worst-case gain for one connected formation, its branch
    and the frequency at which the gain peaks.

    Two branches, continuous at lambda2 = 2 kp / ku^2:
      * lambda2 ku^2 / (2 kp) <= 1 (resonant peak at a positive frequency):
            2 / (ku lambda2 sqrt(4 kp - ku^2 lambda2))
        at sqrt(kp lambda2 - ku^2 lambda2^2 / 2), clamped at 0 against rounding;
      * otherwise (gain peaks at zero frequency):
            1 / (kp sqrt(lambda2)), at frequency 0.
    """
    if not 0 < lambda2 < math.inf:  # false for NaN
        raise ValueError("lambda2 must be positive (connected graph) and finite")
    _check_gains(kp, ku)
    if lambda2 * ku * ku / (2.0 * kp) <= 1.0:
        gain = 2.0 / (ku * lambda2 * math.sqrt(4.0 * kp - ku * ku * lambda2))
        peak = math.sqrt(max(kp * lambda2 - 0.5 * ku * ku * lambda2 * lambda2, 0.0))
        return gain, BRANCH_UNDERDAMPED, peak
    return 1.0 / (kp * math.sqrt(lambda2)), BRANCH_STATIC, 0.0


@dataclass(frozen=True)
class SweepResult:
    value: float
    frequency: float
    grid_points: int  # sigma_max evaluations


HINF_TOL = 1e-12  # relative gap eps of the level test (1 + 2 eps) gamma_lb
_AXIS_TOL = 1e-6  # |Re lambda| <= _AXIS_TOL ||H||: treated as on the imaginary axis
_HINF_MAX_ITER = 50


def _translation_free_basis(g: Graph) -> np.ndarray:
    """Orthonormal basis (n x (n - c)) of the complement of the indicator
    vectors of g's c connected components, from a complete QR factorisation."""
    comps = components(g)
    ind = np.zeros((g.n, len(comps)))
    for col, verts in enumerate(comps):
        ind[verts, col] = 1.0
    q, _ = np.linalg.qr(ind, mode="complete")
    return q[:, len(comps):]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in ascending order, as np.unique
    gives them.  np.unique itself imports numpy.ma, ~12 ms that no other part
    of a sweep job needs."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def hinf_sweep(system: FormationSystem, output: np.ndarray | None = None) -> SweepResult:
    """Numerical worst-case gain sup_w sigma_max(C (jwI - A)^{-1} F) by the
    level-set iteration of Bruinsma & Steinbuch (Syst. Control Lett. 1990).

    Works on the state-space matrices with each component's translation
    mode projected out: with Q an orthonormal basis of the complement of the
    component indicators, A_r = [[0, I], [-kp Q'LQ, -ku Q'LQ]],
    B_r = [0; Q'] and C_r = output blockdiag(Q, Q).  The translation modes
    are unobservable (the output must vanish on them, as both the incidence
    and the L^{1/2} output do), so the transfer function is unchanged, and
    A_r is Hurwitz for every graph.  L is never diagonalised, so the result
    stays independent of the modal closed form.

    gamma_lb starts at the gain at w = 0 and at |Im p| for the pole p with
    the largest |Im p / Re p|.  While the Hamiltonian
    H(g) = [[A_r, B_r B_r'/g], [-C_r'C_r/g, -A_r']] at g = (1 + 2 HINF_TOL)
    gamma_lb has imaginary eigenvalues jw (exactly the frequencies where g
    is a singular value), gamma_lb is raised to the largest sigma_max at
    the midpoints between them.  It stops when none lies on the axis, or
    when no midpoint rises above the level (eigenvalues that only touch the
    axis within rounding), and raises RuntimeError if neither happens
    within the iteration cap.  `grid_points` counts sigma_max evaluations.
    """
    n = system.graph.n
    out = system.c_mat if output is None else output
    q = _translation_free_basis(system.graph)
    r = q.shape[1]
    c = np.hstack([out[:, :n] @ q, out[:, n:] @ q])
    if not c.any():  # no edges, or an output that sees nothing
        return SweepResult(value=0.0, frequency=0.0, grid_points=0)
    a = _state_matrix(q.T @ system.lap @ q, system.kp, system.ku)
    b = np.zeros((2 * r, n))
    b[r:] = q.T

    evaluations = 0

    def sigma_max(w: float) -> float:
        nonlocal evaluations
        evaluations += 1
        x = np.linalg.solve((1j * w) * np.eye(2 * r) - a, b)
        return float(np.linalg.svd(c @ x, compute_uv=False)[0])

    poles = np.linalg.eigvals(a)
    peak = abs(float(poles[np.argmax(np.abs(poles.imag / poles.real))].imag))
    best, freq = sigma_max(0.0), 0.0
    if peak > 0:
        value = sigma_max(peak)
        if value > best:
            best, freq = value, peak
    bb, cc = b @ b.T, c.T @ c
    for _ in range(_HINF_MAX_ITER):
        level = (1.0 + 2.0 * HINF_TOL) * best
        ham = np.block([[a, bb / level], [-cc / level, -a.T]])
        eig = np.linalg.eigvals(ham)
        axis = np.sort(eig.imag[np.abs(eig.real) <= _AXIS_TOL * np.linalg.norm(ham, 1)])
        if axis.size == 0:
            return SweepResult(value=best, frequency=freq, grid_points=evaluations)
        for w in _distinct(np.abs(axis[:-1] + axis[1:]) / 2.0):
            value = sigma_max(float(w))
            if value > best:
                best, freq = value, float(w)
        if best <= level:
            return SweepResult(value=best, frequency=freq, grid_points=evaluations)
    raise RuntimeError(
        f"H-infinity level-set iteration did not converge in {_HINF_MAX_ITER} steps"
    )


@dataclass(frozen=True)
class FormationTrace:
    t: np.ndarray
    positions: np.ndarray  # (steps, n)
    velocities: np.ndarray  # (steps, n)
    span_errors: np.ndarray  # (steps, m): (p_i - p_j) - d0 (j - i) per edge


@dataclass(frozen=True)
class Disturbance:
    """Per-vehicle input w(t) = constant + sine sin(omega t) + cosine cos(omega t).

    Each part is a length-n vector (None for zero).  This family is closed
    under the exogenous dynamics d/dt [1, sin wt, cos wt], which is what lets
    simulate_formation step it exactly.
    """

    constant: np.ndarray | None = None
    sine: np.ndarray | None = None
    cosine: np.ndarray | None = None
    omega: float = 0.0


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by the [6/6] Pade approximant with scaling and
    squaring (Golub & Van Loan, Matrix Computations, alg. 11.3.1).  m is
    scaled by 2^-s to ||m||_inf < 1/2, where the approximant's truncation
    error (< 4e-16 relative) is below double rounding, and the result is
    squared s times."""
    norm = float(np.linalg.norm(m, np.inf))
    s = max(0, math.frexp(norm)[1] + 1)
    a = m / 2.0**s
    eye = np.eye(len(m))
    num, den, term = eye.copy(), eye.copy(), eye
    c = 1.0
    q = 6
    for j in range(1, q + 1):
        c *= (q - j + 1) / (j * (2 * q - j + 1))
        term = a @ term
        num += c * term
        den += (-c if j % 2 else c) * term
    e = np.linalg.solve(den, num)
    for _ in range(s):
        e = e @ e
    return e


def simulate_formation(
    system: FormationSystem,
    disturbance: Disturbance | None = None,
    T: float = 10.0,
    h: float = 1e-3,
    x0: np.ndarray | None = None,
    record_every: int = 1,
) -> FormationTrace:
    """Exact samples of xdot = A x + b + F w(t) on the grid t = s h,
    s = 0..round(T / h), taking every record_every-th point and the last.

    The system is linear and time-invariant and w is a constant plus one
    sinusoid, so z = [x - x_eq, 1, sin wt, cos wt] obeys zdot = Z z (A x_eq
    + b = 0) and one sample follows from the previous one as
    z <- exp(Z h record_every) z.  There is no step-size limit and no
    truncation error beyond rounding; h only sets the sampling grid.
    """
    n = system.graph.n
    if not (0 < h < math.inf and 0 < T < math.inf):  # false for NaN
        raise ValueError("T and h must be positive and finite")
    record_every = _count("record_every", record_every, 1)
    x_eq = system.equilibrium_state
    dev = np.zeros(2 * n) if x0 is None else _vector("x0", x0, 2 * n) - x_eq
    w = Disturbance() if disturbance is None else disturbance

    size = 2 * n + 3
    z_mat = np.zeros((size, size))
    z_mat[: 2 * n, : 2 * n] = system.a_mat
    for col, part in enumerate((w.constant, w.sine, w.cosine)):
        if part is not None:  # F routes w into the velocities
            z_mat[n : 2 * n, 2 * n + col] = _vector("disturbance parts", part, n)
    omega = float(w.omega)
    z_mat[2 * n + 1, 2 * n + 2] = omega
    z_mat[2 * n + 2, 2 * n + 1] = -omega

    steps = int(round(T / h))
    full, rest = divmod(steps, record_every)
    recorded = list(range(0, steps + 1, record_every)) + ([steps] if rest else [])
    z = np.empty((len(recorded), size))
    z[0, : 2 * n] = dev
    z[0, 2 * n :] = (1.0, 0.0, 1.0)
    phi = _expm(z_mat * (h * record_every))
    for s in range(1, full + 1):
        z[s] = phi @ z[s - 1]
    if rest:
        z[-1] = _expm(z_mat * (h * rest)) @ z[full]
    states = z[:, : 2 * n] + x_eq
    pos, vel = states[:, :n], states[:, n:]
    i, j = _endpoints(system.graph)
    span_err = pos[:, i] - pos[:, j] - system.desired_spans
    return FormationTrace(
        t=np.array(recorded) * h, positions=pos, velocities=vel, span_errors=span_err
    )


@dataclass(frozen=True)
class HinfGridRow:
    n: int
    k: int
    kp: float
    ku: float
    lambda2: float
    lower: float
    upper: float
    hinf: float
    branch: str
    sweep_value: float | None = None


def hinf_grid(pairs, kp: float, ku: float, spot_check=frozenset()) -> list[HinfGridRow]:
    """Closed-form gain surface over platoon (n, k) pairs, in the given
    order, with numerical sweep spot-checks on the pairs in spot_check."""
    from .graph import PlatoonSpec, build_knn_platoon, lambda2_bounds

    rows = []
    for n, k in pairs:
        spec = PlatoonSpec(n, k)
        system = build_formation(build_knn_platoon(spec), kp, ku)
        lam2 = system.lambda2
        value, branch, _ = hinf_closed_form(lam2, kp, ku)
        lower, upper = lambda2_bounds(spec)
        sweep_val = hinf_sweep(system).value if (n, k) in spot_check else None
        rows.append(
            HinfGridRow(
                n=spec.n, k=spec.k, kp=float(kp), ku=float(ku),
                lambda2=lam2, lower=lower, upper=upper,
                hinf=value, branch=branch, sweep_value=sweep_val,
            )
        )
    return rows
