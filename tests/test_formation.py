import math
from pathlib import Path

import numpy as np
import pytest

from platoonnet.formation import (
    BRANCH_STATIC,
    BRANCH_UNDERDAMPED,
    Disturbance,
    build_formation,
    hinf_closed_form,
    hinf_grid,
    hinf_sweep,
    simulate_formation,
)
import platoonnet.formation as formation
from platoonnet.cli import _build_disturbance, load_formation_config
from platoonnet.connectivity import algebraic_connectivity
from platoonnet.graph import Graph, PlatoonSpec, build_knn_platoon, incidence, laplacian

from helpers import (
    a_mat,
    b_affine,
    c_mat,
    delta,
    f_mat,
    grid_hinf_sweep,
    lap_eigenvalues,
    modal_gain,
    modal_hinf,
    random_connected_graph,
    rk4_formation,
    sqrt_laplacian_output,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_system(n, k, kp=5.0, ku=10.0, d0=10.0):
    return build_formation(build_knn_platoon(PlatoonSpec(n, k)), kp, ku, d0)


# ---------------------------------------------------------------- structure


def test_state_matrices_have_block_structure():
    sys_ = make_system(5, 2, kp=3.0, ku=4.0)
    n = 5
    lap = laplacian(sys_.graph)
    a = formation._state_matrix(lap, 3.0, 4.0)
    assert np.array_equal(a, a_mat(sys_))
    assert np.array_equal(a[:n, :n], np.zeros((n, n)))
    assert np.array_equal(a[:n, n:], np.eye(n))
    assert np.array_equal(a[n:, :n], -3.0 * lap)
    assert np.array_equal(a[n:, n:], -4.0 * lap)
    assert np.array_equal(f_mat(sys_)[n:], np.eye(n))
    assert np.array_equal(f_mat(sys_)[:n], np.zeros((n, n)))
    assert np.array_equal(c_mat(sys_)[:, :n], incidence(sys_.graph).T)
    assert np.array_equal(c_mat(sys_)[:, n:], np.zeros((sys_.graph.m, n)))
    assert np.array_equal(b_affine(sys_)[:n], np.zeros(n))


def test_spacing_offsets_small_example():
    # P(3, 2), d0 = 10: vehicle 0 sees offsets to 1 and 2 -> 10*(1+2) = 30
    sys_ = make_system(3, 2, d0=10.0)
    assert np.array_equal(delta(sys_), [30.0, 0.0, -30.0])
    assert np.array_equal(sys_.desired_spans, [10.0, 20.0, 10.0])


def test_gain_validation():
    g = build_knn_platoon(PlatoonSpec(4, 1))
    with pytest.raises(ValueError):
        build_formation(g, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_formation(g, 1.0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gains_are_rejected(bad):
    # `bad <= 0` is false for NaN and +inf, so a sign test alone lets them through
    g = build_knn_platoon(PlatoonSpec(4, 1))
    for kp, ku in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite and positive"):
            build_formation(g, kp, ku)
        with pytest.raises(ValueError, match="finite and positive"):
            hinf_closed_form(1.0, kp, ku)


def test_system_holds_no_matrix_after_a_run():
    # P(12, 3) has m = 30 > 2n edges: no per-edge or n x n array stays behind
    sys_ = make_system(12, 3)
    simulate_formation(sys_, Disturbance(constant=np.ones(12)), T=1.0, h=0.1)
    hinf_sweep(sys_)
    assert sys_.lambda2 > 0
    for name, value in vars(sys_).items():
        assert np.size(value) <= 2 * sys_.graph.n, name


@pytest.mark.parametrize("kp, ku, lam2", [
    (1e-300, 1e-300, 1.0),  # underdamped: the denominator underflows to 0
    (1e-300, 1e-300, 1e-10),
    (1e-300, 1.0, 1e-20),  # static: 1 / (kp sqrt(lambda2)) overflows
    (1e308, 1e-10, 10.0),  # underdamped: 4 kp overflows, the gain reads 0
    (1e305, 2e154, 1e-4),  # underdamped: ku^2 overflows, 4 kp - ku^2 lambda2 reads -inf
])
def test_closed_form_refuses_a_gain_outside_the_double_range(kp, ku, lam2):
    with pytest.raises(ValueError, match=r"worst-case gain \(.* branch\) for kp=.* is outside the double range"):
        hinf_closed_form(lam2, kp, ku)


@pytest.mark.parametrize("kp, ku, disturbance", [
    (1e300, 1e300, Disturbance(constant=np.eye(6)[0])),
    (5.0, 10.0, Disturbance(sine=np.eye(6)[0], omega=1e300)),
    (5.0, 10.0, Disturbance(constant=1e308 * np.eye(6)[0])),
])
def test_simulation_refuses_a_trajectory_that_is_not_finite(recwarn, kp, ku, disturbance):
    sys_ = make_system(6, 2, kp=kp, ku=ku)
    with pytest.raises(ValueError, match="formation trajectory is not finite from t = "):
        simulate_formation(sys_, disturbance, T=1.0, h=1e-3, record_every=10)
    assert [str(w.message) for w in recwarn] == []


def test_sweep_picks_the_peak_pole_without_warning(recwarn):
    # with kp = ku = 1e300 a pole of the reduced system has a zero real part
    for n, k in ((4, 1), (4, 2), (6, 1), (6, 2)):
        sys_ = make_system(n, k, kp=1e300, ku=1e300)
        want = hinf_closed_form(sys_.lambda2, sys_.kp, sys_.ku)[0]
        assert abs(hinf_sweep(sys_).value - want) <= 1e-15 * want
    assert [str(w.message) for w in recwarn] == []


# ------------------------------------------------------------- closed form


def test_hinf_closed_form_example():
    value, branch, peak = hinf_closed_form(1.0, 5.0, 10.0)
    assert branch == BRANCH_STATIC
    assert value == pytest.approx(0.2, abs=1e-15)
    assert peak == 0.0


def test_hinf_branch_selection_and_continuity():
    kp, ku = 5.0, 10.0
    boundary = 2.0 * kp / (ku * ku)  # 0.1
    v_under, b_under, w_at = hinf_closed_form(boundary, kp, ku)
    # at the boundary both formulas coincide exactly, and the peak reaches 0
    static_value = 1.0 / (kp * math.sqrt(boundary))
    assert b_under == BRANCH_UNDERDAMPED
    assert abs(v_under - static_value) < 1e-12
    assert 0.0 <= w_at < 1e-7
    low, high = boundary * 0.999, boundary * 1.001
    _, b_low, w_low = hinf_closed_form(low, kp, ku)
    _, b_high, w_high = hinf_closed_form(high, kp, ku)
    assert b_low == BRANCH_UNDERDAMPED and b_high == BRANCH_STATIC
    # sqrt(kp lam (1 - lam / boundary)): the resonant peak, written another way
    assert w_low == pytest.approx(math.sqrt(kp * low * (1.0 - 0.999)), rel=1e-9)
    assert w_high == 0.0
    # in the rounding band the peak frequency follows the branch test: the
    # test says static-gain where kp lam - ku^2 lam^2 / 2 rounds to +4.4e-16,
    # and the resonant side clamps it where it rounds to -2.2e-16 (no NaN)
    for lam, g_p, g_u, branch, rounded in ((0.30851831169525845, 7.948, 7.178, BRANCH_STATIC, 1),
                                           (0.44444444444444453, 2.0, 3.0, BRANCH_UNDERDAMPED, -1)):
        assert math.copysign(1, g_p * lam - 0.5 * g_u * g_u * lam * lam) == rounded
        assert hinf_closed_form(lam, g_p, g_u)[1:] == (branch, 0.0)
    with pytest.raises(ValueError):
        hinf_closed_form(0.0, kp, ku)
    with pytest.raises(ValueError):
        hinf_closed_form(1.0, -1.0, 1.0)


def test_closed_form_equals_worst_mode():
    # the smallest positive eigenvalue dominates every other mode
    for n, k in [(6, 1), (10, 2), (12, 5)]:
        sys_ = make_system(n, k)
        gains = [modal_hinf(float(l), sys_.kp, sys_.ku) for l in lap_eigenvalues(sys_)]
        closed, _, _ = hinf_closed_form(sys_.lambda2, sys_.kp, sys_.ku)
        assert max(gains) == pytest.approx(closed, rel=1e-12)


def test_closed_form_peak_frequency_is_local_max():
    kp, ku = 5.0, 10.0
    lam = 0.05  # well inside the underdamped branch (boundary at 0.1)
    wbar = hinf_closed_form(lam, kp, ku)[2]
    assert wbar > 0
    g0 = modal_gain(lam, kp, ku, wbar)
    assert g0 == pytest.approx(modal_hinf(lam, kp, ku), rel=1e-12)
    for w in (0.9 * wbar, 1.1 * wbar):
        assert modal_gain(lam, kp, ku, w) < g0
    # static branch peaks at zero frequency
    assert hinf_closed_form(1.0, kp, ku)[2] == 0.0
    assert modal_hinf(0.0, kp, ku) == 0.0


# ------------------------------------------------------------------ sweep


def test_sweep_matches_closed_form():
    for n, k in [(10, 2), (20, 1)]:
        sys_ = make_system(n, k)
        closed, _, _ = hinf_closed_form(sys_.lambda2, sys_.kp, sys_.ku)
        sweep = hinf_sweep(sys_)
        assert abs(sweep.value - closed) / closed < 1e-4, (n, k)


def test_sweep_alternative_output_is_equivalent():
    sys_ = make_system(8, 2)
    a = hinf_sweep(sys_)
    b = hinf_sweep(sys_, output=sqrt_laplacian_output(sys_))
    assert abs(a.value - b.value) / a.value < 1e-9


CRITERION_6_POINTS = [(n, k, kp, ku) for n in (5, 10, 20) for k in (1, 2, 4)
                      for kp, ku in [(1.0, 1.0), (5.0, 10.0), (10.0, 2.0)]]


@pytest.mark.parametrize("n, k, kp, ku", CRITERION_6_POINTS)
def test_sweep_against_grid_oracle(n, k, kp, ku):
    sys_ = make_system(n, k, kp=kp, ku=ku)
    exact = hinf_sweep(sys_)
    ref = grid_hinf_sweep(sys_, n_log=200, n_window=20)
    # Every grid value is attained, so none may exceed the norm; 1e-8 covers
    # the full realization's rounding near its singular w -> 0 end (2e-9 at
    # K5, kp=10, ku=2).  The grid stays below by < 2e-6 (its 1e-3 rad/s floor).
    assert ref.value * (1 - 1e-8) <= exact.value <= ref.value * (1 + 1e-5)
    closed, branch, _ = hinf_closed_form(sys_.lambda2, kp, ku)
    assert abs(exact.value - closed) / closed < 1e-12
    if branch == BRANCH_STATIC:
        assert exact.frequency == 0.0
    # the reported frequency attains the gain on the worst mode
    attained = modal_gain(sys_.lambda2, kp, ku, exact.frequency)
    assert abs(attained - closed) / closed < 1e-12


def test_lambda2_is_exactly_zero_without_a_connected_graph():
    # eigvalsh can leave a residue such as 4e-17 for the second zero
    # eigenvalue, and hinf_closed_form would take it for a connected graph
    assert build_formation(Graph(1, []), 5.0, 10.0).lambda2 == 0.0
    for a in range(2, 9):
        for b in range(2, 9):
            edges = [(i, i + 1) for i in range(a + b - 1) if i != a - 1]  # two paths
            assert build_formation(Graph(a + b, edges), 5.0, 10.0).lambda2 == 0.0


def test_sweep_on_disconnected_graphs():
    # Each component's translation mode is unobservable, so the gain is the
    # worst component's: two P(3, 1) peak at w = 0 with 1 / (kp sqrt(1)) =
    # 0.5, which the grid only approaches from its 1e-3 rad/s floor.
    two_paths = build_formation(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 2.0, 3.0)
    exact = hinf_sweep(two_paths)
    assert abs(exact.value - 0.5) < 1e-12 and exact.frequency == 0.0
    ref = grid_hinf_sweep(two_paths)
    assert ref.value <= exact.value and exact.value - ref.value < 1e-6
    # P(4, 2) plus an isolated vehicle 4, on the underdamped branch
    edges = build_knn_platoon(PlatoonSpec(4, 2)).edges
    with_isolated = build_formation(Graph(5, edges), 4.0, 1.0)
    closed, branch, _ = hinf_closed_form(
        algebraic_connectivity(build_knn_platoon(PlatoonSpec(4, 2))), 4.0, 1.0)
    assert branch == BRANCH_UNDERDAMPED
    exact = hinf_sweep(with_isolated)
    assert abs(exact.value - closed) / closed < 1e-12
    ref = grid_hinf_sweep(with_isolated)
    assert ref.value * (1 - 1e-8) <= exact.value <= ref.value * (1 + 1e-5)
    root = hinf_sweep(with_isolated, output=sqrt_laplacian_output(with_isolated))
    assert abs(root.value - exact.value) / exact.value < 1e-9


def test_sweep_edge_cases():
    edgeless = hinf_sweep(build_formation(Graph(4, []), 1.0, 1.0))
    assert (edgeless.value, edgeless.frequency, edgeless.grid_points) == (0.0, 0.0, 0)
    single = hinf_sweep(build_formation(Graph(2, [(0, 1)]), 1.0, 1.0))
    # one edge: lambda = 2, lambda ku^2 / (2 kp) = 1, the branch boundary
    assert abs(single.value - hinf_closed_form(2.0, 1.0, 1.0)[0]) < 1e-12


def test_sweep_refuses_to_return_unconverged(monkeypatch):
    monkeypatch.setattr(formation, "_HINF_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        hinf_sweep(make_system(6, 2))


# ------------------------------------------------------------- simulation


def test_equilibrium_is_stationary():
    sys_ = make_system(7, 2)
    trace = simulate_formation(sys_, T=2.0, h=1e-3, record_every=100)
    drift = np.max(np.abs(trace.positions - trace.positions[0]))
    assert drift < 1e-9
    assert np.max(np.abs(trace.velocities)) < 1e-9
    assert np.max(np.abs(trace.span_errors)) < 1e-9


def test_perturbed_start_settles_back():
    sys_ = make_system(6, 2)
    x0 = sys_.equilibrium_state.copy()
    x0[2] += 3.0  # push one vehicle out of place
    # slowest pole here is about -0.53, so 30 s leaves only ~1e-7 of the kick
    trace = simulate_formation(sys_, T=30.0, h=1e-3, x0=x0, record_every=50)
    assert np.max(np.abs(trace.span_errors[0])) > 1.0
    assert np.max(np.abs(trace.span_errors[-1])) < 1e-5
    # the disturbance-free dynamics keep the average velocity constant
    assert abs(trace.velocities[-1].mean() - trace.velocities[0].mean()) < 1e-9


def test_simulation_rejects_unstable_step():
    sys_ = make_system(10, 4)
    # The exact discretisation has no step-size limit: h = 1.0, far outside
    # any explicit integrator's stability region (h * max|pole| ~ 92), lands
    # on the fine-grid samples at the shared times.
    push = Disturbance(constant=np.eye(10)[2])
    coarse = simulate_formation(sys_, disturbance=push, T=3.0, h=1.0)
    fine = simulate_formation(sys_, disturbance=push, T=3.0, h=1e-2, record_every=100)
    assert np.array_equal(coarse.t, fine.t)
    assert np.max(np.abs(coarse.span_errors[-1])) > 1e-3
    assert np.max(np.abs(coarse.positions - fine.positions)) < 1e-9
    with pytest.raises(ValueError):
        simulate_formation(sys_, T=-1.0)
    with pytest.raises(ValueError, match="shape"):
        simulate_formation(sys_, x0=np.zeros(3))


def _disturbed_start(sys_):
    x0 = sys_.equilibrium_state.copy()
    x0[1] += 2.0
    x0[sys_.graph.n + 3] -= 1.0
    return x0


@pytest.mark.parametrize("case", ["none", "step", "peak-sinusoid", "criterion-9-cosine"])
def test_exact_stepping_matches_rk4_reference(case):
    # the four inputs the CLI and criterion 9 produce, against fine-step RK4
    n, k, kp, ku = (10, 1, 5.0, 2.0) if case == "peak-sinusoid" else (10, 2, 5.0, 10.0)
    sys_ = make_system(n, k, kp=kp, ku=ku)
    basis = np.zeros(n)
    basis[3] = 1.5
    x0 = None
    if case == "none":
        disturbance, x0 = None, _disturbed_start(sys_)
    elif case == "step":
        disturbance = Disturbance(constant=basis)
    elif case == "peak-sinusoid":
        omega = hinf_closed_form(sys_.lambda2, kp, ku)[2]
        assert omega > 0
        phase = 0.4
        disturbance = Disturbance(sine=basis * math.cos(phase), cosine=basis * math.sin(phase),
                                  omega=omega)
    else:
        omega = hinf_closed_form(sys_.lambda2, kp, ku)[2]
        disturbance = Disturbance(cosine=basis, omega=omega)
    got = simulate_formation(sys_, disturbance=disturbance, T=4.0, h=1e-3, x0=x0, record_every=50)
    # RK4 at h = 1e-3 is itself off by ~1e-8 after the kick; half the step is 16x closer
    want = rk4_formation(sys_, disturbance=disturbance, T=4.0, h=5e-4, x0=x0, record_every=100)
    assert np.max(np.abs(got.t - want.t)) < 1e-12
    for a, b in [(got.positions, want.positions), (got.velocities, want.velocities),
                 (got.span_errors, want.span_errors)]:
        assert np.max(np.abs(a - b)) <= 1e-8, case


def test_sampling_does_not_change_the_result():
    sys_ = make_system(8, 2)
    basis = np.zeros(8)
    basis[0] = 1.0
    disturbance = Disturbance(constant=0.5 * basis, sine=basis, omega=0.7)
    x0 = _disturbed_start(sys_)
    fine = simulate_formation(sys_, disturbance=disturbance, T=5.0, h=1e-3, x0=x0,
                              record_every=100)
    coarse = simulate_formation(sys_, disturbance=disturbance, T=5.0, h=0.1, x0=x0,
                                record_every=1)
    assert len(fine.t) == len(coarse.t) == 51
    assert np.max(np.abs(fine.t - coarse.t)) < 1e-12
    for a, b in [(fine.positions, coarse.positions), (fine.velocities, coarse.velocities),
                 (fine.span_errors, coarse.span_errors)]:
        assert np.max(np.abs(a - b)) <= 1e-9


def test_last_partial_sample_lands_on_the_grid_end():
    # round(T/h) = 1005 steps: 100 full strides of 10, then a last sample 5 steps on
    sys_ = make_system(8, 2)
    basis = np.zeros(8)
    basis[2] = 1.0
    disturbance = Disturbance(constant=0.5 * basis, sine=basis, omega=1.3)
    x0 = _disturbed_start(sys_)
    got = simulate_formation(sys_, disturbance=disturbance, T=1.005, h=1e-3, x0=x0,
                             record_every=10)
    assert len(got.t) == 102
    assert got.t[-1] == 1005 * 1e-3
    assert got.t[-2] == 1000 * 1e-3
    want = rk4_formation(sys_, disturbance=disturbance, T=1.005, h=5e-4, x0=x0, record_every=20)
    assert np.max(np.abs(got.t - want.t)) < 1e-12
    for a, b in [(got.positions, want.positions), (got.velocities, want.velocities),
                 (got.span_errors, want.span_errors)]:
        assert np.max(np.abs(a - b)) <= 1e-8


def test_span_errors_equal_the_incidence_product_bitwise():
    # the gather p_i - p_j by edge endpoints against the incidence product,
    # which sums +-1 products and zeros around the same one rounding: the
    # worst-case fixture as the CLI runs it, and random connected graphs
    system, T, h, record_every, cfg = load_formation_config(
        str(SCENARIOS / "formation-worst-case.json"))
    peak = hinf_closed_form(system.lambda2, system.kp, system.ku)[2]
    disturbance, _ = _build_disturbance(system, cfg, peak)
    runs = [(system, simulate_formation(system, disturbance, T=T, h=h, record_every=record_every))]
    rng = np.random.default_rng(31)
    for _ in range(30):
        sys_ = build_formation(random_connected_graph(rng, 3, 10), 5.0, 10.0)
        n = sys_.graph.n
        x0 = sys_.equilibrium_state + rng.normal(size=2 * n)
        push = Disturbance(constant=rng.normal(size=n), sine=rng.normal(size=n), omega=0.9)
        runs.append((sys_, simulate_formation(sys_, push, T=2.0, h=0.01, x0=x0)))
    for sys_, trace in runs:
        want = trace.positions @ c_mat(sys_)[:, :sys_.graph.n].T - sys_.desired_spans
        assert trace.span_errors.tobytes() == want.tobytes(), sys_.graph.edges


def test_recording_stride():
    sys_ = make_system(5, 1)
    trace = simulate_formation(sys_, T=1.0, h=1e-3, record_every=200)
    assert trace.t[0] == 0.0 and trace.t[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(trace.t), 0.2)
    assert trace.positions.shape == (6, 5)
    assert trace.span_errors.shape == (6, sys_.graph.m)


# ----------------------------------------------------------------- surface


def test_hinf_grid_rows_and_spot_checks():
    pairs = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 5)]
    rows = hinf_grid(pairs, 5.0, 10.0, spot_check={(5, 1)})
    assert [(r.n, r.k) for r in rows] == pairs
    for r in rows:
        lo, hi = r.lower, r.upper
        assert lo - 1e-9 <= r.lambda2 <= hi + 1e-9
        if (r.n, r.k) == (5, 1):
            assert r.sweep_value is not None
            assert abs(r.sweep_value - r.hinf) / r.hinf < 1e-3
        else:
            assert r.sweep_value is None


def _bits(result) -> tuple:
    return result.value.hex(), result.frequency.hex(), result.grid_points


# (kp, ku): the README's gains, and those of the benchmark's sweep job, whose
# shape (n in {8, 16}, k in {1, 3}) lies inside the grid below
@pytest.mark.parametrize("kp, ku", [(5.0, 10.0), (2.0, 3.0)])
def test_sweep_dedupe_matches_np_unique(monkeypatch, kp, ku):
    rng = np.random.default_rng(5)
    for values in ([], [1.5], [-0.0, 0.0, 0.0], rng.integers(0, 6, 40) / 4.0, rng.normal(size=30)):
        values = np.asarray(values, dtype=float)
        assert formation._distinct(values).tobytes() == np.unique(values).tobytes()

    pairs = [(n, k) for n in range(2, 21) for k in range(1, 5) if k < n]
    systems = [make_system(n, k, kp=kp, ku=ku) for n, k in pairs]
    got = [_bits(hinf_sweep(s)) for s in systems]
    grid = hinf_grid(pairs, kp, ku, spot_check=set(pairs))
    monkeypatch.setattr(formation, "_distinct", np.unique)
    assert got == [_bits(hinf_sweep(s)) for s in systems]
    reference = hinf_grid(pairs, kp, ku, spot_check=set(pairs))
    assert [r.sweep_value.hex() for r in grid] == [r.sweep_value.hex() for r in reference]
