import numpy as np
import pytest

from helpers import is_row_stochastic, joint_lstsq_recover, phi_vector
from platoonnet import estimation
from platoonnet.estimation import (
    RANK_RCOND,
    FaultScenario,
    ModelMismatchError,
    WeightMatrix,
    max_tolerable_faults,
    measured_rows,
    observation_model,
    observe,
    packet_drop_scenario,
    random_weights,
    recover_initial_state,
    simulate_faulty,
)
from platoonnet.graph import Graph, PlatoonSpec, build_knn_platoon, neighbors


def make_setup(n, k, seed):
    g = build_knn_platoon(PlatoonSpec(n, k))
    W = random_weights(g, seed)
    x0 = np.random.default_rng([seed, 1]).uniform(-5, 5, n)
    return g, W, x0


# ---------------------------------------------------------------- weights


def test_random_weights_support_and_determinism():
    g = build_knn_platoon(PlatoonSpec(6, 2))
    W = random_weights(g, 42)
    for i in range(6):
        for j in range(6):
            on_support = i == j or g.has_edge(i, j)
            if on_support:
                assert 0.2 <= W.matrix[i, j] <= 1.0
            else:
                assert W.matrix[i, j] == 0.0
    again = random_weights(g, 42)
    assert np.array_equal(W.matrix, again.matrix)
    other = random_weights(g, 43)
    assert not np.array_equal(W.matrix, other.matrix)


def test_random_weights_draw_the_support_row_major():
    # the documented stream: one scalar draw per support entry, row by row,
    # columns sorted({i} | N(i)); isolated vehicles and empty graphs included
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        n = int(rng.integers(1, 16))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < rng.random()]
        g, seed = Graph(n, edges), int(rng.integers(1 << 32))
        draw = np.random.default_rng(seed)
        want = np.zeros((n, n))
        for i in range(n):
            for j in sorted(set(neighbors(g, i)) | {i}):
                want[i, j] = draw.uniform(0.2, 1.0)
        assert random_weights(g, seed).matrix.tobytes() == want.tobytes()


def test_weight_matrix_rejects_off_support_entries():
    g = build_knn_platoon(PlatoonSpec(4, 1))
    w = np.eye(4)
    w[0, 3] = 0.5  # not an edge of P(4, 1)
    with pytest.raises(ValueError, match="off the graph support"):
        WeightMatrix(g, w)
    with pytest.raises(ValueError, match="4x4"):
        WeightMatrix(g, np.eye(3))


def test_row_stochastic_check():
    g = build_knn_platoon(PlatoonSpec(4, 2))
    raw = random_weights(g, 1).matrix
    assert not is_row_stochastic(WeightMatrix(g, raw))
    normalized = raw / raw.sum(axis=1, keepdims=True)
    assert is_row_stochastic(WeightMatrix(g, normalized))


# ------------------------------------------------------------- simulation


def test_fault_free_simulation_is_matrix_powers():
    g, W, x0 = make_setup(6, 2, 3)
    sc = FaultScenario(faulty=(), phi={}, horizon=5)
    states = simulate_faulty(W, x0, sc)
    acc = x0.copy()
    for k in range(5):
        assert np.allclose(states[k], acc, rtol=0, atol=0)
        acc = W.matrix @ acc
    assert np.array_equal(states[5], acc)


def test_fault_injection_enters_one_row():
    g, W, x0 = make_setup(5, 2, 9)
    sc = FaultScenario(faulty=(2,), phi={(2, 0): 1.5}, horizon=2)
    states = simulate_faulty(W, x0, sc)
    clean = W.matrix @ x0
    assert states[1][2] == clean[2] + 1.5
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.array_equal(states[1][mask], clean[mask])


def test_fault_scenario_validation():
    with pytest.raises(ValueError, match="not in faulty set"):
        FaultScenario(faulty=(1,), phi={(2, 0): 1.0}, horizon=3)
    with pytest.raises(ValueError, match="outside"):
        FaultScenario(faulty=(1,), phi={(1, 3): 1.0}, horizon=3)
    with pytest.raises(ValueError, match="horizon"):
        FaultScenario(faulty=(), phi={}, horizon=0)
    with pytest.raises(ValueError, match="^duplicate faulty vehicles$"):
        FaultScenario(faulty=(3, 1, 3), phi={(3, 0): 1.0}, horizon=2)


def test_fault_scenario_refuses_non_integral_ids():
    # 2.5 would be truncated to vehicle 2; numpy integers are ids
    with pytest.raises(ValueError, match=r"^vehicle id must be an integer, got 2\.5$"):
        FaultScenario(faulty=(2.5,), phi={}, horizon=1)
    scenario = FaultScenario(faulty=(np.int64(2), 0), phi={}, horizon=1)
    assert scenario.faulty == (0, 2) and all(type(v) is int for v in scenario.faulty)


def test_simulation_rejects_a_faulty_id_outside_the_graph():
    # -1 would wrap to the last vehicle, and n is past the end
    _, W, x0 = make_setup(5, 2, 9)
    for v in (-1, 5):
        scenario = FaultScenario(faulty=(v,), phi={(v, 0): 1.0}, horizon=2)
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range for n=5$"):
            simulate_faulty(W, x0, scenario)


def test_simulation_refuses_a_trace_past_the_double_range(recwarn):
    # x[k] = 2^k on the diagonal: 2^1023 is the largest power of two a double holds
    g = build_knn_platoon(PlatoonSpec(3, 1))
    W = WeightMatrix(g, 2.0 * np.eye(3))
    scenario = FaultScenario(faulty=(), phi={}, horizon=1100)
    with pytest.raises(ValueError, match=r"^the state trace is not finite from step 1024: "):
        simulate_faulty(W, np.ones(3), scenario)
    assert [str(w.message) for w in recwarn] == []


# ------------------------------------------------------------ observation


def test_observation_model_checks_its_fault_ids():
    # -1 would wrap to the last vehicle, 7 is past the end, and a repeat
    # would fold into one id
    _, W, _ = make_setup(5, 2, 9)
    for v in (-1, 7):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range for n=5$"):
            observation_model(W, 0, 3, (v,))
    with pytest.raises(ValueError, match="^duplicate faulty vehicles$"):
        observation_model(W, 0, 3, (4, 4))
    with pytest.raises(ValueError, match=r"^vehicle id must be an integer, got 2\.5$"):
        observation_model(W, 0, 3, (2.5,))
    _, forced = observation_model(W, 0, 3, (np.int64(4),))
    assert np.array_equal(forced, observation_model(W, 0, 3, (4,))[1])


def test_measured_rows_are_closed_neighborhood():
    g = build_knn_platoon(PlatoonSpec(7, 2))
    assert measured_rows(g, 0) == [0, 1, 2]
    assert measured_rows(g, 3) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="^vertex 9 out of range for n=7$"):
        measured_rows(g, 9)


def test_stacked_model_matches_simulation_exactly():
    # Y = O x0 + J Phi is the identity everything else rests on
    for n, k, seed in [(6, 2, 0), (8, 3, 5), (10, 3, 11)]:
        g, W, x0 = make_setup(n, k, seed)
        rng = np.random.default_rng(seed + 100)
        faulty = (int(rng.integers(1, n)),)
        phi = {(faulty[0], step): float(rng.uniform(-2, 2)) for step in range(n)}
        sc = FaultScenario(faulty=faulty, phi=phi, horizon=n)
        states = simulate_faulty(W, x0, sc)
        trace = observe(g, states, 0)
        obs, forced = observation_model(W, 0, n + 1, faulty)
        stacked_phi = np.concatenate([phi_vector(sc, s) for s in range(n)])
        y_pred = obs @ x0 + forced @ stacked_phi
        y_true = trace.y.reshape(-1)
        assert np.max(np.abs(y_pred - y_true)) < 1e-9 * (1 + np.max(np.abs(y_true)))


def test_observability_full_rank_for_k3():
    g, W, _ = make_setup(10, 3, 2)
    obs, forced = observation_model(W, 0, 10)
    assert forced.shape[1] == 0
    assert np.linalg.matrix_rank(obs, tol=1e-10) == 10


def test_observe_length_slicing():
    g, W, x0 = make_setup(6, 2, 4)
    sc = FaultScenario(faulty=(), phi={}, horizon=6)
    states = simulate_faulty(W, x0, sc)
    tr = observe(g, states, 1, length=3)
    assert tr.y.shape == (3, len(measured_rows(g, 1)))
    with pytest.raises(ValueError):
        observe(g, states, 1, length=8)


# ---------------------------------------------------------------- recovery


@pytest.mark.parametrize("n,k", [(8, 3), (10, 3), (10, 5), (12, 5)])
def test_recovery_identifies_state_and_faults(n, k):
    # row-stochastic weights keep the trajectories bounded: with raw
    # uniform weights the states of the denser pairs grow like 6^n and the
    # stacked system becomes too ill-conditioned to separate fault sets
    f = max_tolerable_faults(k)
    rng = np.random.default_rng([n, k])
    for trial in range(12):
        seed = int(rng.integers(0, 2**31))
        g, W_raw, x0 = make_setup(n, k, seed)
        raw = W_raw.matrix
        W = WeightMatrix(g, raw / raw.sum(axis=1, keepdims=True))
        observer = int(rng.integers(0, n))
        pool = [v for v in range(n) if v != observer]
        n_faults = int(rng.integers(0, f + 1))
        faulty = tuple(sorted(rng.choice(pool, size=n_faults, replace=False).tolist()))
        phi = {
            (v, step): float(rng.uniform(-3, 3))
            for v in faulty
            for step in range(n)
        }
        sc = FaultScenario(faulty=faulty, phi=phi, horizon=n)
        states = simulate_faulty(W, x0, sc)
        trace = observe(g, states, observer)
        result = recover_initial_state(trace, W, f)
        assert result.unique, (n, k, seed, observer, faulty)
        assert np.max(np.abs(result.x0 - x0)) < 1e-6
        # the true fault set is among the consistent candidates
        assert faulty in [c.fault_set for c in result.candidates]
        # recovered injections match wherever they influence a measurement
        # (trailing steps of a fault outside the observer's view never do)
        best = result.best
        if best.fault_set == faulty and n_faults:
            want = np.array([[phi[(v, s)] for v in faulty] for s in range(n)])
            _, forced = observation_model(W, observer, n + 1, faulty)
            observable = np.linalg.norm(forced, axis=0).reshape(n, n_faults) > 1e-12
            assert np.max(np.abs((best.phi - want)[observable])) < 1e-5


def test_recovery_error_shrinks_with_more_measurements():
    g, W, x0 = make_setup(10, 3, 7)
    sc = FaultScenario(
        faulty=(4,), phi={(4, s): ((-1.0) ** s) * (s + 1) / 4 for s in range(10)}, horizon=10
    )
    states = simulate_faulty(W, x0, sc)
    errors = []
    for used in range(1, 11):
        trace = observe(g, states, 0, used)
        res = recover_initial_state(trace, W, 1)
        errors.append(float(np.linalg.norm(res.best.x0 - x0)))
    assert errors[0] > 1.0  # a single measurement cannot pin down x0
    assert errors[-1] < 1e-8
    assert min(errors) == errors[-1] or errors[-1] < 1e-8


def test_too_many_faults_is_model_mismatch():
    g, W, x0 = make_setup(10, 3, 13)
    phi = {(v, s): 2.0 for v in (4, 7) for s in range(10)}
    sc = FaultScenario(faulty=(4, 7), phi=phi, horizon=10)
    states = simulate_faulty(W, x0, sc)
    trace = observe(g, states, 0)
    with pytest.raises(ModelMismatchError):
        recover_initial_state(trace, W, 1)
    # allowing two candidate faults makes the same data consistent again
    result = recover_initial_state(trace, W, 2)
    assert result.unique
    assert np.max(np.abs(result.x0 - x0)) < 1e-6


def test_ambiguous_recovery_reports_candidates():
    # k = 1 tolerates zero faults, so f = 1 admits several fault hypotheses
    g, W, x0 = make_setup(4, 1, 0)
    rng = np.random.default_rng([0, 1])
    rng.uniform(-5, 5, 4)  # advance past the x0 draws
    phi = {(3, s): float(rng.uniform(-2, 2)) for s in range(4)}
    sc = FaultScenario(faulty=(3,), phi=phi, horizon=4)
    states = simulate_faulty(W, x0, sc)
    trace = observe(g, states, 0)
    result = recover_initial_state(trace, W, 1)
    assert not result.unique
    assert result.x0 is None
    assert (3,) in [c.fault_set for c in result.candidates]
    assert len(result.candidates) > 1


# (n, k, f, measurement steps, row-stochastic weights): the benchmark's two
# estimate shapes (raw weights, horizon below n), the shapes of
# test_recovery_identifies_state_and_faults (n + 1 steps), raw weights with
# n + 1 steps, and k = 1, which cannot tolerate the fault
ORACLE_SHAPES = [
    (16, 4, 1, 10, False), (18, 5, 2, 8, False),
    (8, 3, 1, 9, True), (10, 3, 1, 11, True), (10, 5, 2, 11, True), (12, 5, 2, 13, True),
    (10, 3, 1, 11, False), (4, 1, 1, 5, False),
]


def single_fault_run(n, k, steps, seed, stochastic=False):
    """Observer 0's full trace of a run with one faulty vehicle (not 0)."""
    g, W, x0 = make_setup(n, k, seed)
    if stochastic:
        W = WeightMatrix(g, W.matrix / W.matrix.sum(axis=1, keepdims=True))
    rng = np.random.default_rng([seed, 2])
    faulty = int(rng.integers(1, n))
    phi = {(faulty, s): float(rng.uniform(-2, 2)) for s in range(steps - 1)}
    states = simulate_faulty(W, x0, FaultScenario(faulty=(faulty,), phi=phi, horizon=steps - 1))
    return g, W, x0, states


@pytest.mark.parametrize("n,k,f,steps,stochastic", ORACLE_SHAPES)
def test_parity_screening_matches_joint_lstsq(n, k, f, steps, stochastic):
    for seed in range(3):
        g, W, x0, states = single_fault_run(n, k, steps, seed, stochastic)
        for used in range(1, steps + 1):
            trace = observe(g, states, 0, used)
            new = recover_initial_state(trace, W, f)
            old = joint_lstsq_recover(trace, W, f)
            where = (n, k, seed, used)
            assert [c.fault_set for c in new.candidates] == [c.fault_set for c in old.candidates], where
            # the identifiability rule only ever withdraws a unique answer
            assert old.unique or not new.unique, where
            if new.unique and old.unique:
                assert np.max(np.abs(new.x0 - old.x0)) <= 1e-8 * (1 + np.max(np.abs(old.x0))), where
        assert new.unique == old.unique, (n, k, seed)


def test_batch_size_does_not_change_the_result(monkeypatch):
    g, W, x0, states = single_fault_run(12, 5, 13, 0, stochastic=True)
    traces = [observe(g, states, 0, used) for used in (1, 4, 13)]
    whole = [recover_initial_state(trace, W, 2) for trace in traces]
    monkeypatch.setattr(estimation, "_BATCH_ELEMENTS", 1)  # one candidate per SVD
    for trace, want in zip(traces, whole):
        got = recover_initial_state(trace, W, 2)
        assert got.unique == want.unique
        assert [c.fault_set for c in got.candidates] == [c.fault_set for c in want.candidates]
        for a, b in zip(got.candidates, want.candidates):
            assert np.allclose(a.x0, b.x0, rtol=0, atol=1e-9 * (1 + np.max(np.abs(b.x0))))
            assert a.phi.shape == b.phi.shape


def test_rank_deficient_observability_is_never_unique():
    # the oracle shapes, plus the default horizon n on raw weights, where
    # the late rows of O (spectral radius ~4) swamp the early ones
    shapes = [(n, k, f, steps) for n, k, f, steps, _ in ORACLE_SHAPES]
    shapes += [(14, 5, 2, 14), (16, 4, 1, 16), (20, 3, 1, 20), (24, 3, 1, 24)]
    deficient = 0
    for n, k, f, steps in shapes:
        g, W, x0, states = single_fault_run(n, k, steps, 0)
        for used in range(1, steps + 1):
            sv = np.linalg.svd(observation_model(W, 0, used)[0], compute_uv=False)
            if np.count_nonzero(sv > RANK_RCOND * sv[0]) < n:
                deficient += 1
                result = recover_initial_state(observe(g, states, 0, used), W, f)
                assert not result.unique and result.x0 is None, (n, k, used)
    assert deficient > len(shapes)  # beyond the single-step traces alone


def test_fault_imitating_an_initial_state_is_never_unique():
    # vehicle 6 of P(8, 3) reaches the others only through vehicle 4's
    # update, so a fault of vehicle 4 at step 0 looks exactly like another
    # initial state of vehicle 6: O has full rank, yet the measurements
    # cannot tell x0 with vehicle 4 faulty from x0 + (1.5 / 0.7) e_6 with
    # no fault, and every candidate fits them with phi = 0
    g = build_knn_platoon(PlatoonSpec(8, 3))
    w = random_weights(g, 0).matrix.copy()
    w[:, 6] = 0.0
    w[4, 6] = 0.7
    W = WeightMatrix(g, w)
    x0 = np.random.default_rng([0, 1]).uniform(-5, 5, 8)
    shifted = x0 + 1.5 / 0.7 * np.eye(8)[6]
    faulty = simulate_faulty(W, x0, FaultScenario(faulty=(4,), phi={(4, 0): 1.5}, horizon=8))
    clean = simulate_faulty(W, shifted, FaultScenario(faulty=(), phi={}, horizon=8))
    trace = observe(g, faulty, 0)
    assert np.max(np.abs(trace.y - observe(g, clean, 0).y)) < 1e-12
    sv = np.linalg.svd(observation_model(W, 0, 9)[0], compute_uv=False)
    assert np.count_nonzero(sv > RANK_RCOND * sv[0]) == 8
    result = recover_initial_state(trace, W, 1)
    assert {(), (4,)} <= {c.fault_set for c in result.candidates}
    assert not result.unique and result.x0 is None


def test_unique_recovery_is_right_at_default_horizon():
    # on P(n, 3) with random_weights (spectral radius ~4) and horizon n, the
    # residual tolerance grows like 4^n and keeps every candidate; recovery
    # used to report `unique` there with errors of several units
    for n in range(12, 31):
        for seed in range(5):
            g, W, x0, states = single_fault_run(n, 3, n, seed)
            result = recover_initial_state(observe(g, states, 0), W, 1)
            if result.unique:
                assert np.max(np.abs(result.x0 - x0)) < 1e-6, (n, seed)


def test_max_tolerable_faults_table():
    assert [max_tolerable_faults(k) for k in (1, 2, 3, 4, 5, 7)] == [0, 0, 1, 1, 2, 3]
    with pytest.raises(ValueError):
        max_tolerable_faults(0)


# -------------------------------------------------------------- packet drop


def test_packet_drop_equivalence_bitwise_on_dyadic_weights():
    # weights in {0.5, 1.0} and integer x0 keep every product exact in
    # binary floating point, so the equivalence must be bit-for-bit
    g = build_knn_platoon(PlatoonSpec(8, 3))
    rng = np.random.default_rng(21)
    w = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            if i == j or g.has_edge(i, j):
                w[i, j] = rng.choice([0.5, 1.0])
    W = WeightMatrix(g, w)
    x0 = rng.integers(-8, 9, size=8).astype(np.float64)
    scenario, direct = packet_drop_scenario(W, x0, vehicle=3, horizon=10)
    replayed = simulate_faulty(W, x0, scenario)
    assert np.array_equal(direct, replayed)


def test_packet_drop_equivalence_generic_weights():
    g, W, x0 = make_setup(10, 3, 5)
    scenario, direct = packet_drop_scenario(W, x0, vehicle=6, horizon=10)
    replayed = simulate_faulty(W, x0, scenario)
    scale = 1.0 + np.max(np.abs(direct))
    assert np.max(np.abs(direct - replayed)) <= 1e-12 * scale
    # the drop really silences the neighbors: dropped vehicle evolves by its
    # self-weight only
    for k in range(10):
        assert abs(direct[k + 1, 6] - W.matrix[6, 6] * direct[k, 6]) <= 1e-12 * scale


def test_packet_drop_vehicle_steps_by_its_self_weight_exactly():
    # the stepped matrix keeps only w_vv in the dropped vehicle's row, so no
    # neighbour term leaves a rounding residue in its state
    for seed in range(1, 21):
        _, W, x0 = make_setup(10, 3, seed)
        _, states = packet_drop_scenario(W, x0, vehicle=6, horizon=10)
        assert np.array_equal(states[1:, 6], W.matrix[6, 6] * states[:-1, 6])
