import math
import re
from pathlib import Path

import numpy as np
import pytest

from platoonnet.consensus import (
    Adversary,
    Constant,
    Ramp,
    SeededRandom,
    Sinusoid,
    is_f_local,
    run_wmsr,
)
from platoonnet.cli import load_consensus_scenario, scenario_x0
from platoonnet.graph import Graph, PlatoonSpec, build_knn_platoon

from helpers import random_graph, set_is_f_local, wmsr_loop, wmsr_update

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_wmsr_update_worked_examples():
    nv = list(enumerate([1.0, 3.0, 5.0, 9.0]))
    assert wmsr_update(4.0, nv, f=1) == pytest.approx(4.0)  # (4+3+5)/3
    nv = list(enumerate([5.0, 6.0, 7.0]))
    assert wmsr_update(4.0, nv, f=1) == pytest.approx(5.0)  # (4+5+6)/3


def test_wmsr_update_f_zero_is_plain_average():
    nv = list(enumerate([2.0, 4.0, 6.0]))
    assert wmsr_update(0.0, nv, f=0) == pytest.approx(3.0)


def test_wmsr_update_equal_values_survive():
    nv = list(enumerate([4.0, 4.0, 9.0]))
    assert wmsr_update(4.0, nv, f=1) == pytest.approx(4.0)


def test_wmsr_update_trims_at_most_available():
    assert wmsr_update(1.0, [(0, 2.0)], f=3) == pytest.approx(1.0)
    assert wmsr_update(1.0, [], f=2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wmsr_update(1.0, [], f=-1)


def test_wmsr_update_order_independent():
    vals = [(0, 7.0), (1, 2.0), (2, 9.5), (3, 2.0), (4, 4.0)]
    out = wmsr_update(5.0, vals, f=2)
    assert out == wmsr_update(5.0, list(reversed(vals)), f=2)
    assert out == wmsr_update(5.0, sorted(vals, key=lambda t: t[1]), f=2)


def test_is_f_local():
    g = build_knn_platoon(PlatoonSpec(10, 3))
    assert is_f_local(g, [4], 1)
    assert is_f_local(g, [0, 9], 1)  # the two ends share no neighbor
    assert not is_f_local(g, [4, 5], 1)  # vehicle 3 sees both
    assert is_f_local(g, [4, 5], 2)
    assert is_f_local(g, [], 0)


def test_is_f_local_refuses_non_integral_ids():
    # 2.7 would be truncated to vehicle 2; numpy integers are ids
    g = build_knn_platoon(PlatoonSpec(5, 1))
    with pytest.raises(ValueError, match=r"^vehicle id must be an integer, got 2\.7$"):
        is_f_local(g, [2.7], 0)
    assert is_f_local(g, [np.int64(2)], 1) and not is_f_local(g, [np.int32(2)], 0)


def test_is_f_local_matches_the_set_count():
    # adversary sets from empty to all vehicles but one, on random graphs
    # connected or not, given as a list and as a numpy array
    rng = np.random.default_rng(7)
    graphs = [random_graph(rng, 1, 12) for _ in range(60)] + [random_graph(rng, 70, 90)]
    for g in graphs:
        for size in range(g.n):
            adversaries = rng.choice(g.n, size, replace=False)
            for f in range(4):
                expected = set_is_f_local(g, adversaries, f)
                assert is_f_local(g, adversaries.tolist(), f) == expected
                assert is_f_local(g, adversaries, f) == expected
        for bad in (-1, g.n):
            with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n={g.n}$"):
                is_f_local(g, [0, bad], 1)


# ---------------------------------------------------------------- strategies


def test_strategy_values():
    assert Constant(3.5).value(0) == 3.5 == Constant(3.5).value(100)
    r = Ramp(2.0, 0.25)
    assert r.value(0) == 2.0 and r.value(8) == 4.0
    s = Sinusoid(2.0, math.pi / 2)
    assert s.value(0) == pytest.approx(0.0)
    assert s.value(1) == pytest.approx(2.0)
    sr = SeededRandom(-1.0, 1.0, seed=5)
    vals = [sr.value(k) for k in range(10)]
    assert vals == [SeededRandom(-1.0, 1.0, seed=5).value(k) for k in range(10)]
    assert all(-1.0 <= v <= 1.0 for v in vals)
    assert len(set(vals)) > 1
    # random access equals sequential access
    assert sr.value(7) == vals[7]


def test_seeded_random_refuses_an_empty_range():
    with pytest.raises(ValueError, match="low 12.0 is above high -3.0"):
        SeededRandom(12.0, -3.0, seed=5)
    assert SeededRandom(4.5, 4.5, seed=5).value(3) == 4.5  # a point range stays legal


@pytest.mark.parametrize("low, high, width", [(-1e308, 1e308, "inf"), (-math.inf, 0.0, "inf"),
                                              (math.inf, math.inf, "nan"), (0.0, math.nan, "nan")])
def test_seeded_random_refuses_a_range_whose_width_is_not_finite(low, high, width):
    # high - low is the stream's scale: numpy's uniform raised OverflowError on it
    message = f"the width high - low of the range from {low} to {high} is {width}, not a finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SeededRandom(low, high, seed=5)
    assert SeededRandom(-1e307, 1e307, seed=5).value(0) <= 1e307  # the widest ranges stay legal


# ------------------------------------------------------------------- runs


def test_run_without_adversaries_reaches_agreement():
    g = build_knn_platoon(PlatoonSpec(8, 2))
    x0 = np.random.default_rng(0).uniform(0, 10, 8)
    trace = run_wmsr(g, x0, [], f=1, T=400)
    assert trace.values.shape == (401, 8)
    assert trace.normal == tuple(range(8))
    assert trace.converged_at is not None
    final = trace.values[-1]
    assert x0.min() - 1e-9 <= final.min() and final.max() <= x0.max() + 1e-9
    assert trace.spread(400) < 1e-9
    assert trace.safety_violations == ()


def test_adversary_rows_follow_script_from_step_zero():
    g = build_knn_platoon(PlatoonSpec(6, 2))
    x0 = np.zeros(6)
    ramp = Ramp(5.0, 1.0)
    trace = run_wmsr(g, x0, [Adversary(2, ramp)], f=1, T=10)
    assert np.array_equal(trace.values[:, 2], [ramp.value(k) for k in range(11)])
    assert trace.adversaries == (2,)
    assert trace.normal == (0, 1, 3, 4, 5)


def test_ramp_adversary_tolerated_on_3_robust_platoon():
    g = build_knn_platoon(PlatoonSpec(10, 3))
    x0 = np.random.default_rng([11, 1]).uniform(0, 10, 10)
    trace = run_wmsr(g, x0, [Adversary(4, Ramp(8.0, 0.05))], f=1, T=500)
    assert trace.converged_at is not None and trace.converged_at <= 500
    assert trace.safety_violations == ()
    final = trace.values[500, list(trace.normal)]
    normal_x0 = x0[list(trace.normal)]
    assert normal_x0.min() - 1e-9 <= final.min()
    assert final.max() <= normal_x0.max() + 1e-9


def test_overwhelming_adversaries_are_not_f_local_and_block_agreement():
    g = build_knn_platoon(PlatoonSpec(10, 2))
    x0 = np.random.default_rng([11, 1]).uniform(0, 10, 10)
    adv = [Adversary(4, Constant(0.0)), Adversary(5, Constant(10.0))]
    trace = run_wmsr(g, x0, adv, f=1, T=500)
    assert trace.f_local is False
    assert run_wmsr(g, x0, adv, f=2, T=500).f_local is True
    assert trace.converged_at is None
    assert trace.spread(500) > 0.1


def test_run_wmsr_validation():
    g = build_knn_platoon(PlatoonSpec(5, 2))
    x0 = np.zeros(5)
    with pytest.raises(ValueError, match="duplicate"):
        run_wmsr(g, x0, [Adversary(1, Constant(0)), Adversary(1, Constant(1))], f=1)
    with pytest.raises(ValueError, match="^vertex 7 out of range for n=5$"):
        run_wmsr(g, x0, [Adversary(7, Constant(0))], f=1)
    with pytest.raises(ValueError, match="normal vehicle"):
        run_wmsr(g, x0, [Adversary(v, Constant(0)) for v in range(5)], f=1)
    with pytest.raises(ValueError, match="shape"):
        run_wmsr(g, np.zeros(4), [], f=1)
    with pytest.raises(ValueError, match="T must be >= 0"):
        run_wmsr(g, x0, [], f=1, T=-1)


def test_run_wmsr_refuses_a_scripted_value_that_is_not_finite(recwarn):
    # 1e308 + 1e308 overflows: the ramp reads inf from step 2 on
    g = build_knn_platoon(PlatoonSpec(6, 2))
    with pytest.raises(ValueError, match="^adversary 0 broadcasts inf at step 2; "):
        run_wmsr(g, np.zeros(6), [Adversary(0, Ramp(0.0, 1e308))], f=0, T=5)
    with pytest.raises(ValueError, match="^adversary 3 broadcasts nan at step 0; "):
        run_wmsr(g, np.zeros(6), [Adversary(3, Constant(math.nan))], f=0, T=5)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("x0, scripted, message", [
    # vehicle 2 sums both adversaries' 1.7e308 (f = 0 keeps them)
    (np.zeros(6), [1.7e308, 1.7e308], "^vehicle 2 averages to inf at step 1; "),
    (np.zeros(6), [1.7e308, -1.7e308], "^vehicle 3 averages to -inf at step 2; "),
    (np.full(6, 1.7e308), [], "^vehicle 0 averages to inf at step 1; "),
])
def test_run_wmsr_refuses_an_average_that_overflows(recwarn, x0, scripted, message):
    g = build_knn_platoon(PlatoonSpec(6, 2))
    advs = [Adversary(v, Constant(value)) for v, value in enumerate(scripted)]
    with pytest.raises(ValueError, match=message):
        run_wmsr(g, x0, advs, f=0, T=5)
    assert [str(w.message) for w in recwarn] == []


def test_converged_at_matches_tolerance():
    g = build_knn_platoon(PlatoonSpec(8, 3))
    x0 = np.random.default_rng(3).uniform(0, 10, 8)
    trace = run_wmsr(g, x0, [Adversary(1, Constant(5.0))], f=1, T=300, tol=1e-6)
    t = trace.converged_at
    assert t is not None
    assert trace.spread(t) < 1e-6
    if t > 0:
        assert trace.spread(t - 1) >= 1e-6


STRATEGIES = [
    lambda: Constant(25.0),
    lambda: Ramp(5.0, 0.1),
    lambda: Sinusoid(6.0, 0.13),
    lambda: SeededRandom(-10.0, 20.0, seed=77),
]


@pytest.mark.parametrize("n,k,f,n_adv", [(10, 3, 1, 1), (12, 5, 2, 2)])
def test_resilience_property_suite(n, k, f, n_adv):
    # any f-local adversary set on a (2f+1)-robust graph must leave the
    # normal vehicles converging inside their own initial hull
    g = build_knn_platoon(PlatoonSpec(n, k))
    rng = np.random.default_rng([n, k, f])
    for make_strategy in STRATEGIES:
        for _ in range(5):
            x0 = rng.uniform(0, 10, n)
            vehicles = rng.choice(n, size=n_adv, replace=False)
            advs = [Adversary(int(v), make_strategy()) for v in vehicles]
            assert is_f_local(g, [a.vehicle for a in advs], f)
            trace = run_wmsr(g, x0, advs, f=f, T=500)
            assert trace.converged_at is not None, (n, k, [a.vehicle for a in advs])
            assert trace.safety_violations == ()
            normal_x0 = x0[list(trace.normal)]
            final = trace.values[500, list(trace.normal)]
            assert trace.spread(500) < 1e-9
            assert normal_x0.min() - 1e-9 <= final.min()
            assert final.max() <= normal_x0.max() + 1e-9


def _vectorised_runs():
    """(graph, x0, adversaries, f, T) for the equivalence check: both
    consensus fixtures, the property-suite strategies, a set that is not
    f-local, irregular graphs, signed zeros and ties, f at or above every
    degree, and T = 0.  Strategies are pure functions of the step, so both
    runs can share them."""
    for name in ("consensus-ramp-tolerated", "consensus-overwhelmed"):
        g, seed, adversaries, f, T, _ = load_consensus_scenario(str(SCENARIOS / f"{name}.json"))
        yield g, scenario_x0(seed, g.n, 0.0, 10.0), adversaries, f, T
    for n, k, f, n_adv in [(10, 3, 1, 1), (12, 5, 2, 2)]:
        g = build_knn_platoon(PlatoonSpec(n, k))
        rng = np.random.default_rng([n, k, f])
        for make_strategy in STRATEGIES:
            x0 = rng.uniform(0, 10, n)
            vehicles = rng.choice(n, size=n_adv, replace=False)
            yield g, x0, [Adversary(int(v), make_strategy()) for v in vehicles], f, 200
    g = build_knn_platoon(PlatoonSpec(12, 3))
    x0 = np.round(np.random.default_rng(4).uniform(0, 10, 12))  # integer values: many ties
    yield g, x0, [Adversary(5, Sinusoid(8.0, 0.3)), Adversary(6, Constant(-2.0))], 1, 200
    # vertex 0 a star hub of degree 6, vertex 7 isolated: rows of widths 0 to 6
    star = Graph(9, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (5, 8)])
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, -1.0, 0.0, -0.0])
    for f in (0, 1, 2, 6):  # 6: every neighbour value may be trimmed
        yield star, zeros, [], f, 30
        yield star, zeros, [Adversary(3, Constant(-0.0)), Adversary(8, Ramp(-1.0, 0.25))], f, 30
    yield star, zeros, [Adversary(0, Constant(0.0))], 1, 0
    rng = np.random.default_rng(20261020)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        x0 = rng.choice([0.0, -0.0, 1.0, 2.5, -1.0], n)
        vehicles = rng.choice(n, size=int(rng.integers(0, min(3, n - 1) + 1)), replace=False)
        adversaries = [Adversary(int(v), STRATEGIES[int(rng.integers(4))]()) for v in vehicles]
        f, T = (int(x) for x in rng.integers(0, [5, 31]))
        yield Graph(n, edges), x0, adversaries, f, T


def test_run_wmsr_is_bitwise_equal_to_the_scalar_reference():
    for g, x0, adversaries, f, T in _vectorised_runs():
        trace = run_wmsr(g, x0, adversaries, f=f, T=T)
        assert trace.f_local == is_f_local(g, [a.vehicle for a in adversaries], f)
        values, violations, converged_at = wmsr_loop(g, x0, adversaries, f, T)
        assert trace.values.tobytes() == values.tobytes()
        assert list(trace.safety_violations) == violations
        assert trace.converged_at == converged_at
