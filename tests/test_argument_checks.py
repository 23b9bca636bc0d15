"""Argument checks of the library entry points that the CLI never trips,
because it validates its documents first."""

import math

import numpy as np
import pytest

from platoonnet import estimation
from platoonnet.connectivity import robustness
from platoonnet.consensus import SeededRandom, is_f_local, run_wmsr
from platoonnet.estimation import (
    FaultScenario,
    max_tolerable_faults,
    observation_model,
    observe,
    packet_drop_scenario,
    random_weights,
    recover_initial_state,
    simulate_faulty,
)
from platoonnet.formation import Disturbance, build_formation, hinf_closed_form, simulate_formation
from platoonnet.graph import PlatoonSpec, build_knn_platoon

G = build_knn_platoon(PlatoonSpec(5, 2))
W = random_weights(G, 3)
STATES = simulate_faulty(W, np.arange(5.0), FaultScenario(faulty=(), phi={}, horizon=4))
SYSTEM = build_formation(G, 5.0, 10.0)


@pytest.mark.parametrize("call, message", [
    (lambda: run_wmsr(G, np.zeros(5), [], f=-1), r"^f must be >= 0 and an integer, got -1$"),
    (lambda: simulate_faulty(W, np.zeros(4), FaultScenario(faulty=(), phi={}, horizon=2)),
     r"^x0 must have shape \(5,\)$"),
    (lambda: estimation._stacked_maps(W, (0, 1, 2), 0),
     r"^length must be >= 1 and an integer, got 0$"),
    (lambda: recover_initial_state(observe(G, STATES, 0), W, -1),
     r"^f must be >= 0 and an integer, got -1$"),
    (lambda: simulate_formation(SYSTEM, T=1.0, record_every=0),
     r"^record_every must be >= 1 and an integer, got 0$"),
    (lambda: simulate_formation(SYSTEM, Disturbance(cosine=np.ones(4)), T=1.0),
     r"^disturbance parts must have shape \(5,\)$"),
    (lambda: hinf_closed_form(math.nan, 5.0, 10.0), r"^lambda2 must be positive"),
    (lambda: hinf_closed_form(math.inf, 5.0, 10.0), r"^lambda2 must be positive"),
    (lambda: FaultScenario(faulty=(3,), phi={(3, 0.5): 9.0}, horizon=3),
     r"^phi step must be an integer, got 0\.5$"),
    (lambda: FaultScenario(faulty=(1,), phi={(True, 0): 9.0}, horizon=3),
     r"^vehicle id must be an integer, got True$"),
    (lambda: FaultScenario(faulty=(), phi={}, horizon=True),
     r"^horizon must be >= 1 and an integer, got True$"),
    (lambda: FaultScenario(faulty=(), phi={}, horizon=2.5),
     r"^horizon must be >= 1 and an integer, got 2\.5$"),
    (lambda: run_wmsr(G, np.zeros(5), [], f=0, T=2.5),
     r"^T must be >= 0 and an integer, got 2\.5$"),
    (lambda: simulate_formation(SYSTEM, T=math.inf), r"^T and h must be positive and finite$"),
    (lambda: simulate_formation(SYSTEM, T=1.0, h=math.nan),
     r"^T and h must be positive and finite$"),
    (lambda: observe(G, STATES, 0, -1), r"^length must be >= 1 and an integer, got -1$"),
    (lambda: observe(G, STATES, 0, True), r"^length must be >= 1 and an integer, got True$"),
    (lambda: run_wmsr(G, np.arange(5.0), [], f=1.5, T=3),
     r"^f must be >= 0 and an integer, got 1\.5$"),
    (lambda: run_wmsr(G, np.arange(5.0), [], f=True, T=3),
     r"^f must be >= 0 and an integer, got True$"),
    (lambda: recover_initial_state(observe(G, STATES, 0), W, 1.5),
     r"^f must be >= 0 and an integer, got 1\.5$"),
    (lambda: recover_initial_state(observe(G, STATES, 0), W, True),
     r"^f must be >= 0 and an integer, got True$"),
    (lambda: packet_drop_scenario(W, 3.0, 0, 3), r"^x0 must have shape \(5,\)$"),
    (lambda: packet_drop_scenario(W, np.zeros(5), 0, 2.5),
     r"^horizon must be >= 1 and an integer, got 2\.5$"),
    (lambda: simulate_formation(SYSTEM, T=1.0, record_every=2.5),
     r"^record_every must be >= 1 and an integer, got 2\.5$"),
    (lambda: simulate_formation(SYSTEM, T=1.0, record_every=True),
     r"^record_every must be >= 1 and an integer, got True$"),
    (lambda: observation_model(W, 0, 2.5), r"^length must be >= 1 and an integer, got 2\.5$"),
    (lambda: max_tolerable_faults(2.5), r"^k must be >= 1 and an integer, got 2\.5$"),
    (lambda: max_tolerable_faults(True), r"^k must be >= 1 and an integer, got True$"),
    (lambda: is_f_local(G, [2], 1.5), r"^f must be >= 0 and an integer, got 1\.5$"),
    (lambda: is_f_local(G, [2], -1), r"^f must be >= 0 and an integer, got -1$"),
    (lambda: SeededRandom(0.0, 1.0, seed=2.5), r"^seed must be >= 0 and an integer, got 2\.5$"),
    (lambda: SeededRandom(0.0, 1.0, seed=-1), r"^seed must be >= 0 and an integer, got -1$"),
    (lambda: random_weights(G, 2.5), r"^seed must be >= 0 and an integer, got 2\.5$"),
    (lambda: random_weights(G, True), r"^seed must be >= 0 and an integer, got True$"),
    (lambda: robustness(G, limit=True), r"^limit must be >= 0 and an integer, got True$"),
], ids=["wmsr-f", "faulty-x0", "stacked-length", "recover-f", "record-every", "disturbance",
        "lambda2-nan", "lambda2-inf", "phi-step", "phi-vehicle-bool", "horizon-bool",
        "horizon-float", "wmsr-T", "formation-T", "formation-h", "observe-length-negative",
        "observe-length-bool", "wmsr-f-float", "wmsr-f-bool", "recover-f-float",
        "recover-f-bool", "packet-drop-x0", "packet-drop-horizon", "record-every-float",
        "record-every-bool", "observation-length", "max-faults-float", "max-faults-bool",
        "f-local-float", "f-local-negative", "seeded-random-float", "seeded-random-negative",
        "weights-seed-float", "weights-seed-bool", "robustness-limit-bool"])
def test_library_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
