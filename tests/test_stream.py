"""The in-repo seeded streams against numpy's own, which stay the oracle:
SeedSequence words, and default_rng(...).uniform one draw at a time and in
bulk, bit for bit."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonnet import stream
from platoonnet.cli import scenario_x0
from platoonnet.consensus import SeededRandom

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURE_SEEDS = sorted({doc["seed"] for doc in (json.loads(p.read_text()) for p in SCENARIOS.glob("*.json"))
                        if "seed" in doc})

# word boundaries, a value of many words, and every shape the package draws
# from: a seed, (seed, step), [seed, 1] and (seed, 2, vehicle)
ENTROPIES = [
    0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**200 + 17,
    *FIXTURE_SEEDS,
    *[(seed, step) for seed in (0, 5, 77, 2**32 - 1) for step in (0, 1, 499, 2**32)],
    *[[seed, 1] for seed in (*FIXTURE_SEEDS, 0, 3, 2**40)],
    *[(seed, 2, vehicle) for seed in FIXTURE_SEEDS for vehicle in range(6)],
    (), [0], [[1, 2], 3], (1, 2, 3, 4, 5, 6, 7),
]


def assert_matches_numpy(entropy, low=-3.5, high=7.25, size=17):
    assert stream.generate_state(entropy, 1) == np.random.SeedSequence(entropy).generate_state(1).tolist()
    assert stream.generate_state(entropy, 9) == np.random.SeedSequence(entropy).generate_state(9).tolist()
    one = stream.uniform(entropy, low, high)
    assert type(one) is float and one == float(np.random.default_rng(entropy).uniform(low, high))
    assert stream.uniform(entropy, low, high, size) == \
        np.random.default_rng(entropy).uniform(low, high, size).tolist()


@pytest.mark.parametrize("entropy", ENTROPIES, ids=repr)
def test_stream_matches_numpy(entropy):
    assert_matches_numpy(entropy)


@settings(max_examples=200, deadline=None)
@given(entropy=st.one_of(st.integers(0, 2**130),
                         st.lists(st.integers(0, 2**70), max_size=7).map(tuple)),
       low=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6), size=st.integers(0, 40))
def test_stream_matches_numpy_on_any_entropy(entropy, low, width, size):
    assert_matches_numpy(entropy, low, low + width, size)


@pytest.mark.parametrize("entropy", [-1, (3, -1), [[0], -5]])
def test_negative_entropy_word_is_refused_as_numpy_refuses_it(entropy):
    with pytest.raises(ValueError, match="expected non-negative integer") as numpy_error:
        np.random.SeedSequence(entropy)
    with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
        stream.generate_state(entropy, 1)
    with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
        stream.uniform(entropy, 0.0, 1.0)


def test_package_draws_equal_numpys_streams():
    # the initial state and the seeded-random adversary, each against the
    # numpy call it replaced (test_estimation checks random_weights so)
    for seed in FIXTURE_SEEDS:
        x0 = scenario_x0(seed, 30, -5.0, 5.0)
        assert x0.dtype == np.float64
        assert np.array_equal(x0, np.random.default_rng([seed, 1]).uniform(-5.0, 5.0, 30))
    strategy = SeededRandom(-10.0, 20.0, seed=4242)
    assert [strategy.value(k) for k in range(50)] == \
        [float(np.random.default_rng((4242, k)).uniform(-10.0, 20.0)) for k in range(50)]
