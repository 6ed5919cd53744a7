import math

import numpy as np
import pytest

from visionmpc.memory import AugmentedMemory, MemoryEntry, Observation
from visionmpc.vehicle import VehicleState


def entry(t, x=0.0):
    obs = Observation(rays=np.full(4, 1.0), timestamp=t)
    return MemoryEntry(observation=obs, state=VehicleState(x, 0.0, 0.0))


def test_push_to_empty():
    mem = AugmentedMemory(capacity=3)
    mem.push(entry(0.0))
    assert len(mem) == 1


def test_capacity_eviction():
    mem = AugmentedMemory(capacity=3)
    for t in range(4):
        mem.push(entry(float(t), x=float(t)))
    assert len(mem) == 3
    assert [e.timestamp for e in mem.window()] == [1.0, 2.0, 3.0]


def test_non_monotonic_timestamp_rejected():
    mem = AugmentedMemory(capacity=3)
    mem.push(entry(1.0))
    with pytest.raises(ValueError):
        mem.push(entry(1.0))
    with pytest.raises(ValueError):
        mem.push(entry(0.5))


def test_window_tail_in_order():
    mem = AugmentedMemory(capacity=3)
    for t in range(5):
        mem.push(entry(float(t)))
    got = mem.window()
    assert [e.timestamp for e in got] == [2.0, 3.0, 4.0]


def test_window_pads_with_oldest():
    mem = AugmentedMemory(capacity=4)
    e1, e2 = entry(1.0), entry(2.0)
    mem.push(e1)
    mem.push(e2)
    got = mem.window()
    assert got == [e1, e1, e1, e2]


def test_window_on_empty_raises():
    mem = AugmentedMemory(capacity=2)
    with pytest.raises(ValueError):
        mem.window()


def test_window_length_exact_for_random_push_sequences():
    rng = np.random.default_rng(5)
    mem = AugmentedMemory(capacity=6)
    t = 0.0
    for _ in range(40):
        t += float(rng.uniform(0.01, 1.0))
        mem.push(entry(t))
        window = mem.window()
        stamps = [e.timestamp for e in window[-len(mem):]]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)
        assert len(mem) <= 6
        assert len(window) == 6


def test_entry_timestamp_is_its_observations():
    obs = Observation(rays=np.ones(3), timestamp=1.0)
    assert MemoryEntry(observation=obs, state=VehicleState(0, 0, 0)).timestamp == 1.0
    with pytest.raises(TypeError):
        MemoryEntry(observation=obs, state=VehicleState(0, 0, 0), timestamp=2.0)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(rays=np.array([1.0, 0.0]), timestamp=0.0)
    with pytest.raises(ValueError):
        Observation(rays=np.array([]), timestamp=0.0)
    obs = Observation(rays=np.ones(2), timestamp=0.0)
    with pytest.raises(ValueError):
        obs.rays[0] = 5.0  # read-only snapshot


@pytest.mark.parametrize(
    "rays",
    [[1.0, math.nan], [1.0, math.inf], [-math.inf, 1.0], [2.0, -0.5], [[1.0, 2.0], [3.0, 4.0]]],
    ids=["nan", "+inf", "-inf", "negative", "2-D"],
)
def test_observation_refuses_invalid_rays(rays):
    with pytest.raises(ValueError):
        Observation(rays=np.array(rays), timestamp=0.0)


@pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
def test_observation_refuses_a_non_finite_timestamp(timestamp):
    with pytest.raises(ValueError):
        Observation(rays=np.ones(3), timestamp=timestamp)


def test_observation_accepts_a_list_of_ints():
    obs = Observation(rays=[1, 2, 3], timestamp=0.0)
    assert obs.rays.dtype == np.float64 and obs.rays.tolist() == [1.0, 2.0, 3.0]


def test_observation_keeps_its_own_copy_of_the_rays():
    source = np.array([1.0, 2.0, 3.0])
    obs = Observation(rays=source, timestamp=0.0)
    source[0] = 9.0
    assert obs.rays.tolist() == [1.0, 2.0, 3.0] and not np.shares_memory(obs.rays, source)
