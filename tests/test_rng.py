"""Differential tests: the vectorised substream derivation against numpy's own.

The oracle is ``tests.reference_sim.substream``, the formula as numpy spells
it: ``default_rng(SeedSequence(words))`` with ``words`` the little-endian
uint32 words of the SHA-256 digest of the keys.  ``hydrolora.rng`` must give
the same PCG64 states, and so the same draws, for every key tuple the program
and the benchmark pass, every device index of the 4419-node network, and seeds
beyond the uint32 and int64 ranges.
"""

import numpy as np
import pytest

from hydrolora.rng import substream, substream_states
from tests.reference_sim import substream as numpy_substream

SEEDS = (0, 1, -1, 2**31, 2**63, 10**30)
PAPER_DEVICES = 4419
# Every key tuple the program and perfbench/ pass, then text edge cases.
KEY_TUPLES = [keys for seed in SEEDS for keys in (
    (seed, "traffic", 0), (seed, "traffic", PAPER_DEVICES - 1), (seed, "shadowing"), (seed, "synth"),
    (seed, "perfbench", "hydraulics"))] + [
    (), ("",), ("\x1f",), ("ü\x1fé", 5), ("日本語", "\x1f\x1f", -3), ("\U0001f4a7", "traffic", 7)]


def first_draws(rng):
    return (rng.exponential(300.0, size=256), rng.integers(0, 8, size=256), rng.uniform(0.0, 300.0, size=256))


def assert_same_stream(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state
    for a, b in zip(first_draws(ours), first_draws(theirs)):
        assert np.array_equal(a, b)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("keys", KEY_TUPLES, ids=repr)
def test_substream_matches_numpy(keys):
    assert_same_stream(substream(*keys), numpy_substream(*keys))


@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_states_match_numpy_for_every_paper_device(seed):
    states = substream_states(seed, "traffic", last=range(PAPER_DEVICES))
    assert len(states) == PAPER_DEVICES
    for i, state in enumerate(states):
        assert state == numpy_substream(seed, "traffic", i).bit_generator.state, i
    rng = np.random.Generator(np.random.PCG64(0))
    for i in range(0, PAPER_DEVICES, 491):
        rng.bit_generator.state = states[i]
        assert_same_stream(rng, numpy_substream(seed, "traffic", i))


def test_states_take_any_key_text():
    last = ["", "\x1f", "ü", -1, 10**30, "日本語"]
    assert substream_states("é\x1f", 2**63, last=last) == \
           [numpy_substream("é\x1f", 2**63, k).bit_generator.state for k in last]
    assert substream_states(0, "traffic", last=[]) == []


def test_swapped_state_resumes_each_stream():
    """One generator drawing interleaved blocks, its state swapped per stream,
    gives each stream's own draws; odd-sized 32-bit blocks leave a buffered
    half word (``has_uint32``) that the next block must use."""
    states = substream_states(5, "traffic", last=[0, 1])
    rng = np.random.Generator(np.random.PCG64(0))
    own = [numpy_substream(5, "traffic", i) for i in (0, 1)]
    buffered = False
    for _ in range(3):
        for i in (0, 1):
            rng.bit_generator.state = states[i]
            assert np.array_equal(rng.integers(0, 3, size=255, dtype=np.uint32),
                                  own[i].integers(0, 3, size=255, dtype=np.uint32))
            buffered |= bool(rng.bit_generator.state["has_uint32"])
            assert np.array_equal(rng.exponential(2.0, size=3), own[i].exponential(2.0, size=3))
            states[i] = rng.bit_generator.state
            assert states[i] == own[i].bit_generator.state
    assert buffered
