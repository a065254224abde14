"""Purpose-keyed random substreams.

Traffic, shadowing, and placement draws must come from independent generators
derived from one master seed, so that changing the gateway layout never
perturbs the traffic timeline of a paired run.  Keys are hashed with SHA-256,
not Python's salted ``hash``, to keep streams stable across processes.

A substream is ``default_rng(SeedSequence(words))`` with ``words`` the eight
little-endian uint32 words of the SHA-256 digest of the ``"\\x1f"``-joined
keys.  The derivation below reproduces numpy's SeedSequence pool mixing,
``generate_state(4, uint64)`` and PCG64 seeding (O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) as column operations, so a simulation derives the states of
all its devices' substreams in one pass instead of one SeedSequence each.
"""

from __future__ import annotations

import hashlib

import numpy as np

# numpy's SeedSequence constants (pool of 4 uint32 words).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashes(value: np.ndarray, const: int, mult: int):
    """One SeedSequence hash step per column entry: return the hashed column
    and the next hash constant (the constant does not depend on the data)."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(_XSHIFT)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """PCG64 states of ``default_rng(SeedSequence(row))`` for every row of an
    (n, 8) uint32 entropy array."""
    const = _INIT_A
    pool = []
    for j in range(_POOL):
        word, const = _hashes(entropy[:, j], const, _MULT_A)
        pool.append(word)
    # Mix all pool words together so late words affect earlier ones.
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashes(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    # Mix each remaining entropy word into every pool word.
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            word, const = _hashes(entropy[:, src], const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)

    # generate_state(4, uint64): eight uint32 words cycling over the pool.
    const = _INIT_B
    words = np.empty((len(entropy), 2 * _POOL), dtype="<u4")
    for j in range(2 * _POOL):
        words[:, j], const = _hashes(pool[j % _POOL], const, _MULT_B)

    # pcg_setseq_128_srandom_r on (state, increment) = (v0 v1, v2 v3), high word first.
    states = []
    for v0, v1, v2, v3 in words.view("<u8").tolist():
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        state = ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _states(prefix: str, suffixes) -> list[dict]:
    """PCG64 states of the substreams keyed by ``prefix + suffix`` for each suffix."""
    head = hashlib.sha256(prefix.encode("utf-8"))
    digests = []
    for suffix in suffixes:
        sha = head.copy()
        sha.update(suffix.encode("utf-8"))
        digests.append(sha.digest())
    return _pcg64_states(np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 8))


def substream_states(*keys, last) -> list[dict]:
    """Bit-generator states of ``substream(*keys, k)`` for every ``k`` in ``last``.

    Assign one to ``generator.bit_generator.state`` of any PCG64 generator to
    draw that substream; reading the attribute back gives a state to resume from.
    """
    return _states("".join(str(k) + "\x1f" for k in keys), [str(k) for k in last])


def substream(*keys) -> np.random.Generator:
    """Return a generator seeded deterministically from the given keys.

    Keys may be ints or strings; the same key tuple always yields the same
    stream, and distinct tuples yield statistically independent streams.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = _states("", ["\x1f".join(str(k) for k in keys)])[0]
    return rng
