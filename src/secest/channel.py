"""Transmission coin, erasure links, and reproducible random streams.

The sensor flips one coin per step: with probability p it transmits the
measurement, otherwise it withholds it. Each transmitted packet then crosses
two independent erasure links, reaching the intended receiver with
probability p1 and the undesired one with probability p2. The composed
reception indicators are Bernoulli with the effective rates (p*p1, p*p2).

Randomness is organized as numbered counter-based streams so that a run is
citable: stream 0 drives process noise, 1 measurement noise, 2 the
transmission coin, 3 the intended receiver's erasures, 4 the eavesdropper's
erasures, and 5+k the k-th Monte Carlo replication. Fixing (seed, stream_id)
fixes the draw sequence bit-for-bit, independent of platform and of how many
other streams are consumed, which is what lets a simulation replay the same
noise and erasure sample while only the withholding probability changes.

A stream's Philox key is numpy's ``SeedSequence(seed,
spawn_key=(stream_id,))``. The Monte Carlo replications keep their streams
5+k, but derive all of their keys in one vectorized pass of the same
algorithm and re-key a single Philox generator per replication, instead of
building one ``RngStream`` each. A re-key writes the replication's two key
words, as Python ints, into one state dict per call and assigns it; the
draws fill blocks of at most 64 rows of one reused buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

STREAM_PROCESS_NOISE = 0
STREAM_MEASUREMENT_NOISE = 1
STREAM_MECHANISM = 2
STREAM_USER_ERASURE = 3
STREAM_EAVESDROPPER_ERASURE = 4
STREAM_MC_RUN_BASE = 5


def _check_probability(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ChannelParams:
    """Per-packet reception probabilities of the two receivers."""

    p1: float
    p2: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_probability(self.p1, "p1"))
        object.__setattr__(self, "p2", _check_probability(self.p2, "p2"))


@dataclass(frozen=True)
class Mechanism:
    """The withholding policy: transmit each packet with probability p."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_probability(self.p, "p"))


class RngStream:
    """One named substream of a counter-based generator.

    Streams with the same (seed, stream_id) produce identical sequences;
    distinct stream_ids under one seed are statistically independent. Draws
    advance the stream state.
    """

    def __init__(self, seed: int, stream_id: int):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        if self.stream_id < 0:
            raise ValidationError(f"stream_id must be nonnegative, got {stream_id}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def uniforms(self, size) -> np.ndarray:
        return self._gen.random(size)

    def standard_normals(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(word: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on uint32 words; returns (hashed, next const).

    The constant sequence depends on no data, so it stays a Python int; the
    words are uint32 arrays, which wrap mod 2**32 like the C code.
    """
    nxt = (const * mult) & _MASK32
    word = (word ^ np.uint32(const)) * np.uint32(nxt)
    return word ^ (word >> np.uint32(16)), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    word = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return word ^ (word >> np.uint32(16))


def _philox_keys(seed: int, first_stream: int, count: int) -> np.ndarray:
    """Philox keys of streams first_stream..first_stream+count-1, shape (count, 2).

    Row r equals ``SeedSequence(seed, spawn_key=(first_stream + r,))
    .generate_state(2, np.uint64)``, computed for every stream at once: each
    hash step is one array operation, and the seed's words broadcast against
    the stream ids. Stream ids must be below 2**32 (one spawn-key word).
    """
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & _MASK32)
    # A spawn key pads the seed's words with zeros to the pool size.
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(first_stream, first_stream + count, dtype=np.uint32))

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, const = _hash(extra, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)

    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hash(word, const, _MULT_B)
        state.append(word)
    state = np.stack(np.broadcast_arrays(*state), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


# Rows per block of replication uniforms: memory stays O(64 size) at any count.
# At size 300, 64 rows count as fast as 256 and keep the peak RSS where a
# row at a time kept it; 256 rows added about 0.6 MB.
_BLOCK_ROWS = 64


def _replication_uniforms(seed: int, first_stream: int, count: int, size: int):
    """Yield ``RngStream(seed, first_stream + r).uniforms(size)`` for r < count, in blocks.

    Each block is a (b, size) array of consecutive rows, b <= 64, drawn into
    one reused buffer, so a block is only valid until the next is requested.
    Philox is counter-based, so a stream is fixed by its key alone: all keys
    come from one vectorized pass (:func:`_philox_keys`), and one generator
    is re-keyed per row with a zero counter and an empty buffer, where
    RngStream would build a SeedSequence, a Philox and a Generator each.
    The re-key assigns the row's two key words, as Python ints, into one
    state dict built per call.
    Arguments are checked when the first block is requested.
    """
    seed, first_stream = int(seed), int(first_stream)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if first_stream < 0 or first_stream + count > 2**32:
        raise ValidationError(
            f"stream ids must lie in [0, 2**32), got {first_stream}..{first_stream + count - 1}"
        )
    keys = _philox_keys(seed, first_stream, count).tolist()
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # One state dict of Python ints, re-keyed per row: the setter reads each
    # word by index, which is cheaper on a list than on a uint64 array.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    buffer = np.empty((min(count, _BLOCK_ROWS), size))
    for lo in range(0, count, _BLOCK_ROWS):
        block = buffer[:min(_BLOCK_ROWS, count - lo)]
        for key, row in zip(keys[lo:], block):
            state["state"]["key"] = key
            bitgen.state = state
            gen.random(out=row)
        yield block


def effective_rates(mech: Mechanism, ch: ChannelParams) -> tuple[float, float]:
    """Reception rates after composing the coin with each erasure link."""
    return mech.p * ch.p1, mech.p * ch.p2
