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
spawn_key=(stream_id,))``, and seeds and stream ids are read as numpy reads
a seed, through ``operator.index``. Philox is counter-based, so the key
alone fixes a stream: one bit generator re-keyed with a zero counter and
an empty buffer (:func:`_restarts`) replays stream after stream, which is
how a simulated trace reaches streams 1-4 (:meth:`RngStream._switch`).
The Monte Carlo replications keep their streams 5+k but are counted on raw
words against integer thresholds, see :func:`_replication_counts`. Their
keys start from numpy's own ``SeedSequence(seed)`` pool; only the stream
ids are mixed in here (:func:`_philox_keys`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

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


def _index(value, name: str) -> int:
    """``value`` as a Python int, read the way numpy reads a seed
    (``operator.index``): an integer, never truncated, so ``1.9`` raises.
    Seeds, stream ids, horizons and run counts are read this way."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


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
        self.seed = _index(seed, "seed")
        self.stream_id = _index(stream_id, "stream_id")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        if self.stream_id < 0:
            raise ValidationError(f"stream_id must be nonnegative, got {stream_id}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def _switch(self, stream_id: int) -> None:
        """Move to the start of stream ``stream_id`` under the same seed, as
        ``RngStream(seed, stream_id)`` starts, by re-keying this stream's
        Philox (:func:`_restarts`) with that stream's key,
        ``SeedSequence(seed, spawn_key=(stream_id,)).generate_state(2,
        np.uint64)``: a fraction of the cost of a new stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(stream_id,))
        next(_restarts(self._gen.bit_generator, [ss.generate_state(2, np.uint64).tolist()]))
        self.stream_id = stream_id

    def uniforms(self, size) -> np.ndarray:
        return self._gen.random(size)

    def standard_normals(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _restarts(bitgen: np.random.Philox, keys) -> Iterator[np.random.Philox]:
    """``bitgen`` restarted on each Philox key of ``keys`` in turn, two
    64-bit words as Python ints: a zero counter and an empty buffer, where
    a new ``Philox(key=key)`` starts. Philox is counter-based, so the key
    alone fixes the draws the caller makes before it asks for the next.
    One state dict, built once, takes each key (building one per key
    costs twice the setter), and the setter reads each word by index,
    which is cheaper on a list than on a uint64 array."""
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield bitgen


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(word: np.ndarray, const: int, mult: int):
    """One SeedSequence hash step on a uint32 array, which wraps mod 2**32
    like the C code; returns (hashed, next const). The constant sequence
    depends on no data, so it stays a Python int."""
    nxt = (const * mult) & _MASK32
    word = (word ^ const) * nxt
    return word ^ (word >> 16), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    word = x * _MIX_MULT_L - y * _MIX_MULT_R
    return word ^ (word >> 16)


def _philox_keys(seed: int, first_stream: int, count: int) -> np.ndarray:
    """Philox keys of streams first_stream..first_stream+count-1, shape (count, 2).

    Row r equals ``SeedSequence(seed, spawn_key=(first_stream + r,))
    .generate_state(2, np.uint64)``. That sequence mixes the seed's words
    into its pool exactly as ``SeedSequence(seed)`` does, so the pool is
    numpy's; only the stream id, the last entropy word, and the output
    hashes that follow it are mixed here, as uint32 arrays over the
    streams. Stream ids must be below 2**32 (one spawn-key word).
    """
    ids = np.arange(first_stream, first_stream + count, dtype=np.uint32)
    # numpy's pool phase hashes 16 times (each of the first 4 seed words,
    # then all to all) and 4 times per seed word past the 4th, so the hash
    # constant resumes at _INIT_A * _MULT_A**(4 * max(4, words)) mod 2**32
    words = -(-seed.bit_length() // 32)
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(_POOL_SIZE, words), 2**32) & _MASK32
    pool = []
    for word in np.random.SeedSequence(seed).pool[:, None]:
        hashed, const = _hash(ids, const, _MULT_A)
        pool.append(_mix(word, hashed))

    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hash(word, const, _MULT_B)
        state.append(word)
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


# Rows per block of replication words: memory stays O(64 size) at any count.
# At size 300, 64 rows count as fast as 256 and keep the peak RSS where a
# row at a time kept it; 256 rows added about 0.6 MB.
_BLOCK_ROWS = 64


def _replication_counts(seed: int, first_stream: int, count: int, size: int,
                        rates) -> np.ndarray:
    """Receptions per step of streams first_stream..first_stream+count-1, per rate.

    Returns an int64 array of shape (len(rates), size) whose entry [i, k]
    counts the r < count with ``RngStream(seed, first_stream + r)
    .uniforms(size)[k] < rates[i]``, exactly, without forming a float:
    numpy draws a uniform from Philox as ``(word >> 11) * 2**-53``, and for
    an integer j, ``j < rate * 2**53`` holds exactly when
    ``j < ceil(rate * 2**53)``, a product that is exact in binary64 for
    rates in [0, 1]. So a raw 64-bit word receives exactly when it is below
    ``ceil(rate * 2**53) << 11``; at rate 1 that limit is 2**64, above every
    word.

    Philox is counter-based, so a stream is fixed by its key alone: all keys
    come from one pass (:func:`_philox_keys`), and one bit generator is
    re-keyed per row (:func:`_restarts`), where RngStream would build a
    SeedSequence, a Philox and a Generator each. Rows of raw words are
    stacked at most 64 at a time into one reused buffer and counted a
    block at a time.
    """
    seed, first_stream = _index(seed, "seed"), _index(first_stream, "first_stream")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if first_stream < 0 or first_stream + count > 2**32:
        raise ValidationError(
            f"stream ids must lie in [0, 2**32), got {first_stream}..{first_stream + count - 1}"
        )
    # None marks rate 1, whose limit 2**64 a uint64 cannot hold
    limits = [math.ceil(rate * 2**53) << 11 for rate in rates]
    limits = [None if limit == 2**64 else np.uint64(limit) for limit in limits]
    counts = np.zeros((len(limits), size), dtype=np.int64)
    keys = _philox_keys(seed, first_stream, count)
    bitgen = np.random.Philox(key=0)
    buffer = np.empty((min(count, _BLOCK_ROWS), size), dtype=np.uint64)
    for lo in range(0, count, _BLOCK_ROWS):
        words = [row.random_raw(size)
                 for row in _restarts(bitgen, keys[lo:lo + _BLOCK_ROWS].tolist())]
        block = buffer[:len(words)]
        np.concatenate(words, out=block.reshape(-1))
        for received, limit in zip(counts, limits):
            if limit is None:
                received += len(block)
            else:
                # a block's counts fit int16, whose sum is about three
                # times as fast as count_nonzero's intp one
                received += (block < limit).sum(axis=0, dtype=np.int16)
    return counts


def effective_rates(mech: Mechanism, ch: ChannelParams) -> tuple[float, float]:
    """Reception rates after composing the coin with each erasure link."""
    return mech.p * ch.p1, mech.p * ch.p2
