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


def effective_rates(mech: Mechanism, ch: ChannelParams) -> tuple[float, float]:
    """Reception rates after composing the coin with each erasure link."""
    return mech.p * ch.p1, mech.p * ch.p2
