import numpy as np
import pytest

from secest import (
    ChannelParams,
    Mechanism,
    RngStream,
    ValidationError,
    effective_rates,
    expected_error_curve,
    riccati_map,
    solve_S,
    solve_V,
)
from secest.bounds import feasibility_check
from secest.channel import (
    STREAM_EAVESDROPPER_ERASURE,
    STREAM_MC_RUN_BASE,
    STREAM_MECHANISM,
    STREAM_PROCESS_NOISE,
    _BLOCK_ROWS,
    _replication_uniforms,
)


def test_probability_ranges_enforced(scalar_sys, channel_96):
    # Every entry point that takes a probability rejects it by name.
    named_checks = [
        ("p", lambda v: solve_S(v, channel_96, scalar_sys)),
        ("p", lambda v: solve_V(v, channel_96, scalar_sys)),
        ("lam", lambda v: feasibility_check(v, scalar_sys)),
        ("lam", lambda v: riccati_map(scalar_sys.Q, scalar_sys, v)),
        ("rate", lambda v: expected_error_curve(scalar_sys, Mechanism(0.5), v, 2, 2, 0)),
    ]
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValidationError):
            Mechanism(bad)
        with pytest.raises(ValidationError):
            ChannelParams(bad, 0.5)
        with pytest.raises(ValidationError):
            ChannelParams(0.5, bad)
        for name, check in named_checks:
            with pytest.raises(ValidationError, match=rf"^{name} must lie in \[0, 1\]"):
                check(bad)
    Mechanism(0.0)
    Mechanism(1.0)


def test_effective_rates_compose():
    user, eav = effective_rates(Mechanism(0.51), ChannelParams(0.9, 0.6))
    assert user == pytest.approx(0.459, abs=1e-12)
    assert eav == pytest.approx(0.306, abs=1e-12)


def test_effective_rates_degenerate():
    assert effective_rates(Mechanism(0.0), ChannelParams(0.9, 0.6)) == (0.0, 0.0)
    assert effective_rates(Mechanism(1.0), ChannelParams(1.0, 1.0)) == (1.0, 1.0)


def test_coin_long_run_frequency():
    """Empirical acceptance frequency of the withholding coin, 4 sigma band."""
    freq = float(np.mean(RngStream(42, STREAM_MECHANISM).uniforms(1_000_000) < 0.51))
    assert abs(freq - 0.51) < 0.002


def test_streams_are_reproducible():
    a = RngStream(123, STREAM_PROCESS_NOISE).uniforms(64)
    b = RngStream(123, STREAM_PROCESS_NOISE).uniforms(64)
    assert np.array_equal(a, b)
    c = RngStream(123, STREAM_PROCESS_NOISE).standard_normals((4, 4))
    d = RngStream(123, STREAM_PROCESS_NOISE).standard_normals((4, 4))
    assert np.array_equal(c, d)


def test_streams_are_distinct():
    seen = []
    for sid in (STREAM_PROCESS_NOISE, STREAM_MECHANISM,
                STREAM_EAVESDROPPER_ERASURE, STREAM_MC_RUN_BASE + 3):
        seen.append(tuple(RngStream(99, sid).uniforms(8)))
    assert len(set(seen)) == len(seen)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError):
        RngStream(-1, STREAM_MECHANISM)
    with pytest.raises(ValidationError):
        RngStream(0, -1)


def test_different_seeds_differ():
    a = RngStream(1, STREAM_MECHANISM).uniforms(16)
    b = RngStream(2, STREAM_MECHANISM).uniforms(16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 3,
                                  2**63 + 11, 2**70 + 3])
def test_replication_uniforms_match_rng_streams(seed):
    # The one-pass key derivation must reproduce SeedSequence exactly,
    # including seeds of two and three 32-bit words, and the blocks must
    # hold the rows in order: one count below the block size, one that
    # leaves a one-row last block.
    for count in (1, _BLOCK_ROWS + 1):
        for size in (0, 1, 7, 300):
            blocks = [block.copy() for block in _replication_uniforms(seed, 5, count, size)]
            assert [len(b) for b in blocks] == [min(_BLOCK_ROWS, count - lo)
                                                for lo in range(0, count, _BLOCK_ROWS)]
            rows = np.concatenate(blocks)
            assert rows.shape == (count, size)
            for r, u in enumerate(rows):
                assert np.array_equal(u, RngStream(seed, 5 + r).uniforms(size))


def test_replication_uniforms_validation(scalar_sys):
    for T in (0, 3):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            expected_error_curve(scalar_sys, Mechanism(0.5), 0.5, T, 2, -1)
    # Stream ids of two spawn-key words are outside the one-pass derivation.
    with pytest.raises(ValidationError, match="stream ids"):
        list(_replication_uniforms(0, 2**32 - 1, 2, 3))
    with pytest.raises(ValidationError, match="stream ids"):
        list(_replication_uniforms(0, -1, 1, 3))
    ((last,),) = _replication_uniforms(0, 2**32 - 1, 1, 3)
    assert np.array_equal(last, RngStream(0, 2**32 - 1).uniforms(3))
