import tracemalloc

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
    simulate_trace,
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
    _philox_keys,
    _replication_counts,
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
                                  2**63 + 11, 2**70 + 3, 2**96 + 11, 2**130 + 3,
                                  2**200 + 3])
def test_replication_uniforms_match_rng_streams(seed):
    """The replication counter decides every reception as the stream's
    uniform does, exactly (the name is the counter's predecessor's, kept so
    the cases stay comparable across versions): the one-pass keys reproduce
    SeedSequence for seeds of one to seven 32-bit words, past the pool's
    four, where each further word shifts the hash constant the stream id
    is mixed with; the counts cross block edges (65
    and 129 rows), and the rates include the integer threshold's ties
    (multiples of 2**-53), the smallest subnormal, the largest float below
    1, and both ends."""
    rates = [0.0, 5e-324, 2.0**-53, 3 * 2.0**-53, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]
    keys = _philox_keys(seed, 5, 2 * _BLOCK_ROWS + 1)
    for r, key in enumerate(keys):
        ss = np.random.SeedSequence(seed, spawn_key=(5 + r,))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))
    for count in (1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1):
        for size in (0, 1, 7, 300):
            counts = _replication_counts(seed, 5, count, size, rates)
            uniforms = np.array([RngStream(seed, 5 + r).uniforms(size)
                                 for r in range(count)]).reshape(count, size)
            want = [np.count_nonzero(uniforms < rate, axis=0) for rate in rates]
            assert counts.dtype == np.int64 and counts.shape == (len(rates), size)
            assert np.array_equal(counts, want)


def test_replication_counts_threshold_ties():
    # The smallest first word of 50 streams gives the uniform j * 2**-53,
    # which sits exactly on the threshold of rate j * 2**-53: that rate
    # must not count it, and rate (j + 1) * 2**-53 must.
    words = np.array([np.random.Philox(np.random.SeedSequence(0, spawn_key=(5 + r,)))
                      .random_raw() for r in range(50)], dtype=np.uint64)
    j = int(words.min() >> np.uint64(11))
    tie, above = j * 2.0**-53, (j + 1) * 2.0**-53
    first = np.array([RngStream(0, 5 + r).uniforms(1)[0] for r in range(50)])
    assert (first < tie).sum() == 0 and (first < above).sum() == 1
    counts = _replication_counts(0, 5, 50, 1, [tie, above])
    assert counts.tolist() == [[0], [1]]


def test_replication_counts_memory_is_bounded_in_runs():
    """The draws are counted a block at a time: 20 000 replications of 300
    steps peak under 2 MB, where their words alone would take 48 MB."""
    _replication_counts(0, 5, 1, 300, [0.5])
    tracemalloc.start()
    try:
        _replication_counts(0, 5, 20_000, 300, [0.459, 0.306])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_replication_uniforms_validation(scalar_sys):
    """Stream-id and seed checks of the replication counter (named after its
    predecessor, kept so the cases stay comparable across versions), and the
    last stream id one word holds, decided exactly."""
    for T in (0, 3):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            expected_error_curve(scalar_sys, Mechanism(0.5), 0.5, T, 2, -1)
    # Stream ids of two spawn-key words are outside the one-pass derivation.
    with pytest.raises(ValidationError, match="stream ids"):
        _replication_counts(0, 2**32 - 1, 2, 3, [0.5])
    with pytest.raises(ValidationError, match="stream ids"):
        _replication_counts(0, -1, 1, 3, [0.5])
    with pytest.raises(ValidationError, match="first_stream must be an integer"):
        _replication_counts(0, 5.0, 1, 3, [0.5])
    # Stream 2**32 - 1: its key is SeedSequence's, and each of its draws is
    # pinned to one multiple of 2**-53. With u = j * 2**-53, rate u counts a
    # word only if its j' < j, and the next float above u only if j' <= j.
    top = 2**32 - 1
    key = np.random.SeedSequence(0, spawn_key=(top,)).generate_state(2, np.uint64)
    assert np.array_equal(_philox_keys(0, top, 1)[0], key)
    last = RngStream(0, top).uniforms(3)
    rates = [*last, *np.nextafter(last, 2.0), 0.25, 0.5, 0.75]
    counts = _replication_counts(0, top, 1, 3, rates)
    assert np.array_equal(counts, [last < rate for rate in rates])
    assert np.diag(counts[:3]).tolist() == [0, 0, 0]
    assert np.diag(counts[3:6]).tolist() == [1, 1, 1]


@pytest.mark.parametrize("seed", [1.9, 0.5, 2.0, np.float64(3.0), "1", None])
def test_non_integer_seed_rejected(seed, second_order_sys, channel_96):
    # Like numpy's SeedSequence, and unlike int(), no float is truncated to
    # another seed's stream.
    with pytest.raises(ValidationError, match="seed must be an integer"):
        RngStream(seed, STREAM_MECHANISM)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        simulate_trace(second_order_sys, Mechanism(0.51), channel_96, 5, seed)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        expected_error_curve(second_order_sys, Mechanism(0.51), 0.9, 5, 3, seed)
    with pytest.raises(ValidationError, match="stream_id must be an integer"):
        RngStream(0, seed)


def test_numpy_integer_seed_accepted(second_order_sys, channel_96):
    stream = RngStream(np.int64(7), np.uint32(STREAM_MECHANISM))
    assert type(stream.seed) is int and type(stream.stream_id) is int
    assert np.array_equal(stream.uniforms(5), RngStream(7, STREAM_MECHANISM).uniforms(5))
    trace = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, 5, np.int64(7))
    assert type(trace.seed) is int and trace.seed == 7
    assert np.array_equal(trace.trP2, simulate_trace(second_order_sys, Mechanism(0.51),
                                                     channel_96, 5, 7).trP2)
    curve = expected_error_curve(second_order_sys, Mechanism(0.51), 0.9, 5, 3, np.int64(7))
    assert np.array_equal(curve.mean_trP, expected_error_curve(
        second_order_sys, Mechanism(0.51), 0.9, 5, 3, 7).mean_trP)
