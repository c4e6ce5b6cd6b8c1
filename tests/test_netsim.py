import math

import numpy as np
import pytest

from fflsim.errors import ConfigError
from fflsim import netsim
from fflsim.netsim import ChannelConfig
from fflsim.rng import substream


def snr_cfg(snr, **kw):
    return ChannelConfig(snr=snr, uplink_rate_bps=None, **kw)


# ---- link rate ---- #

def test_link_rate_shannon_snr_one():
    assert netsim.link_rate(snr_cfg(1.0, bandwidth_hz=1e6), 0) == pytest.approx(1e6, abs=0)


def test_link_rate_snr_inversion_recovers_target_rate():
    # employing power control: the snr that yields R = 1e5 at W = 1e6
    snr = 2.0**0.1 - 1.0
    assert netsim.link_rate(snr_cfg(snr, bandwidth_hz=1e6), 0) == pytest.approx(1e5, rel=1e-12)


def test_link_rate_override_beats_shannon():
    cfg = ChannelConfig(uplink_rate_bps=5e4)
    assert netsim.link_rate(cfg, 0) == 5e4


def test_link_rate_per_worker_lists():
    cfg = ChannelConfig(uplink_rate_bps=[1e5, 2e5])
    assert netsim.link_rate(cfg, 0) == 1e5
    assert netsim.link_rate(cfg, 1) == 2e5
    snr_list = snr_cfg([1.0, 3.0], bandwidth_hz=1e6)
    assert netsim.link_rate(snr_list, 1) == pytest.approx(2e6, abs=0)


# ---- uplink / downlink times ---- #

def test_uplink_time_examples():
    cfg = ChannelConfig(uplink_rate_bps=1e5)
    assert netsim.uplink_time(0, cfg, 0) == 0.0
    # 7 elementwise atoms of 96 bits
    assert netsim.uplink_time(96 * 7, cfg, 0) == pytest.approx(6.72e-3, rel=1e-12)
    # one rank-1 atom of a 16 x 32 block: 3,232 bits
    assert netsim.uplink_time(160 + 64 * (16 + 32), cfg, 0) == pytest.approx(0.03232, rel=1e-12)


def test_dense_uplink_time_example():
    # a dense upload of 317 float64 values
    cfg = ChannelConfig(uplink_rate_bps=1e5)
    assert netsim.uplink_time(64 * 317, cfg, 0) == pytest.approx(0.202880, rel=1e-12)


def test_downlink_time_dense_model():
    # the broadcast of 100 float64 values, charged like an upload of its bits
    cfg = ChannelConfig(downlink_rate_bps=2e5)
    bits = netsim.DENSE_BITS_PER_VALUE * 100
    assert netsim.downlink_time(bits, cfg) == pytest.approx(100 * 64 / 2e5, abs=0)
    assert netsim.downlink_time(0, cfg) == 0.0


def test_uplink_time_rejects_negative():
    cfg = ChannelConfig()
    with pytest.raises(ValueError):
        netsim.uplink_time(-1, cfg, 0)


def test_downlink_time_rejects_negative():
    with pytest.raises(ValueError, match="bits must be >= 0"):
        netsim.downlink_time(-1, ChannelConfig())


def test_compression_dominance():
    cfg = ChannelConfig(uplink_rate_bps=1e5)
    d = 317
    s_atoms = 9
    assert 96 * s_atoms < 64 * d
    assert netsim.uplink_time(96 * s_atoms, cfg, 0) < netsim.uplink_time(64 * d, cfg, 0)


# ---- round time ---- #

def test_round_time_single_worker():
    got = netsim.round_time([0.5], [0.25], 0.1)
    assert got == pytest.approx(0.5 + 0.25 + 0.1, rel=1e-15)


def test_round_time_straggler_wins():
    assert netsim.round_time([1.0, 2.0], [3.0, 1.0], 0.0) == 4.0


def test_round_time_matches_max_plus_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        compute = rng.uniform(0.01, 2.0, 8).tolist()
        uplink = rng.uniform(0.01, 2.0, 8).tolist()
        downlink = float(rng.uniform(0, 3.0))
        want = -math.inf
        for y, u in zip(compute, uplink):
            want = max(want, y + u)
        want += downlink
        assert netsim.round_time(compute, uplink, downlink) == pytest.approx(want, rel=1e-15)


def test_round_time_rejects_misaligned_lists():
    with pytest.raises(ValueError):
        netsim.round_time([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        netsim.round_time([], [], 0.0)


def test_round_time_rejects_a_round_that_is_not_positive():
    for compute, uplink, downlink in [([0.0], [0.0], 0.0), ([0.0, 0.0], [0.0, 0.0], -0.0),
                                      ([1.0], [1.0], -3.0), ([math.nan], [1.0], 1.0)]:
        with pytest.raises(ValueError, match="round time must be > 0"):
            netsim.round_time(compute, uplink, downlink)


# ---- packet failures ---- #

def test_packet_survives_extremes():
    always = ChannelConfig(packet_failure_prob=0.0)
    never = ChannelConfig(packet_failure_prob=1.0)
    rng = substream(0, "net", 0, 0)
    assert all(netsim.packet_survives(rng, always) for _ in range(100))
    assert not any(netsim.packet_survives(rng, never) for _ in range(100))


def test_packet_failure_rate_monte_carlo():
    cfg = ChannelConfig(packet_failure_prob=0.4)
    rng = substream(1, "net", 0, 0)
    n = 100000
    failures = sum(not netsim.packet_survives(rng, cfg) for _ in range(n))
    stderr = math.sqrt(0.4 * 0.6 / n)
    assert abs(failures / n - 0.4) <= 3 * stderr


def test_packet_draws_deterministic_per_stream():
    cfg = ChannelConfig(packet_failure_prob=0.5)
    a = [netsim.packet_survives(substream(7, "net", j, k), cfg)
         for j in range(4) for k in range(5)]
    b = [netsim.packet_survives(substream(7, "net", j, k), cfg)
         for j in range(4) for k in range(5)]
    assert a == b


def test_packets_survive_draws_nothing_at_probability_zero_or_one(monkeypatch):
    def no_stream(*args):
        raise AssertionError("no generator should be built")

    monkeypatch.setattr(netsim, "substream", no_stream)
    ids = [0, 1, 2, 3, 4]
    survived = netsim.packets_survive(ChannelConfig(packet_failure_prob=0.0), 7, 3, ids)
    lost = netsim.packets_survive(ChannelConfig(packet_failure_prob=1.0), 7, 3, ids)
    assert survived.dtype == bool and survived.tolist() == [True] * 5
    assert lost.dtype == bool and lost.tolist() == [False] * 5


@pytest.mark.parametrize("p", [1e-9, 0.3, 1.0 - 1e-9])
def test_packets_survive_is_one_draw_per_worker_stream(p):
    cfg = ChannelConfig(packet_failure_prob=p)
    for k in range(5):
        want = [netsim.packet_survives(substream(7, "net", j, k), cfg) for j in range(6)]
        assert netsim.packets_survive(cfg, 7, k, range(6)).tolist() == want


# ---- config validation ---- #

def test_validate_accepts_defaults():
    ChannelConfig().validate(workers=4)


def test_validate_requires_exactly_one_rate_source():
    with pytest.raises(ConfigError) as err:
        ChannelConfig(snr=1.0).validate(workers=2)
    assert "snr" in str(err.value) and "uplink_rate_bps" in str(err.value)
    with pytest.raises(ConfigError):
        ChannelConfig(snr=None, uplink_rate_bps=None).validate(workers=2)


def test_validate_rejects_zero_snr():
    with pytest.raises(ConfigError) as err:
        snr_cfg(0.0).validate(workers=2)
    assert "snr" in str(err.value)


def test_validate_per_worker_list_lengths():
    with pytest.raises(ConfigError) as err:
        ChannelConfig(uplink_rate_bps=[1e5, 1e5]).validate(workers=3)
    assert "uplink_rate_bps" in str(err.value)


def test_validate_names_offending_key():
    cases = [
        (dict(bandwidth_hz=0.0), "bandwidth_hz"),
        (dict(downlink_rate_bps=0.0), "downlink_rate_bps"),
        (dict(packet_failure_prob=1.5), "packet_failure_prob"),
        (dict(sec_per_local_step=0.0), "sec_per_local_step"),
    ]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as err:
            ChannelConfig(**overrides).validate(workers=2)
        assert key in str(err.value)
