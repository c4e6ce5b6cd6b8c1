import math
import re
from pathlib import Path

import numpy as np
import pytest

from fflsim import netsim
from fflsim.config import ExperimentConfig
from fflsim.errors import ConfigError
from fflsim.rng import substream


# ---- link rate ---- #

def per_worker_rate(cfg, j):
    """Worker j's uplink rate, read from the setting one worker at a time:
    a list setting's j-th value, else the one value."""
    rates = cfg.uplink_rate_bps
    return float(rates[j] if isinstance(rates, list) else rates)


def rates_of(cfg):
    """uplink_rates(cfg), checked bit for bit against the scalar formula
    worker by worker."""
    rates = netsim.uplink_rates(cfg)
    assert rates.dtype == np.float64 and rates.shape == (cfg.workers,)
    want = np.array([per_worker_rate(cfg, j) for j in range(cfg.workers)])
    assert rates.tobytes() == want.tobytes()
    return rates


def test_link_rate_scalar_is_every_workers_rate():
    cfg = ExperimentConfig(uplink_rate_bps=5e4, workers=4)
    assert rates_of(cfg).tolist() == [5e4] * 4


def test_link_rate_per_worker_lists():
    cfg = ExperimentConfig(uplink_rate_bps=[1e5, 2e5], workers=2)
    assert rates_of(cfg).tolist() == [1e5, 2e5]
    cfg = ExperimentConfig(uplink_rate_bps=[1e6, 2e6, 1e5], workers=3)
    assert rates_of(cfg).tolist() == [1e6, 2e6, 1e5]


# ---- round cost: uplink and downlink times ---- #

def uplink_seconds(cfg, bits):
    """Each worker's upload seconds, one round_cost call per worker: the
    slowest uplink of a one-worker round is that worker's own."""
    rates = netsim.uplink_rates(cfg)
    return [netsim.round_cost(cfg, rates[j : j + 1], 1, bits[j : j + 1], 0).uplink_max_s
            for j in range(cfg.workers)]


def test_uplink_time_examples():
    # no bits; 7 elementwise atoms of 96 bits; one rank-1 atom of a 16 x 32
    # block, 3,232 bits
    cfg = ExperimentConfig(uplink_rate_bps=1e5, workers=3)
    got = uplink_seconds(cfg, np.array([0, 96 * 7, 160 + 64 * (16 + 32)]))
    assert got[0] == 0.0
    assert got[1] == pytest.approx(6.72e-3, rel=1e-12)
    assert got[2] == pytest.approx(0.03232, rel=1e-12)


def test_dense_uplink_time_example():
    # a dense upload of 317 float64 values
    cfg = ExperimentConfig(uplink_rate_bps=1e5, workers=1)
    got = uplink_seconds(cfg, np.array([64 * 317]))
    assert got[0] == pytest.approx(0.202880, rel=1e-12)


def test_downlink_time_dense_model():
    # the broadcast of 100 float64 values, charged like an upload of its bits
    cfg = ExperimentConfig(downlink_rate_bps=2e5, workers=1)
    rates, nothing = netsim.uplink_rates(cfg), np.zeros(1, dtype=np.int64)
    bits = netsim.DENSE_BITS_PER_VALUE * 100
    assert netsim.round_cost(cfg, rates, 1, nothing, bits).downlink_s == pytest.approx(
        100 * 64 / 2e5, abs=0)
    assert netsim.round_cost(cfg, rates, 1, nothing, 0).downlink_s == 0.0


def test_uplink_time_rejects_negative():
    cfg = ExperimentConfig(workers=3)
    with pytest.raises(ValueError, match="bits must be >= 0"):
        netsim.round_cost(cfg, netsim.uplink_rates(cfg), 1, np.array([96, -1, 0]), 0)


def test_downlink_time_rejects_negative():
    cfg = ExperimentConfig(workers=1)
    with pytest.raises(ValueError, match="bits must be >= 0"):
        netsim.round_cost(cfg, netsim.uplink_rates(cfg), 1, np.zeros(1, dtype=np.int64), -1)


@pytest.mark.parametrize("upload, broadcast", [([96.0, math.nan], 0.0), ([96.0], math.nan)],
                         ids=["upload", "broadcast"])
def test_round_cost_rejects_nan_bits(upload, broadcast):
    cfg = ExperimentConfig(workers=len(upload))
    with pytest.raises(ValueError, match="bits must be >= 0"):
        netsim.round_cost(cfg, netsim.uplink_rates(cfg), 1, np.array(upload), broadcast)


def test_compression_dominance():
    cfg = ExperimentConfig(uplink_rate_bps=1e5, workers=2)
    d = 317
    s_atoms = 9
    assert 96 * s_atoms < 64 * d
    sparse, dense = uplink_seconds(cfg, np.array([96 * s_atoms, 64 * d]))
    assert sparse < dense


# ---- round cost: the round time ---- #

def total_seconds(compute_s, uplink_s, downlink_s):
    """round_cost's total for these three times: one local step of
    compute_s seconds, uploads of uplink_s[j] bits at 1 bit/s, and a
    broadcast of |downlink_s| bits at +-1 bit/s, the sign of downlink_s.
    Multiplying by 1 and dividing by 1 or -1 are exact, so the times reach
    round_cost's sum unchanged."""
    cfg = ExperimentConfig(sec_per_local_step=compute_s,
                           downlink_rate_bps=math.copysign(1.0, downlink_s))
    uplink = np.array(uplink_s, dtype=np.float64)
    return netsim.round_cost(cfg, np.ones(uplink.size), 1, uplink, abs(downlink_s)).round_time_s


def test_round_time_single_worker():
    got = total_seconds(0.5, [0.25], 0.1)
    assert got == pytest.approx(0.5 + 0.25 + 0.1, rel=1e-15)


def test_round_time_straggler_wins():
    assert total_seconds(1.0, [3.0, 1.0], 0.5) == 4.5


def test_round_time_matches_max_plus_oracle():
    # the oracle adds the compute time to each uplink before the max, as a
    # round with one compute time per worker would; the bytes must agree.
    # Each time is formed from drawn bits and rates, as a round forms it.
    rng = np.random.default_rng(4)
    for _ in range(200):
        tau = int(rng.integers(1, 31))
        cfg = ExperimentConfig(sec_per_local_step=float(rng.uniform(1e-3, 0.07)),
                               downlink_rate_bps=float(rng.uniform(1e4, 1e6)), workers=8)
        rates = rng.uniform(1e4, 1e6, 8)
        bits = rng.integers(0, 200_000, 8)
        broadcast = int(rng.integers(0, 3_000_000))
        compute = tau * cfg.sec_per_local_step
        uplink = [b / r for b, r in zip(bits.tolist(), rates.tolist())]
        downlink = broadcast / cfg.downlink_rate_bps
        want = -math.inf
        for u in uplink:
            want = max(want, compute + u)
        want += downlink
        got = netsim.round_cost(cfg, rates, tau, bits, broadcast)
        assert got.round_time_s == want
        assert got.uplink_max_s == max(uplink)
        assert (got.compute_max_s, got.downlink_s) == (compute, downlink)
        assert all(type(value) is float for value in got)


def test_round_time_rejects_an_empty_uplink_list():
    with pytest.raises(ValueError, match="non-empty"):
        total_seconds(1.0, [], 0.0)


def test_round_time_rejects_a_round_that_is_not_positive():
    for compute, uplink, downlink in [(0.0, [0.0], 0.0), (0.0, [0.0, 0.0], -0.0),
                                      (1.0, [1.0], -3.0), (math.nan, [1.0], 1.0)]:
        with pytest.raises(ValueError, match="round time must be > 0"):
            total_seconds(compute, uplink, downlink)


def test_only_netsim_and_config_name_the_cost_settings():
    # config declares the compute, link and broadcast settings and netsim
    # alone reads them, so no second copy of the cost formula can drift;
    # a link's rate has one form, so no module names another
    src = Path(__file__).resolve().parents[1] / "src" / "fflsim"
    texts = {path.name: path.read_text("utf-8") for path in src.glob("*.py")}
    naming = {name for name, text in texts.items()
              if re.search(r"sec_per_local_step|downlink_rate_bps|uplink_rate_bps", text)}
    assert naming == {"config.py", "netsim.py"}
    assert [name for name, text in texts.items() if re.search(r"snr|bandwidth_hz", text)] == []


# ---- packet failures ---- #

class CountingGenerator:
    """A generator that counts the uniforms drawn through `random`."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = 0

    def random(self, size):
        self.drawn += size
        return self.rng.random(size)


def test_packet_survives_extremes():
    always = ExperimentConfig(packet_failure_prob=0.0, workers=4)
    never = ExperimentConfig(packet_failure_prob=1.0, workers=4)
    rng = substream(0, "net")
    assert all(netsim.packets_survive(always, rng).all() for _ in range(100))
    assert not any(netsim.packets_survive(never, rng).any() for _ in range(100))


def test_packet_failure_rate_monte_carlo():
    n = 100000
    cfg = ExperimentConfig(packet_failure_prob=0.4, workers=n)
    failures = n - np.count_nonzero(netsim.packets_survive(cfg, substream(1, "net")))
    stderr = math.sqrt(0.4 * 0.6 / n)
    assert abs(failures / n - 0.4) <= 3 * stderr


def test_packet_draws_deterministic_per_stream():
    cfg = ExperimentConfig(packet_failure_prob=0.5, workers=4)
    a, b = substream(7, "net"), substream(7, "net")
    for _ in range(5):
        assert netsim.packets_survive(cfg, a).tolist() == netsim.packets_survive(cfg, b).tolist()


def test_packets_survive_draws_nothing_at_probability_zero_or_one():
    rng = CountingGenerator(0)
    survived = netsim.packets_survive(ExperimentConfig(packet_failure_prob=0.0, workers=5), rng)
    lost = netsim.packets_survive(ExperimentConfig(packet_failure_prob=1.0, workers=5), rng)
    assert survived.dtype == bool and survived.tolist() == [True] * 5
    assert lost.dtype == bool and lost.tolist() == [False] * 5
    assert rng.drawn == 0


@pytest.mark.parametrize("p", [1e-9, 0.3, 1.0 - 1e-9])
def test_packets_survive_is_one_draw_per_worker_stream(p):
    # one uniform per worker per round, in worker order, from the one stream
    cfg = ExperimentConfig(packet_failure_prob=p, workers=6)
    rng, replay = CountingGenerator(7), np.random.default_rng(7)
    for k in range(5):
        want = [float(replay.random()) >= p for _ in range(6)]
        assert netsim.packets_survive(cfg, rng).tolist() == want
        assert rng.drawn == 6 * (k + 1)


# ---- channel settings, validated by ExperimentConfig ---- #

def test_validate_accepts_defaults():
    ExperimentConfig(workers=4).validate()


def test_validate_requires_exactly_one_rate_source():
    # uplink_rate_bps is the one source, and it is never null
    with pytest.raises(ConfigError, match="^uplink_rate_bps must be of type "):
        ExperimentConfig(workers=2, uplink_rate_bps=None).validate()


def test_validate_rejects_a_zero_rate_in_a_per_worker_list():
    with pytest.raises(ConfigError, match="^uplink_rate_bps must be finite and > 0"):
        ExperimentConfig(workers=2, uplink_rate_bps=[1e5, 0.0]).validate()


def test_validate_per_worker_list_lengths():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(workers=3, uplink_rate_bps=[1e5, 1e5]).validate()
    assert "uplink_rate_bps" in str(err.value)


def test_validate_names_offending_key():
    cases = [
        (dict(downlink_rate_bps=0.0), "downlink_rate_bps"),
        (dict(packet_failure_prob=1.5), "packet_failure_prob"),
        (dict(sec_per_local_step=0.0), "sec_per_local_step"),
    ]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(workers=2, **overrides).validate()
        assert key in str(err.value)
