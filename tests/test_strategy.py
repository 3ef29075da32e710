import math

import numpy as np
import pytest

from splitstream import (NetworkConditions, StrategyProfile, best_strategy,
                         crossover_bandwidth, latency_regions, total_latency)

CLIENT = StrategyProfile(name="client", kind="client_only", client_infer_s=0.30)
SPLIT = StrategyProfile(name="split2", kind="split", client_infer_s=0.04,
                        client_encode_s=0.02, server_decode_s=0.01,
                        server_infer_s=0.05, payload_bytes=5e4, cut="stage2")
SERVER = StrategyProfile(name="server", kind="server_only",
                         client_encode_s=0.02, server_decode_s=0.01,
                         server_infer_s=0.02, payload_bytes=3e5)


def _net(bw, rtt=0.0):
    return NetworkConditions(bandwidth_bps=bw, rtt_s=rtt)


class TestProfile:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            StrategyProfile(name="x", kind="edge")

    def test_client_only_must_stay_local(self):
        with pytest.raises(ValueError, match="client_only"):
            StrategyProfile(name="x", kind="client_only", payload_bytes=10)
        with pytest.raises(ValueError, match="client_only"):
            StrategyProfile(name="x", kind="client_only", server_infer_s=0.1)

    def test_costs_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            StrategyProfile(name="x", kind="split", client_infer_s=-0.1)

    @pytest.mark.parametrize("field", ["client_infer_s", "client_encode_s",
                                       "server_decode_s", "server_infer_s",
                                       "payload_bytes"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_costs_finite(self, field, value):
        # a NaN cost would win every comparison it loses
        with pytest.raises(ValueError, match="finite"):
            StrategyProfile(name="x", kind="split", **{field: value})

    def test_fixed_cost_sums_components(self):
        assert SPLIT.fixed_cost_s == pytest.approx(0.12)

    def test_network_conditions_validated(self):
        with pytest.raises(ValueError):
            NetworkConditions(bandwidth_bps=-1.0)
        with pytest.raises(ValueError):
            NetworkConditions(bandwidth_bps=1.0, rtt_s=-0.1)
        assert NetworkConditions(bandwidth_bps=0.0).bandwidth_bps == 0.0

    @pytest.mark.parametrize("bw, rtt", [(math.nan, 0.0), (1.0, math.nan),
                                         (1.0, math.inf), (-math.inf, 0.0)])
    def test_network_conditions_refuse_nan_and_infinite_rtt(self, bw, rtt):
        with pytest.raises(ValueError, match="non-negative"):
            NetworkConditions(bandwidth_bps=bw, rtt_s=rtt)

    def test_infinite_bandwidth_leaves_the_intercept(self):
        net = NetworkConditions(bandwidth_bps=math.inf, rtt_s=0.01)
        assert total_latency(SPLIT, net) == SPLIT.fixed_cost_s + 0.01


class TestTotalLatency:
    def test_client_only_ignores_network(self):
        for net in (_net(1.0), _net(1e9), _net(0.0), _net(1e6, rtt=5.0)):
            assert total_latency(CLIENT, net) == 0.30

    def test_split_arithmetic(self):
        p = StrategyProfile(name="s", kind="split", client_infer_s=0.1,
                            payload_bytes=1e6)
        assert total_latency(p, _net(1e7)) == pytest.approx(0.2)

    def test_high_bandwidth_asymptote(self):
        assert total_latency(SPLIT, _net(1e12)) == pytest.approx(
            SPLIT.fixed_cost_s, abs=1e-5)

    def test_dead_link_is_infinite(self):
        assert total_latency(SPLIT, _net(0.0)) == math.inf
        assert total_latency(SERVER, _net(0.0)) == math.inf

    def test_rtt_charged_to_network_strategies_only(self):
        base = total_latency(SPLIT, _net(1e6))
        assert total_latency(SPLIT, _net(1e6, rtt=0.05)) == pytest.approx(
            base + 0.05)
        assert total_latency(CLIENT, _net(1e6, rtt=0.05)) == 0.30

    def test_strictly_decreasing_in_bandwidth(self):
        lats = [total_latency(SPLIT, _net(bw))
                for bw in np.logspace(3, 9, 13)]
        assert all(b < a for a, b in zip(lats, lats[1:]))

    def test_constant_when_payload_free(self):
        p = StrategyProfile(name="s", kind="split", client_infer_s=0.1)
        assert {total_latency(p, _net(bw)) for bw in (1.0, 1e6, 1e12)} == {0.1}


class TestBestStrategy:
    def test_requires_candidates(self):
        with pytest.raises(ValueError, match="no strategies"):
            best_strategy([], _net(1e6))

    def test_regime_endpoints(self):
        profiles = [CLIENT, SPLIT, SERVER]
        assert best_strategy(profiles, _net(1.0)).name == "client"
        assert best_strategy(profiles, _net(1e12)).name == "server"
        assert best_strategy(profiles, _net(1e6)).name == "split2"

    def test_tie_prefers_smaller_payload_then_name(self):
        heavy = StrategyProfile(name="a_heavy", kind="split",
                                client_infer_s=0.1, payload_bytes=1e6)
        light = StrategyProfile(name="z_light", kind="split",
                                client_infer_s=0.2)
        assert best_strategy([heavy, light], _net(1e7)).name == "z_light"
        twin = StrategyProfile(name="b_twin", kind="split",
                               client_infer_s=0.2)
        assert best_strategy([twin, light], _net(1e7)).name == "b_twin"

    def test_matches_pointwise_minimum(self):
        profiles = [CLIENT, SPLIT, SERVER]
        for bw in np.logspace(0, 10, 41):
            net = _net(bw)
            best = best_strategy(profiles, net)
            floor = min(total_latency(p, net) for p in profiles)
            assert total_latency(best, net) == floor


class TestCrossover:
    def test_known_crossing(self):
        p1 = StrategyProfile(name="c", kind="client_only", client_infer_s=0.3)
        p2 = StrategyProfile(name="s", kind="split", client_infer_s=0.1,
                             payload_bytes=1e6)
        bstar = crossover_bandwidth(p1, p2)
        assert bstar == pytest.approx(5e6)
        net = _net(bstar)
        assert total_latency(p1, net) == pytest.approx(total_latency(p2, net))

    def test_parallel_lines(self):
        p1 = StrategyProfile(name="a", kind="split", client_infer_s=0.1,
                             payload_bytes=1e4)
        p2 = StrategyProfile(name="b", kind="split", client_infer_s=0.1,
                             payload_bytes=1e6)
        assert crossover_bandwidth(p1, p2) is None

    def test_equal_payloads_dominated(self):
        p1 = StrategyProfile(name="a", kind="split", client_infer_s=0.1,
                             payload_bytes=1e5)
        p2 = StrategyProfile(name="b", kind="split", client_infer_s=0.2,
                             payload_bytes=1e5)
        assert crossover_bandwidth(p1, p2) is None

    def test_negative_crossing_is_none(self):
        cheap = StrategyProfile(name="a", kind="split", client_infer_s=0.1)
        dear = StrategyProfile(name="b", kind="split", client_infer_s=0.3,
                               payload_bytes=1e6)
        assert crossover_bandwidth(cheap, dear) is None

    def test_rtt_shifts_network_lines_only(self):
        p1 = StrategyProfile(name="c", kind="client_only", client_infer_s=0.3)
        p2 = StrategyProfile(name="s", kind="split", client_infer_s=0.1,
                             payload_bytes=1e6)
        assert crossover_bandwidth(p1, p2, rtt_s=0.1) == pytest.approx(1e7)


class TestLatencyRegions:
    def test_rows_and_progression(self):
        grid = np.logspace(3, 9, 61)
        rows = latency_regions([CLIENT, SPLIT, SERVER], grid)
        assert len(rows) == len(grid)
        order = {"client": 0, "split2": 1, "server": 2}
        ranks = []
        for row, bw in zip(rows, grid):
            assert set(row) == {"bandwidth", "strategy", "latency"}
            assert row["bandwidth"] == float(bw)
            ranks.append(order[row["strategy"]])
        assert ranks == sorted(ranks)
        assert ranks[0] == 0 and ranks[-1] == 2

    def test_latency_matches_model(self):
        rows = latency_regions([CLIENT, SPLIT], [1e6], rtt_s=0.01)
        assert rows[0]["latency"] == total_latency(
            best_strategy([CLIENT, SPLIT], _net(1e6, rtt=0.01)),
            _net(1e6, rtt=0.01))
