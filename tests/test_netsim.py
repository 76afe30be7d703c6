import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionfab.errors import CapacityError, DomainError
from ionfab.netsim import (SIM_MAX_EVENTS, NetworkSim, SwitchConfig, default_link,
                           link_label, make_link, run_sim,
                           theoretical_rate_check)
from ionfab.scheduler import BufferedPairSupply


def one_link_schedule(spec):
    return [(0.0, SwitchConfig(frozenset({default_link(spec)})))]


def with_elu_field(spec, **kwargs):
    return dataclasses.replace(
        spec, elus=tuple(dataclasses.replace(e, **kwargs) for e in spec.elus))


class TestSwitchConfig:
    def test_port_reuse_rejected(self):
        with pytest.raises(DomainError, match="two links"):
            SwitchConfig(frozenset({
                make_link(("A", 0), ("B", 0)),
                make_link(("A", 0), ("C", 0)),
            }))

    def test_more_ports_than_the_switch_has_rejected(self, example_spec):
        spec = dataclasses.replace(example_spec, switch=dataclasses.replace(
            example_spec.switch, port_count=2))
        cfg = SwitchConfig(frozenset({make_link(("A", 0), ("B", 0)),
                                      make_link(("A", 1), ("B", 1))}))
        with pytest.raises(DomainError, match="^config uses 4 ports, switch has 2$"):
            NetworkSim(spec, [(0.0, cfg)], [], 0)

    def test_same_elu_link_rejected(self):
        with pytest.raises(DomainError, match="distinct ELUs"):
            make_link(("A", 0), ("A", 19))

    def test_identity_reconfiguration_changes_nothing(self, example_spec):
        cfg = SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))}))
        kwargs = dict(demand=[], horizon=2e-4, seed=3, p_override=1.0,
                      store_log=True)
        assert (run_sim(example_spec, [(0.0, cfg), (1e-4, cfg)], **kwargs)
                == run_sim(example_spec, [(0.0, cfg)], **kwargs))

    def test_partner_swap_suspends_two_links(self, example_spec):
        old = make_link(("A", 0), ("B", 0))
        new = make_link(("A", 0), ("B", 1))
        schedule = [(0.0, SwitchConfig(frozenset({old}))),
                    (1e-4, SwitchConfig(frozenset({new})))]
        resumed = 1e-4 + example_spec.switch.reconfiguration_time
        r = run_sim(example_spec, schedule, [], resumed + 1e-4, seed=0,
                    p_override=1.0, store_log=True)
        times = {link_label(old): [], link_label(new): []}
        for e in r.events:
            if e.kind == "SUCCESS":
                times[e.link].append(e.time)
        assert times[link_label(old)] and max(times[link_label(old)]) < 1e-4
        assert times[link_label(new)] and min(times[link_label(new)]) > resumed

    def test_matching_replaced_within_reconfiguration(self, example_spec):
        # a0b1 is removed 0.2 ms into its reconfiguration and re-added at
        # 0.4 ms; a1b0 is added at 0.2 ms and removed while it reconfigures.
        a0b0, a0b1 = make_link(("A", 0), ("B", 0)), make_link(("A", 0), ("B", 1))
        a1b0 = make_link(("A", 1), ("B", 0))
        schedule = [(0.0, SwitchConfig(frozenset({a0b0}))),
                    (1e-4, SwitchConfig(frozenset({a0b1}))),
                    (3e-4, SwitchConfig(frozenset({a1b0}))),
                    (5e-4, SwitchConfig(frozenset({a0b1})))]
        resumed = 5e-4 + example_spec.switch.reconfiguration_time
        r = run_sim(example_spec, schedule, [], resumed + 1e-4, seed=0,
                    p_override=1.0, store_log=True)
        rows = [(e.kind, e.link, e.time) for e in r.events if e.link]
        assert [row for row in rows if row[0] == "RECONFIG_DONE"] == [
            ("RECONFIG_DONE", link_label(a0b1), resumed)]
        assert all(link != link_label(a1b0) for _, link, _ in rows)
        assert min(t for _, link, t in rows if link == link_label(a0b1)) == resumed
        assert r.per_link[link_label(a1b0)].attempts == 0

    def test_reload_before_first_entry_opens_nothing(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=1.0,
                              reload_time=0.01)
        first = 0.2
        schedule = [(first, SwitchConfig(frozenset({default_link(spec)})))]
        r = run_sim(spec, schedule, [], 0.3, seed=4, p_override=0.01,
                    store_log=True)
        kinds_before = {e.kind for e in r.events if e.time < first}
        assert {"COLLISION", "RELOAD_DONE"} <= kinds_before
        assert "SUCCESS" not in kinds_before
        stats = r.per_link[link_label(default_link(spec))]
        assert 0 < stats.attempts <= (0.3 - first) * spec.attempt_rate

    def test_default_link_needs_comm_ions(self, example_spec):
        spec = with_elu_field(example_spec, comm_ion_indices=())
        with pytest.raises(CapacityError, match="not enough communication ions"):
            default_link(spec)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_matchings_round_trip(self, seed):
        rng = random.Random(seed)
        elus = [f"E{i}" for i in range(6)]
        ports = [(e, p) for e in elus for p in range(2)]
        rng.shuffle(ports)
        links = set()
        while len(ports) >= 2:
            a = ports.pop()
            partner = next((p for p in ports if p[0] != a[0]), None)
            if partner is None:
                break
            ports.remove(partner)
            links.add((a, partner))
        cfg = SwitchConfig(frozenset(links))
        assert len(cfg.active_links) == len(links)
        seen = set()
        for link in cfg.active_links:
            for port in link:
                assert port not in seen
                seen.add(port)


class TestPairBuffers:
    """Buffer behaviour read from the event log of a deterministic run.

    One link at p = 1 yields exactly one success per attempt, at k/R, and is
    switched off after ``n_pairs`` attempts, so every time in the log is exact.
    """

    def run(self, spec, n_pairs, demand, **fields):
        spec = dataclasses.replace(spec, **fields)
        on = SwitchConfig(frozenset({default_link(spec)}))
        off = SwitchConfig(frozenset())
        schedule = [(0.0, on), ((n_pairs + 0.5) / spec.attempt_rate, off)]
        return run_sim(spec, schedule, [(t, ("A", "B")) for t in demand],
                       horizon=1.0, seed=0, p_override=1.0, store_log=True)

    @staticmethod
    def rows(result):
        return [(e.kind, e.time) for e in result.events]

    def test_fifo_delivery_leaves_the_newest_pair(self, example_spec):
        rate, lifetime = example_spec.attempt_rate, 1e-4
        r = self.run(example_spec, 2, [3 / rate], pair_lifetime=lifetime)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("SUCCESS", 2 / rate),
            ("PAIR_REQUEST", 3 / rate), ("PAIR_DELIVERED", 3 / rate),
            ("PAIR_EXPIRED", 2 / rate + lifetime)]

    def test_expired_head_skipped_by_request(self, example_spec):
        rate = example_spec.attempt_rate
        lifetime = 2 / rate
        head_expiry = 1 / rate + lifetime
        r = self.run(example_spec, 2, [head_expiry], pair_lifetime=lifetime)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("SUCCESS", 2 / rate),
            ("PAIR_EXPIRED", head_expiry), ("PAIR_REQUEST", head_expiry),
            ("PAIR_DELIVERED", head_expiry)]
        assert (r.ledger.expired, r.ledger.delivered, r.ledger.residual) == (1, 1, 0)
        assert r.latency_max == 0.0

    def test_full_buffer_drops_the_newest_pair(self, example_spec):
        rate, lifetime = example_spec.attempt_rate, 1e-4
        r = self.run(example_spec, 2, [], buffer_capacity=1,
                     pair_lifetime=lifetime)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("SUCCESS", 2 / rate),
            ("PAIR_EXPIRED", 1 / rate + lifetime)]
        assert (r.ledger.overflow_dropped, r.ledger.expired) == (1, 1)

    def test_request_blocks_while_buffer_empty(self, example_spec):
        rate = example_spec.attempt_rate
        r = self.run(example_spec, 2, [0.25 / rate, 0.5 / rate],
                     pair_lifetime=1e-4)
        assert self.rows(r) == [
            ("PAIR_REQUEST", 0.25 / rate), ("PAIR_REQUEST", 0.5 / rate),
            ("SUCCESS", 1 / rate), ("PAIR_DELIVERED", 1 / rate),
            ("SUCCESS", 2 / rate), ("PAIR_DELIVERED", 2 / rate)]
        assert r.latency_max == 2 / rate - 0.5 / rate
        assert r.ledger.residual == r.ledger.expired == 0

    def test_capacity_below_one_rejected(self, example_spec):
        spec = dataclasses.replace(example_spec, buffer_capacity=0)
        with pytest.raises(DomainError, match="buffer capacity must be >= 1"):
            NetworkSim(spec, one_link_schedule(spec), [], seed=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           capacity=st.integers(1, 3),
           lifetime=st.sampled_from([None, 2e-5, 1e-4, 1e-3]),
           collision_rate=st.sampled_from([0.0, 2.0, 20.0]),
           p=st.sampled_from([0.01, 0.1]),
           demand=st.lists(st.floats(0.0, 0.01), max_size=30))
    def test_ledger_matches_the_log(self, example_spec, seed, capacity,
                                    lifetime, collision_rate, p, demand):
        spec = dataclasses.replace(
            with_elu_field(example_spec, collision_rate_per_ion=collision_rate,
                           reload_time=1e-3),
            buffer_capacity=capacity, pair_lifetime=lifetime)
        schedule = [(0.0, SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))}))),
                    (0.004, SwitchConfig(frozenset({make_link(("A", 1), ("B", 1))})))]
        r = run_sim(spec, schedule, [(t, ("A", "B")) for t in demand], 0.01,
                    seed, p_override=p, store_log=True)
        kinds = [e.kind for e in r.events]
        assert r.ledger.conserved
        assert kinds.count("SUCCESS") == r.ledger.successes
        assert kinds.count("PAIR_DELIVERED") == r.ledger.delivered
        assert kinds.count("PAIR_EXPIRED") == r.ledger.expired


class TestRunSim:
    def test_first_pair_at_exactly_one_over_r(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec), [],
                    horizon=1e-4, seed=0, p_override=1.0, store_log=True)
        successes = [e for e in r.events if e.kind == "SUCCESS"]
        assert successes[0].time == 1.0 / example_spec.attempt_rate

    def test_deterministic_event_log(self, example_spec):
        kwargs = dict(switch_schedule=one_link_schedule(example_spec),
                      demand=[(0.01, ("A", "B"))], horizon=0.5, seed=33,
                      store_log=True)
        a = run_sim(example_spec, **kwargs)
        b = run_sim(example_spec, **kwargs)
        assert a.events_csv() == b.events_csv()
        assert a.events_csv().splitlines()[0] == "time_s,kind,link,elu_a,elu_b,seq"

    def test_seed_changes_stream(self, example_spec):
        a = run_sim(example_spec, one_link_schedule(example_spec), [], 1.0, seed=1)
        b = run_sim(example_spec, one_link_schedule(example_spec), [], 1.0, seed=2)
        assert a.ledger.successes != b.ledger.successes or \
            a.per_link != b.per_link

    def test_measured_rate_near_analytic(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec), [],
                    horizon=100.0, seed=0)
        stats = r.per_link[link_label(default_link(example_spec))]
        assert abs(stats.measured_rate - 100.0) < 3.0
        assert stats.successes <= stats.attempts

    def test_conservation_no_demand(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec), [], 2.0, seed=5)
        assert r.ledger.conserved
        assert r.ledger.delivered == 0

    def test_conservation_with_demand(self, example_spec):
        demand = [(0.05 * k, ("A", "B")) for k in range(1, 30)]
        r = run_sim(example_spec, one_link_schedule(example_spec), demand,
                    2.0, seed=5)
        assert r.ledger.conserved
        assert r.ledger.delivered > 0
        assert r.requests_served == r.ledger.delivered

    def test_conservation_with_expiry(self, example_spec):
        spec = dataclasses.replace(example_spec, pair_lifetime=0.005)
        r = run_sim(spec, one_link_schedule(spec), [], 2.0, seed=5)
        assert r.ledger.conserved
        assert r.ledger.expired > 0

    def test_conservation_with_collisions(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=0.05,
                              reload_time=0.05)
        r = run_sim(spec, one_link_schedule(spec), [], 20.0, seed=5)
        assert r.collisions > 0
        assert r.ledger.invalidated > 0
        assert r.ledger.conserved

    def test_conservation_with_overflow(self, example_spec):
        spec = dataclasses.replace(example_spec, buffer_capacity=2)
        r = run_sim(spec, one_link_schedule(spec), [], 2.0, seed=5)
        assert r.ledger.overflow_dropped > 0
        assert r.ledger.residual <= 2
        assert r.ledger.conserved

    def test_monotone_in_capacity(self, example_spec):
        demand = [(1.0 + 0.001 * k, ("A", "B")) for k in range(100)]
        delivered = []
        for cap in (1, 4, 16, 64):
            spec = dataclasses.replace(example_spec, buffer_capacity=cap)
            r = run_sim(spec, one_link_schedule(spec), demand, 1.5, seed=9)
            delivered.append(r.ledger.delivered)
        assert delivered == sorted(delivered)

    def test_request_served_from_buffer_with_zero_latency(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec),
                    [(1.0, ("A", "B"))], 1.5, seed=4, store_log=True)
        assert r.requests_served == 1
        assert r.latency_max == 0.0

    def test_blocking_request_waits_for_success(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec),
                    [(0.0, ("A", "B"))], 1.0, seed=4, store_log=True)
        assert r.requests_served == 1
        assert r.latency_max > 0.0
        kinds = [e.kind for e in r.events]
        first_delivery = kinds.index("PAIR_DELIVERED")
        assert "SUCCESS" in kinds[:first_delivery]

    def test_unconnectable_pair_rejected(self, example_spec):
        with pytest.raises(DomainError, match="no scheduled link"):
            run_sim(example_spec, one_link_schedule(example_spec),
                    [(0.0, ("A", "Z"))], 1.0, seed=0)

    def test_unsorted_schedule_rejected(self, example_spec):
        cfg = SwitchConfig(frozenset({default_link(example_spec)}))
        with pytest.raises(DomainError, match="sorted"):
            run_sim(example_spec, [(1.0, cfg), (0.5, cfg)], [], 2.0, seed=0)

    def test_port_not_comm_ion_rejected(self, example_spec):
        cfg = SwitchConfig(frozenset({make_link(("A", 5), ("B", 0))}))
        with pytest.raises(DomainError, match="not a communication ion"):
            run_sim(example_spec, [(0.0, cfg)], [], 1.0, seed=0)

    def test_collision_invalidates_buffered_pairs(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=0.5,
                              reload_time=0.1)
        r = run_sim(spec, one_link_schedule(spec), [], 10.0, seed=1,
                    store_log=True)
        assert r.collisions > 0
        collision_times = [e.time for e in r.events if e.kind == "COLLISION"]
        assert collision_times and r.ledger.invalidated > 0

    def test_no_success_during_suspensions(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=0.2,
                              reload_time=0.2)
        link = default_link(spec)
        cfg = SwitchConfig(frozenset({link}))
        cfg2 = SwitchConfig(frozenset({make_link(("A", 1), ("B", 1))}))
        schedule = [(0.0, cfg), (2.0, cfg2), (4.0, cfg)]
        r = run_sim(spec, schedule, [], 10.0, seed=3, store_log=True)
        windows = []
        for e in r.events:
            if e.kind == "COLLISION":
                windows.append((e.time, e.time + 0.2, e.elu_a))
        # reconfigured links are suspended from the change time until done
        reconf = [(2.0, None), (4.0, None)]
        for t0, _ in reconf:
            windows.append((t0, t0 + spec.switch.reconfiguration_time, None))
        for e in r.events:
            if e.kind != "SUCCESS":
                continue
            for lo, hi, elu in windows:
                if elu is None or elu in (e.elu_a, e.elu_b):
                    assert not (lo <= e.time < hi), (e, (lo, hi, elu))

    def test_reconfig_phase_resets_attempt_clock(self, example_spec):
        link = default_link(example_spec)
        link2 = make_link(("A", 1), ("B", 1))
        schedule = [(0.0, SwitchConfig(frozenset({link}))),
                    (0.5, SwitchConfig(frozenset({link2})))]
        r = run_sim(example_spec, schedule, [], 1.0, seed=0, p_override=1.0,
                    store_log=True)
        lbl2 = link_label(link2)
        first = next(e for e in r.events
                     if e.kind == "SUCCESS" and e.link == lbl2)
        expected = 0.5 + example_spec.switch.reconfiguration_time \
            + 1.0 / example_spec.attempt_rate
        assert first.time == pytest.approx(expected, abs=1e-12)

    def test_success_fraction_converges(self, example_spec):
        horizon = 1_000_000.5 / example_spec.attempt_rate
        r = run_sim(example_spec, one_link_schedule(example_spec), [],
                    horizon, seed=12)
        stats = r.per_link[link_label(default_link(example_spec))]
        p = 2e-4
        assert abs(stats.successes / stats.attempts - p) < 5 * math.sqrt(p / 1e6)

    def test_event_log_time_ordered(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=0.2,
                              reload_time=0.1)
        demand = [(0.2 * k, ("A", "B")) for k in range(1, 20)]
        r = run_sim(spec, one_link_schedule(spec), demand, 5.0, seed=8,
                    store_log=True)
        times = [e.time for e in r.events]
        assert times == sorted(times)
        assert [e.seq for e in r.events] == list(range(len(r.events)))
        assert all(e.time >= 0 for e in r.events)

    def test_events_require_store_log(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec), [], 0.1,
                    seed=0)
        assert r.events is None
        with pytest.raises(DomainError, match="store_log"):
            r.events_csv()


class TestNetworkSim:
    """A sim advanced in steps equals one run to the same horizon."""

    HORIZON = 0.5

    def scenario(self, spec, collision_rate, lifetime):
        spec = dataclasses.replace(
            with_elu_field(spec, collision_rate_per_ion=collision_rate,
                           reload_time=0.02),
            pair_lifetime=lifetime)
        a0b0, a1b1 = make_link(("A", 0), ("B", 0)), make_link(("A", 1), ("B", 1))
        a0b1, a1b0 = make_link(("A", 0), ("B", 1)), make_link(("A", 1), ("B", 0))
        schedule = [(0.0, SwitchConfig(frozenset({a0b0, a1b1}))),
                    (0.1, SwitchConfig(frozenset({a0b1, a1b0}))),
                    (0.3, SwitchConfig(frozenset({a0b0, a1b1})))]
        demand = [(0.005 + 0.015 * k, ("A", "B")) for k in range(33)]
        return spec, schedule, demand

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           collision_rate=st.sampled_from([0.0, 0.25, 1.0]),
           lifetime=st.sampled_from([None, 0.002, 0.01]),
           store_log=st.booleans(),
           splits=st.lists(st.floats(1e-9, HORIZON), min_size=1, max_size=4))
    def test_stepwise_advance_equals_one_run(self, example_spec, seed,
                                             collision_rate, lifetime,
                                             store_log, splits):
        spec, schedule, demand = self.scenario(example_spec, collision_rate,
                                               lifetime)
        sim = NetworkSim(spec, schedule, demand, seed, store_log=store_log)
        for t in sorted(splits):
            sim.advance(t)
        assert sim.finish(self.HORIZON) == run_sim(
            spec, schedule, demand, self.HORIZON, seed, store_log=store_log)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           collision_rate=st.sampled_from([0.0, 0.25, 1.0]),
           lifetime=st.sampled_from([None, 0.002, 0.01]),
           request_times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_supply_matches_one_long_stream(self, example_spec, seed,
                                            collision_rate, lifetime,
                                            request_times):
        spec, _, _ = self.scenario(example_spec, collision_rate, lifetime)
        pair = ("A", "B")
        supply = BufferedPairSupply(spec, {pair}, seed)
        delivered = [supply.request(pair, t) for t in request_times]

        link = SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))}))
        sim = NetworkSim(spec, [(0.0, link)], [], seed)
        sim.advance(2 * supply.horizon)
        stream = sim.success_times[pair]
        assert supply.sim.success_times[pair] == [
            s for s in stream if s < supply.horizon]
        expected, cursor = [], 0
        for t in request_times:
            while lifetime is not None and stream[cursor] + lifetime <= t:
                cursor += 1
            expected.append(max(t, stream[cursor]))
            cursor += 1
        assert delivered == expected

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_supply_rejects_non_finite_time(self, example_spec, t):
        supply = BufferedPairSupply(example_spec, {("A", "B")}, 0)
        with pytest.raises(DomainError, match="request time must be finite"):
            supply.request(("A", "B"), t)

    def test_finish_before_simulated_time_rejected(self, example_spec):
        sim = NetworkSim(example_spec, one_link_schedule(example_spec), [], 0)
        sim.advance(1.0)
        with pytest.raises(DomainError, match="already simulated"):
            sim.finish(0.5)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_bad_horizon_rejected(self, example_spec, horizon):
        with pytest.raises(DomainError, match="horizon must be finite and > 0"):
            run_sim(example_spec, one_link_schedule(example_spec), [], horizon, 0)

    def test_event_cap_raises_before_simulating(self, example_spec):
        # one link at R = 500 kHz with p = 1: 500,000 successes per second
        sim = NetworkSim(example_spec, one_link_schedule(example_spec), [], 0,
                         p_override=1.0)
        with pytest.raises(DomainError, match="over the cap of 10000000"):
            sim.advance(1.01 * SIM_MAX_EVENTS / 5e5)
        assert sim.now == 0.0 and sim.counters["successes"] == 0

    def test_huge_collision_rate_hits_the_cap(self, example_spec):
        spec = with_elu_field(example_spec, collision_rate_per_ion=1e300)
        with pytest.raises(DomainError, match="about 4e\\+300 random events"):
            run_sim(spec, one_link_schedule(spec), [], 0.1, 0)

    def test_non_finite_times_rejected(self, example_spec):
        cfg = SwitchConfig(frozenset({default_link(example_spec)}))
        with pytest.raises(DomainError, match="schedule times must be finite"):
            NetworkSim(example_spec, [(math.nan, cfg)], [], 0)
        with pytest.raises(DomainError, match="request times must be finite"):
            NetworkSim(example_spec, [(0.0, cfg)], [(math.inf, ("A", "B"))], 0)


class TestTheoreticalRateCheck:
    def test_p_zero_measures_zero(self, example_spec):
        rc = theoretical_rate_check(example_spec, seed=0, attempts=10_000,
                                    p_override=0.0)
        assert rc.measured_rate == 0.0
        assert rc.successes == 0

    def test_p_one_measures_attempt_rate(self, example_spec):
        rc = theoretical_rate_check(example_spec, seed=0, attempts=10_000,
                                    p_override=1.0)
        assert rc.measured_rate == example_spec.attempt_rate
        assert rc.successes == rc.attempts == 10_000

    def test_z_scores_under_three_for_default_spec(self, example_spec):
        inside = sum(
            1 for seed in range(100)
            if abs(theoretical_rate_check(example_spec, seed=seed).z_score) < 3)
        assert inside >= 99
