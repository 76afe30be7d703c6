import dataclasses
import hashlib
import json
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionfab.netsim
from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR
from ionfab.arch import load_architecture
from ionfab.cli import render_json, sim_result_doc
from ionfab.errors import CapacityError, DomainError
from ionfab.netsim import (SIM_MAX_EVENTS, LinkStats, NetworkSim, SwitchConfig,
                           _slots_before, default_link, link_label, link_pair,
                           make_link, run_sim, theoretical_rate_check)
from netsim_reference import reference_sim, slots_before

EXAMPLE = load_architecture(EXAMPLE_JSON)
PORTS = EXAMPLE.elus[0].comm_ion_indices


def one_link_schedule(spec):
    return [(0.0, SwitchConfig(frozenset({default_link(spec)})))]


def with_elu_field(spec, **kwargs):
    return dataclasses.replace(
        spec, elus=tuple(dataclasses.replace(e, **kwargs) for e in spec.elus))


def machine(n_elus, collision_rate=0.0, lifetime=None,
            attempt_rate=EXAMPLE.attempt_rate):
    """``n_elus`` copies of the example's first ELU, ids E0, E1, ..., with
    a switch port for every communication ion and a 2 ms reload."""
    elus = tuple(dataclasses.replace(EXAMPLE.elus[0], id=f"E{k}",
                                     collision_rate_per_ion=collision_rate,
                                     reload_time=2e-3)
                 for k in range(n_elus))
    switch = dataclasses.replace(EXAMPLE.switch, port_count=n_elus * len(PORTS))
    return dataclasses.replace(EXAMPLE, elus=elus, switch=switch,
                               pair_lifetime=lifetime, attempt_rate=attempt_rate)


def round_robin(ids, dwell, horizon):
    """The circle-method perfect matchings of an even number of ELUs, every
    port of each matched pair linked, cycled every ``dwell`` seconds."""
    n = len(ids)
    configs = []
    for r in range(n - 1):
        pairs = [(r, n - 1)] + [((r + k) % (n - 1), (r - k) % (n - 1))
                                for k in range(1, n // 2)]
        configs.append(SwitchConfig(frozenset(
            make_link((ids[a], p), (ids[b], p)) for a, b in pairs for p in PORTS)))
    return [(k * dwell, configs[k % len(configs)])
            for k in range(round(horizon / dwell))]


@st.composite
def matchings(draw, ids):
    """Ports shuffled and paired across ELUs, each pair kept as a link or not."""
    free = list(draw(st.permutations([(e, p) for e in ids for p in PORTS])))
    links = set()
    while free:
        a = free.pop()
        b = next((q for q in free if q[0] != a[0]), None)
        if b is not None:
            free.remove(b)
            if draw(st.booleans()):
                links.add(make_link(a, b))
    return SwitchConfig(frozenset(links))


@st.composite
def multiplexed_runs(draw):
    """``(spec, schedule, demand, horizon, p)`` of a random multiplexed run.

    A pool of matchings is entered in random order with dwells from zero
    (two entries at one time) to 2.5 reconfiguration times; collisions,
    expiry and requests are optional. The attempt rate is 20 kHz, so runs
    at p = 1 stay small.
    """
    ids = [f"E{k}" for k in range(draw(st.integers(2, 4)))]
    pool = draw(st.lists(matchings(ids), min_size=1, max_size=4))
    t = draw(st.sampled_from([0.0, 5e-4]))
    schedule = []
    for _ in range(draw(st.integers(1, 12))):
        schedule.append((t, draw(st.sampled_from(pool))))
        t += draw(st.sampled_from([0.0, 2e-4, 1e-3, 2.5e-3]))
    horizon = t + draw(st.sampled_from([1e-3, 5e-3]))
    spec = machine(len(ids),
                   collision_rate=draw(st.sampled_from([0.0, 0.5, 5.0])),
                   lifetime=draw(st.sampled_from([None, 2e-3])),
                   attempt_rate=2e4)
    pairs = sorted({link_pair(link) for _, cfg in schedule
                    for link in cfg.active_links})
    demand = draw(st.lists(st.tuples(st.floats(0.0, horizon),
                                     st.sampled_from(pairs)), max_size=20)
                  ) if pairs else []
    p = draw(st.sampled_from([0.01, 0.2, 1.0]))
    return spec, schedule, demand, horizon, p


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

    def test_a_repeated_configuration_changes_nothing(self):
        # the repeat is an equal SwitchConfig built anew, with each link
        # given in reversed orientation, at an equal time and later
        spec = machine(4, collision_rate=0.5, lifetime=2e-3, attempt_rate=2e4)
        ends = [(("E0", 0), ("E1", 0)), (("E2", 1), ("E3", 0))]
        cfg = SwitchConfig(frozenset(make_link(a, b) for a, b in ends))
        again = SwitchConfig(frozenset((b, a) for a, b in ends))
        assert again == cfg and again is not cfg
        other = SwitchConfig(frozenset({make_link(("E0", 0), ("E2", 0))}))
        schedule = [(0.0, cfg), (2e-3, other), (5e-3, cfg)]
        demand = [(1e-3 * k, ("E1", "E0") if k % 2 else ("E2", "E3"))
                  for k in range(12)]

        def report(schedule):
            r = run_sim(spec, schedule, demand, 0.02, seed=3, p_override=0.2,
                        store_log=True)
            return r.ledger, r.per_link, r.events_csv()

        assert report(schedule + [(5e-3, again), (8e-3, again)]) == report(schedule)

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

    def test_first_counts_are_drawn_when_the_sim_is_built(self):
        # Only E0 collides, so its first gap is the first draw. At t1 the
        # switch adds Y = E0.0-E1.0, X = E1.1-E2.1 and Z = E1.18-E2.18 and
        # removes Z again before its reconfiguration ends: Z has no window
        # and draws nothing. The next draws are the counts of Y and X, in
        # link order, though X opens first, at the reconfiguration end, and
        # Y, whose ELU still reloads, at the reload end. Seed 14 puts E0's
        # one collision before t1; it draws the next gap, and X's first
        # success draws the draw after that.
        spec = machine(3)
        spec = dataclasses.replace(spec, elus=(dataclasses.replace(
            spec.elus[0], collision_rate_per_ion=1.0, reload_time=0.05),
            *spec.elus[1:]))
        y, x, z = (make_link(("E0", 0), ("E1", 0)), make_link(("E1", 1), ("E2", 1)),
                   make_link(("E1", 18), ("E2", 18)))
        Y, X, Z = map(link_label, (y, x, z))
        t1, reconf, rate = 0.01, spec.switch.reconfiguration_time, spec.attempt_rate
        schedule = [(0.0, SwitchConfig(frozenset())),
                    (t1, SwitchConfig(frozenset({y, x, z}))),
                    (t1 + reconf / 2, SwitchConfig(frozenset({y, x})))]
        r = run_sim(spec, schedule, [], 0.065, seed=14, p_override=0.01,
                    store_log=True)
        rng = random.Random(14)

        def draw_count():
            return int(math.log(1.0 - rng.random()) / math.log1p(-0.01))

        (collision,) = [e.time for e in r.events if e.kind == "COLLISION"]
        (reload_done,) = [e.time for e in r.events if e.kind == "RELOAD_DONE"]
        assert collision == -math.log(1.0 - rng.random()) / 20.0
        assert collision < t1 and reload_done == collision + 0.05
        k_y, k_x = draw_count(), draw_count()
        rng.random()  # the collision's next gap
        k_next = draw_count()
        assert [e.link for e in r.events if e.kind == "RECONFIG_DONE"] == [X]
        successes = [(e.link, e.time) for e in r.events if e.kind == "SUCCESS"]
        assert successes[:2] == [(X, t1 + reconf + (k_x + 1) / rate),
                                 (X, t1 + reconf + (k_x + 1 + k_next + 1) / rate)]
        assert min(t for label, t in successes if label == Y) == (
            reload_done + (k_y + 1) / rate)
        assert r.per_link[Z] == LinkStats(0, 0, 0.0)

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
    The same run without a log, which drops expired pairs only when it reads
    a buffer, must report the same.
    """

    def run(self, spec, n_pairs, demand, **fields):
        spec = dataclasses.replace(spec, **fields)
        on = SwitchConfig(frozenset({default_link(spec)}))
        off = SwitchConfig(frozenset())
        schedule = [(0.0, on), ((n_pairs + 0.5) / spec.attempt_rate, off)]
        def sim(store_log):
            return run_sim(spec, schedule, [(t, ("A", "B")) for t in demand],
                           horizon=1.0, seed=0, p_override=1.0, store_log=store_log)

        logged = sim(True)
        assert sim(False) == dataclasses.replace(logged, events=None)
        return logged

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

    def test_request_at_the_only_pair_expiry_waits(self, example_spec):
        rate = example_spec.attempt_rate
        expiry = 1 / rate + 2 / rate
        r = self.run(example_spec, 1, [expiry], pair_lifetime=2 / rate)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("PAIR_EXPIRED", expiry), ("PAIR_REQUEST", expiry)]
        assert (r.ledger.expired, r.ledger.delivered, r.requests_served) == (1, 0, 0)

    def test_full_buffer_drops_the_newest_pair(self, example_spec):
        rate, lifetime = example_spec.attempt_rate, 1e-4
        r = self.run(example_spec, 2, [], buffer_capacity=1,
                     pair_lifetime=lifetime)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("SUCCESS", 2 / rate),
            ("PAIR_EXPIRED", 1 / rate + lifetime)]
        assert (r.ledger.overflow_dropped, r.ledger.expired) == (1, 1)

    def test_success_at_the_head_expiry_finds_the_buffer_full(self, example_spec):
        rate = example_spec.attempt_rate
        r = self.run(example_spec, 2, [], buffer_capacity=1, pair_lifetime=1 / rate)
        assert self.rows(r) == [
            ("SUCCESS", 1 / rate), ("SUCCESS", 2 / rate),
            ("PAIR_EXPIRED", 2 / rate)]
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

    def test_missing_seed_rejected(self, example_spec):
        # no hidden entropy: a None seed would seed from the OS
        with pytest.raises(DomainError, match="requires a seed"):
            run_sim(example_spec, one_link_schedule(example_spec), [], 1e-3,
                    seed=None)

    def test_equal_time_requests_queue_in_demand_order(self, example_spec):
        # every attempt succeeds: at 2 us and 4 us on the example's 500 kHz clock
        r = run_sim(example_spec, one_link_schedule(example_spec),
                    [(2e-6, ("A", "B")), (2e-6, ("B", "A"))], horizon=5e-6,
                    seed=0, p_override=1.0, store_log=True)
        assert [(e.kind, e.time) for e in r.events] == [
            ("SUCCESS", 2e-6), ("PAIR_REQUEST", 2e-6), ("PAIR_DELIVERED", 2e-6),
            ("PAIR_REQUEST", 2e-6), ("SUCCESS", 4e-6), ("PAIR_DELIVERED", 4e-6)]
        assert (r.latency_mean, r.latency_max) == (1e-6, 2e-6)

    def test_equal_time_successes_in_link_order(self, example_spec):
        # Power-of-two times, so every sum below is exact. X = A.0-B.0 is on
        # from t = 0; the second entry adds Y = A.1-B.1 and Z = A.18-B.18,
        # which open together at s, when X is mid-window. At p = 1 all three
        # succeed on every slot after s, in sorted link order.
        rate, reconf, t1 = 2.0 ** 16, 2.0 ** -10, 2.0 ** -8
        spec = dataclasses.replace(example_spec, attempt_rate=rate,
                                   switch=dataclasses.replace(
                                       example_spec.switch,
                                       reconfiguration_time=reconf))
        x, y, z = (make_link(("A", p), ("B", p)) for p in (0, 1, 18))
        schedule = [(0.0, SwitchConfig(frozenset({x}))),
                    (t1, SwitchConfig(frozenset({x, y, z})))]
        s = t1 + reconf
        r = run_sim(spec, schedule, [], s + 3.5 / rate, seed=0,
                    p_override=1.0, store_log=True)
        X, Y, Z = map(link_label, (x, y, z))
        assert [(e.time, e.kind, e.link) for e in r.events if e.time >= s] == [
            (s, "RECONFIG_DONE", Y), (s, "RECONFIG_DONE", Z), (s, "SUCCESS", X),
            *[(s + j / rate, "SUCCESS", label)
              for j in (1, 2, 3) for label in (X, Y, Z)]]

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

    def test_unconnectable_pair_named_as_given(self, example_spec):
        with pytest.raises(DomainError, match=r"pair \('Z', 'A'\) that no"):
            run_sim(example_spec, one_link_schedule(example_spec),
                    [(0.0, ("Z", "A"))], 1.0, seed=0)

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
        expected = 0.5 + example_spec.switch.reconfiguration_time \
            + 1.0 / example_spec.attempt_rate
        # A few attempt periods past the expected first success of link2.
        horizon = expected + 3.0 / example_spec.attempt_rate
        r = run_sim(example_spec, schedule, [], horizon, seed=0, p_override=1.0,
                    store_log=True)
        lbl2 = link_label(link2)
        first = next(e for e in r.events
                     if e.kind == "SUCCESS" and e.link == lbl2)
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


def reference_events_csv(events):
    """The log writer's reference: one ``%``-format of each whole row."""
    rows = ["time_s,kind,link,elu_a,elu_b,seq\n"]
    rows.extend("%r,%s,%s,%s,%s,%d\n" % ev for ev in events)
    return "".join(rows)


# The ``simulate`` goldens: fixture name, horizon and seed.
FIXTURE_RUNS = [("netsim", 0.5, 11), ("multiplex", 0.2, 5)]


def fixture_inputs(name):
    """``(spec, schedule, demand)`` of the ``<name>_*.json`` fixtures."""
    def read(part):
        return json.loads((FIXTURES_DIR / f"{name}_{part}.json").read_text())

    schedule = [(e["time_s"], SwitchConfig(frozenset(
        make_link((a, pa), (b, pb)) for a, pa, b, pb in e["links"])))
                for e in read("schedule")]
    demand = [(e["time_s"], tuple(e["elus"])) for e in read("demand")]
    return load_architecture(FIXTURES_DIR / f"{name}_arch.json"), schedule, demand


def fixture_run(name, horizon, seed):
    """The logged run of the ``<name>_*.json`` fixtures."""
    return run_sim(*fixture_inputs(name), horizon, seed, store_log=True)


class TestEventsCsv:
    """The log writer equals its reference byte for byte."""

    @pytest.mark.parametrize("name, horizon, seed", FIXTURE_RUNS)
    def test_fixture_logs_match_the_reference(self, name, horizon, seed):
        r = fixture_run(name, horizon, seed)
        assert {e.kind for e in r.events} == {
            "SUCCESS", "PAIR_REQUEST", "PAIR_DELIVERED", "PAIR_EXPIRED",
            "RECONFIG_DONE", "COLLISION", "RELOAD_DONE"}
        text = r.events_csv()
        assert text == reference_events_csv(r.events)
        assert text.encode() == (
            GOLDEN_DIR / f"simulate_{name}_events.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(run=multiplexed_runs(), seed=st.integers(0, 2**31 - 1))
    def test_multiplexed_logs_match_the_reference(self, run, seed):
        spec, schedule, demand, horizon, p = run
        r = run_sim(spec, schedule, demand, horizon, seed, p, store_log=True)
        assert r.events_csv() == reference_events_csv(r.events)

    def test_negative_zero_keeps_its_sign(self, example_spec):
        # 0.0 == -0.0, so a writer that compared times with == would
        # print the second request's time as 0.0
        r = run_sim(example_spec, one_link_schedule(example_spec),
                    [(0.0, ("A", "B")), (-0.0, ("A", "B"))], 1e-3, seed=0,
                    store_log=True)
        text = r.events_csv()
        assert text == reference_events_csv(r.events)
        assert text.splitlines()[1:3] == ["0.0,PAIR_REQUEST,,A,B,0",
                                          "-0.0,PAIR_REQUEST,,A,B,1"]


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

    @settings(max_examples=60, deadline=None)
    @given(run=multiplexed_runs(), seed=st.integers(0, 2**31 - 1),
           store_log=st.booleans(),
           splits=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
    def test_stepwise_advance_equals_one_run_multiplexed(self, run, seed,
                                                         store_log, splits):
        spec, schedule, demand, horizon, p = run
        sim = NetworkSim(spec, schedule, demand, seed, p_override=p,
                         store_log=store_log)
        for fraction in sorted(splits):
            sim.advance(fraction * horizon)
        assert sim.finish(horizon) == run_sim(spec, schedule, demand, horizon,
                                              seed, p, store_log)

    @settings(max_examples=100, deadline=None)
    @given(run=multiplexed_runs(), seed=st.integers(0, 2**31 - 1))
    def test_every_attempt_succeeds_at_p_one(self, run, seed):
        # a success wrongly left unqueued leaves its link open with its
        # attempts counted at the close but no success for them
        spec, schedule, demand, horizon, _ = run
        r = run_sim(spec, schedule, demand, horizon, seed, p_override=1.0)
        assert r.ledger.conserved
        assert {label: s.attempts for label, s in r.per_link.items()} == {
            label: s.successes for label, s in r.per_link.items()}

    @staticmethod
    def count_queued(monkeypatch):
        """A Counter of the events queued from now on, by kind, counted at
        the heap, which every queued event enters."""
        queued = Counter()
        heappush = ionfab.netsim.heappush

        def counting_heappush(heap, entry):
            queued[entry[4]] += 1  # (time, priority, tie, order, kind, payload)
            heappush(heap, entry)

        monkeypatch.setattr(ionfab.netsim, "heappush", counting_heappush)
        return queued

    def test_queues_only_events_that_can_happen(self, monkeypatch):
        # collision-free, so every queued success fires, is cut off by the
        # horizon (one per link at most) or was never queued; without a log,
        # buffers drop their expired pairs when read and queue no expiry,
        # and no reconfiguration end is queued.
        spec = machine(6, lifetime=1e-3)
        schedule = round_robin(spec.elu_ids(), 0.005, 1.0)
        queued = self.count_queued(monkeypatch)
        r = run_sim(spec, schedule, [], 1.0, seed=7)
        assert r.ledger.successes > 500
        assert r.ledger.expired > 0
        assert (r.ledger.successes <= queued["SUCCESS"]
                <= r.ledger.successes + len(r.per_link))
        assert queued["RECONFIG_DONE"] == queued["PAIR_EXPIRED"] == 0

    def test_a_collision_leaves_a_switched_off_link_alone(self, monkeypatch):
        # A.0-B.0 is added at 0.2 s and opens at 0.201 s, after the horizon;
        # the collisions of A and B before then each end their 10 ms reload
        # by 0.2 s, so none touches the link's windows or re-queues its one
        # success, queued when the sim was built. Without a log no reload
        # end is queued.
        spec = with_elu_field(EXAMPLE, collision_rate_per_ion=1.0, reload_time=0.01)
        schedule = [(0.0, SwitchConfig(frozenset())),
                    (0.2, SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))})))]
        queued = self.count_queued(monkeypatch)
        r = run_sim(spec, schedule, [], 0.19, seed=1)
        assert r.collisions > 2
        assert queued["SUCCESS"] == 1 and queued["RELOAD_DONE"] == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           collision_rate=st.sampled_from([0.0, 0.25, 1.0]),
           lifetime=st.sampled_from([None, 0.002, 0.01]),
           request_times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_supply_matches_one_long_stream(self, example_spec, seed,
                                            collision_rate, lifetime,
                                            request_times):
        """NetworkSim.request against an oracle read off one logged run:
        each request takes the first success after the last one taken that
        is unexpired at t and younger than the last collision at or before
        t, else it waits for the next success."""
        spec, _, _ = self.scenario(example_spec, collision_rate, lifetime)
        schedule = [(0.0, SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))})))]
        sim = NetworkSim(spec, schedule, [], seed)
        delivered = [sim.request(("A", "B"), t) for t in request_times]

        events = run_sim(spec, schedule, [], 5.0, seed, store_log=True).events
        stream = [e.time for e in events if e.kind == "SUCCESS"]
        collisions = [e.time for e in events if e.kind == "COLLISION"]
        assert sim.success_times[("A", "B")] == [s for s in stream if s < sim.now]
        expected, cursor = [], 0
        for t in request_times:
            last_collision = max([c for c in collisions if c <= t], default=-1.0)
            while not (stream[cursor] > last_collision and (
                    lifetime is None or stream[cursor] + lifetime > t)):
                cursor += 1
            expected.append(max(t, stream[cursor]))
            cursor += 1
        assert delivered == expected

    def test_supply_refuses_a_pair_the_schedule_removes_for_good(self):
        # A.0-B.0 from t = 0 until the switch replaces it with A.0-C.0; the
        # event cap would be reached after 80,000 s of A-C successes
        spec = load_architecture(FIXTURES_DIR / "multiplex_arch.json")
        schedule = [(0.0, SwitchConfig(frozenset({make_link(("A", 0), ("B", 0))}))),
                    (0.01, SwitchConfig(frozenset({make_link(("A", 0), ("C", 0))})))]
        sim = NetworkSim(spec, schedule, [], 1)
        started = time.process_time()
        with pytest.raises(DomainError, match=r"^request for ELU pair \('A', 'B'\) "
                           r"at 1\.0 s gets none: the switch schedule removes its "
                           r"last link at 0\.01 s$"):
            sim.request(("A", "B"), 1.0)
        assert time.process_time() - started < 1.0

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_supply_rejects_non_finite_time(self, example_spec, t):
        sim = NetworkSim(example_spec, one_link_schedule(example_spec), [], 0)
        with pytest.raises(DomainError, match="request time must be finite"):
            sim.request(("A", "B"), t)

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

    @pytest.mark.parametrize("p", [None, 0.0])
    def test_a_window_ending_near_1e300_s_is_counted(self, example_spec, p):
        # slot times near 1e300 s are floats that one slot no longer moves;
        # at p = 0 no event cap bounds the run
        schedule = one_link_schedule(example_spec) + [(1e300, SwitchConfig(frozenset()))]
        started = time.process_time()
        assert run_sim(example_spec, schedule, [], 1.0, 0, p_override=p) == run_sim(
            example_spec, one_link_schedule(example_spec), [], 1.0, 0, p_override=p)
        assert time.process_time() - started < 1.0

    def test_a_horizon_of_1e300_s_counts_its_attempts(self, example_spec):
        r = run_sim(example_spec, one_link_schedule(example_spec), [], 1e300, 0,
                    p_override=0.0)
        (attempts,) = [s.attempts for s in r.per_link.values()]
        assert attempts / 5e5 < 1e300 <= (attempts + 1) / 5e5

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

    def test_negative_times_rejected(self, example_spec):
        # a negative time opens no window, so the run read as valid but idle
        cfg = SwitchConfig(frozenset({default_link(example_spec)}))
        with pytest.raises(DomainError,
                           match=r"^switch schedule times must be >= 0, got -1\.0$"):
            NetworkSim(example_spec, [(-1.0, cfg)], [], 0)
        with pytest.raises(DomainError,
                           match=r"^request times must be >= 0, got -0\.5$"):
            NetworkSim(example_spec, [(0.0, cfg)], [(-0.5, ("A", "B"))], 0)


class TestTheoreticalRateCheck:
    def test_underflowing_p_measures_zero(self, example_spec):
        spec = dataclasses.replace(example_spec, collection_fraction=1e-170)
        rc = theoretical_rate_check(spec)
        assert (rc.attempts, rc.successes, rc.measured_rate, rc.z_score) == \
            (1_000_000, 0, 0.0, 0.0)

    def test_collision_before_the_first_attempt_measures_zero(self, example_spec):
        # seed 15 collides within the first 2 us; the 10 s reload outlasts the run
        spec = with_elu_field(example_spec, collision_rate_per_ion=2e3,
                              reload_time=10.0)
        rc = theoretical_rate_check(spec, seed=15)
        assert (rc.attempts, rc.measured_rate, rc.z_score) == (0, 0.0, 0.0)

    def test_z_scores_under_three_for_default_spec(self, example_spec):
        inside = sum(
            1 for seed in range(100)
            if abs(theoretical_rate_check(example_spec, seed=seed).z_score) < 3)
        assert inside >= 99


class TestSlotsBefore:
    """The simulator's slot count against its definition: the largest
    j >= 0 with start + j/rate < t."""

    @staticmethod
    def fires(start, rate, t, j):
        return start + j / rate < t

    @settings(max_examples=300)
    @given(m=st.integers(0, 10**6), k=st.integers(1, 3000),
           rate=st.sampled_from([2e4, 3e5, 5e5, 1e6]) | st.floats(1.0, 1e7),
           ulps=st.sampled_from([-2, -1, 0, 0, 0, 1, 2]))
    def test_lattice_ends_match_a_scan_from_zero(self, m, k, rate, ulps):
        # a window from slot time m/rate to k slots later, nudged by ulps
        start = m / rate
        t = start + k / rate
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        j = 0
        while self.fires(start, rate, t, j + 1):
            j += 1
        assert _slots_before(start, rate, t) == (j if t > start else 0)

    @settings(max_examples=300)
    @given(start=st.just(0.0) | st.floats(1e290, 1e300),
           span=st.floats(1e-300, 1e300) | st.just(0.0),
           rate=st.sampled_from([1.0, 2e4, 5e5, 1e9]) | st.floats(1e-3, 1e9))
    def test_times_near_1e300(self, start, span, rate):
        # span 0.0 stands for one ulp past the start
        t = start + span if span else math.nextafter(start, math.inf)
        j = _slots_before(start, rate, t)
        if t <= start:
            assert j == 0
        elif j == math.inf:
            assert (t - start) * rate == math.inf
        else:
            assert j >= 0 and self.fires(start, rate, t, j)
            assert not self.fires(start, rate, t, j + 1)


def reference_layout(spec, schedule):
    """Each link's attempt windows, walked entry by entry and link by link.

    Returns ``(windows, slots, pair_end, ends, dropped)``: each link's
    windows (start, end, slots) and running slot totals by label, the end
    of each ELU pair's last window, each later entry that adds links as
    (reconfiguration end, labels of the links it opens), and a Counter of
    the windows a removal drops before they open, by the entry that opens
    them. A window opens at the first entry, or at the reconfiguration end
    of the entry that adds the link, and closes at the next entry that
    removes it; one removed before it opens is dropped, and a
    reconfiguration end that would open it no longer lists the link.
    """
    rate, reconf = spec.attempt_rate, spec.switch.reconfiguration_time
    links = sorted({link for _, cfg in schedule for link in cfg.active_links})
    windows = {link: [] for link in links}
    ends, opened_by, dropped = [], {}, Counter()
    prev = frozenset()
    for k, (t, cfg) in enumerate(schedule):
        for link in links:
            if link in prev and link not in cfg.active_links:
                start = windows[link][-1][0]
                if start < t:
                    windows[link][-1] = (start, t, slots_before(start, rate, t))
                else:
                    windows[link].pop()
                    j = opened_by.pop(link, None)
                    dropped["first entry" if j is None else "later entry"] += 1
                    if j is not None:
                        ends[j][1].remove(link)
        added = [link for link in links if link in cfg.active_links - prev]
        for link in added:
            windows[link].append((t + reconf if k else t, math.inf, math.inf))
            if k:
                opened_by[link] = len(ends)
        if k and added:
            ends.append((t + reconf, added))
        prev = cfg.active_links
    slots, pair_end = {}, {}
    for link, ws in windows.items():
        end = ws[-1][1] if ws else 0.0
        if end < math.inf:
            ws.append((math.inf, math.inf, math.inf))
        pair_end[link_pair(link)] = max(pair_end.get(link_pair(link), 0.0), end)
        slots[link] = [0]
        for w in ws:
            slots[link].append(slots[link][-1] + w[2])
    return ({link_label(link): ws for link, ws in windows.items()},
            {link_label(link): s for link, s in slots.items()},
            pair_end,
            [(resume, [link_label(link) for link in added]) for resume, added in ends],
            dropped)


def sim_layout(sim):
    """The layout of a NetworkSim in the shape of :func:`reference_layout`."""
    return ({st.label: st.windows for st in sim.links.values()},
            {st.label: st.slots for st in sim.links.values()},
            sim.pair_end,
            [(resume, [st.label for st in opened]) for resume, opened in sim.ends])


def layout_schedule(k):
    """Seeded switch schedule k for the layout oracle: ``(spec, schedule)``.

    2-6 ELUs of the example machine (R = 500 kHz) under 2-5 configurations,
    each a random subset of one of two random matchings, so configurations
    share some links but not others, and links switch together in groups
    of one link up to a whole matching. Dwells of zero (equal entry times),
    half the reconfiguration time (a link removed before it opens), twice
    it, and uniform, off the 1/R lattice.
    """
    rng = random.Random(k)
    n = rng.randint(2, 6)
    ids = [f"E{i}" for i in range(n)]
    reconf = rng.choice([1e-4, 5e-4, 1e-3])
    spec = machine(n)
    spec = dataclasses.replace(spec, switch=dataclasses.replace(
        spec.switch, reconfiguration_time=reconf))
    bases = []
    for _ in range(2):
        free = [(e, p) for e in ids for p in PORTS]
        rng.shuffle(free)
        links = []
        while free:
            a = free.pop()
            b = next((q for q in free if q[0] != a[0]), None)
            if b is not None:
                free.remove(b)
                links.append(make_link(a, b))
        bases.append(links)
    pool = [SwitchConfig(frozenset(link for link in rng.choice(bases)
                                   if rng.random() < 0.6))
            for _ in range(rng.randint(2, 5))]
    t = rng.choice([0.0, 3e-4])
    schedule = []
    for _ in range(rng.randint(1, 12)):
        schedule.append((t, rng.choice(pool)))
        t += rng.choice([0.0, reconf / 2, 2 * reconf, rng.uniform(0.0, 3 * reconf)])
    return spec, schedule


class TestWindowLayout:
    """The windows a NetworkSim lays out, against :func:`reference_layout`."""

    def test_layout_matches_the_entry_walk(self):
        moved, dropped, group_sizes, shared = [], Counter(), Counter(), 0
        for k in range(300):
            spec, schedule = layout_schedule(k)
            *layout, drops = reference_layout(spec, schedule)
            if sim_layout(NetworkSim(spec, schedule, [], 0)) != tuple(layout):
                moved.append(k)
            dropped += drops
            # links with equal windows switch together
            group_sizes.update(Counter(map(tuple, layout[0].values())).values())
            configs = {cfg.active_links for _, cfg in schedule}
            shared += any(a & b and a != b for a in configs for b in configs)
        assert moved == []
        # the schedules reach every case the layout handles
        assert dropped["first entry"] and dropped["later entry"]
        assert group_sizes[1] and max(group_sizes) >= 6
        assert shared > 100

    def test_links_own_their_layout_after_collisions(self):
        # round_robin's first matching switches the E0-E3 and E1-E2 links
        # together; only E0 collides, which cuts its links' windows, while
        # the E1-E2 links keep the layout of the group
        spec = machine(4)
        spec = dataclasses.replace(spec, elus=(dataclasses.replace(
            spec.elus[0], collision_rate_per_ion=5.0), *spec.elus[1:]))
        schedule = round_robin(spec.elu_ids(), 0.005, 0.1)
        windows, *_ = reference_layout(spec, schedule)
        sim = NetworkSim(spec, schedule, [], 1)

        def owned():
            states = sim.links.values()
            return (len({id(st.windows) for st in states})
                    == len({id(st.slots) for st in states}) == len(states))

        assert owned()
        r = sim.finish(0.1)
        assert owned() and r.collisions > 5
        for st in sim.links.values():
            if st.pair == ("E0", "E3"):
                assert st.windows != windows[st.label]
            elif st.pair == ("E1", "E2"):
                assert st.windows == windows[st.label]
                assert windows[st.label] == windows["E0.0-E3.0"]


def scenario(k):
    """Seeded multiplexed run k:``(spec, schedule, demand, horizon, p,
    store_log, splits)``, drawn from ``random.Random(k)``.

    2-8 ELUs at a 20 kHz attempt rate under round-robin or random
    matchings; dwells of zero (equal entry times), shorter than the
    reconfiguration time and longer; collision rates 0, 0.5 and 5 /s per
    ion; lifetimes None, 2 ms and 10 ms; demand in input order with
    equal-time requests; half the runs logged, and some advanced in steps.
    """
    rng = random.Random(k)
    n = rng.randint(2, 8)
    ids = [f"E{i}" for i in range(n)]
    reconf = rng.choice([1e-4, 5e-4, 1e-3])
    spec = machine(n, collision_rate=rng.choice([0.0, 0.5, 5.0]),
                   lifetime=rng.choice([None, 2e-3, 1e-2]), attempt_rate=2e4)
    spec = dataclasses.replace(spec, switch=dataclasses.replace(
        spec.switch, reconfiguration_time=reconf))
    if rng.random() < 0.5:
        # circle method, with a bye for an odd count
        slots = ids + [None] * (n % 2)
        m = len(slots)
        pool = []
        for r in range(m - 1):
            pairs = [(r, m - 1)] + [((r + j) % (m - 1), (r - j) % (m - 1))
                                    for j in range(1, m // 2)]
            pool.append(SwitchConfig(frozenset(
                make_link((slots[a], p), (slots[b], p)) for a, b in pairs
                if slots[a] and slots[b] for p in PORTS)))
    else:
        pool = []
        for _ in range(rng.randint(1, 4)):
            free = [(e, p) for e in ids for p in PORTS]
            rng.shuffle(free)
            links = set()
            while free:
                a = free.pop()
                b = next((q for q in free if q[0] != a[0]), None)
                if b is not None:
                    free.remove(b)
                    if rng.random() < 0.7:
                        links.add(make_link(a, b))
            pool.append(SwitchConfig(frozenset(links)))
    t = rng.choice([0.0, 3e-4])
    schedule = []
    for j in range(rng.randint(1, 10)):
        schedule.append((t, pool[j % len(pool)] if rng.random() < 0.7
                         else rng.choice(pool)))
        t += rng.choice([0.0, reconf / 2, 2 * reconf, 2.5e-3])
    horizon = t + rng.choice([1e-3, 5e-3])
    pairs = sorted({link_pair(link) for _, cfg in schedule
                    for link in cfg.active_links})
    demand = []
    for _ in range(rng.randint(0, 30) if pairs else 0):
        at = (rng.randint(0, 20) * horizon / 20 if rng.random() < 0.5
              else rng.uniform(0.0, horizon))
        demand.append((at, rng.choice(pairs)[::rng.choice([1, -1])]))
    p = rng.choice([0.01, 0.2, 1.0])
    store_log = rng.random() < 0.5
    splits = sorted(rng.uniform(0.0, horizon) for _ in range(rng.choice([0, 0, 2])))
    return spec, schedule, demand, horizon, p, store_log, splits


def long_window_scenario(k):
    """Seeded run k in the time-multiplexed regime, drawn from
    ``random.Random(k)`` in the shape :func:`scenario` returns.

    4, 6 or 8 ELUs of the example machine (R = 500 kHz, p = 2e-4) under
    round-robin matchings held 5 ms each with a 1 ms reconfiguration, so
    each link spans tens of windows of up to 2,000 slots; in half the runs
    every entry time is jittered by up to 0.2 ms, which puts window starts
    off the 1/R lattice, and in the rest window ends fall on it. Collision
    rates 0, 0.5 and 5 /s per ion, lifetimes None, 1 ms and 20 ms, Poisson
    demand at 0, 100 or 1,000 /s; even runs logged, and some advanced in
    steps.
    """
    rng = random.Random(k)
    spec = machine(rng.choice([4, 6, 8]),
                   collision_rate=rng.choice([0.0, 0.5, 5.0]),
                   lifetime=rng.choice([None, 1e-3, 2e-2]))
    horizon = rng.uniform(0.3, 1.0)
    jitter = rng.choice([0.0, 2e-4])
    schedule = [(t + rng.uniform(0.0, jitter), cfg)
                for t, cfg in round_robin(spec.elu_ids(), 0.005, horizon)]
    pairs = sorted({link_pair(link) for _, cfg in schedule
                    for link in cfg.active_links})
    demand, rate = [], rng.choice([0.0, 100.0, 1000.0])
    t = rng.expovariate(rate) if rate else horizon
    while t < horizon:
        demand.append((t, rng.choice(pairs)[::rng.choice([1, -1])]))
        t += rng.expovariate(rate)
    splits = sorted(rng.uniform(0.0, horizon) for _ in range(rng.choice([0, 2])))
    return spec, schedule, demand, horizon, None, k % 2 == 0, splits


def report_doc(r):
    """What a result reports but its event log: ledger, per-link stats,
    collisions, requests and latencies."""
    return [dataclasses.astuple(r.ledger),
            [[label, s.attempts, s.successes, s.measured_rate]
             for label, s in r.per_link.items()],
            r.collisions, r.request_count, r.requests_served,
            r.latency_mean, r.latency_max]


def scenario_report(run, seed, store_log):
    """What ``run`` reports but its event log, and the run's result."""
    spec, schedule, demand, horizon, p, _, splits = run
    sim = NetworkSim(spec, schedule, demand, seed=seed, p_override=p,
                     store_log=store_log)
    for t in splits:
        sim.advance(t)
    r = sim.finish(horizon)
    return report_doc(r), r


def reference_result(run, seed):
    """:func:`reference_sim` of ``run``, its log kept only if the run keeps
    one."""
    spec, schedule, demand, horizon, p, store_log, _ = run
    r = reference_sim(spec, schedule, demand, horizon, seed, p)
    return r if store_log else dataclasses.replace(r, events=None)


def result_digest(r):
    """sha256 of everything ``r`` reports, its event log included when
    the run kept one."""
    doc = report_doc(r)
    doc.append(r.events_csv() if r.events is not None else None)
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def scenario_digest(run, seed):
    return result_digest(scenario_report(run, seed, run[5])[1])


# The pinned digest files: the scenarios of each, and how many.
DIGEST_GOLDENS = {"netsim_scenarios.json": (scenario, 300),
                  "netsim_long_windows.json": (long_window_scenario, 20)}


def write_golden():
    """Regenerate the pinned digests and the ``simulate`` goldens from
    :func:`reference_sim`, only for a change meant to move them."""
    for name, (make, n) in DIGEST_GOLDENS.items():
        digests = [result_digest(reference_result(make(k), k)) for k in range(n)]
        items = [f'"{k}": "{digest}"' for k, digest in enumerate(digests)]
        (GOLDEN_DIR / name).write_text("{\n" + ",\n".join(items) + "\n}\n")
    for name, horizon, seed in FIXTURE_RUNS:
        r = reference_sim(*fixture_inputs(name), horizon, seed)
        (GOLDEN_DIR / f"simulate_{name}_report.json").write_text(
            render_json(sim_result_doc(r)))
        (GOLDEN_DIR / f"simulate_{name}_events.csv").write_text(r.events_csv())


class TestReferenceSim:
    """The engine against :func:`reference_sim`, a plain simulation of the
    same contract with one event per switch entry, reconfiguration end,
    reload end, success, collision, expiry and request."""

    @pytest.mark.parametrize("name", sorted(DIGEST_GOLDENS))
    def test_scenarios_match_the_reference(self, name):
        make, n = DIGEST_GOLDENS[name]
        moved = [k for k in range(n) if scenario_report(make(k), k, make(k)[5])[1]
                 != reference_result(make(k), k)]
        assert moved == []

    @pytest.mark.parametrize("name, horizon, seed", FIXTURE_RUNS)
    def test_fixtures_match_the_reference(self, name, horizon, seed):
        assert fixture_run(name, horizon, seed) == reference_sim(
            *fixture_inputs(name), horizon, seed)

    @settings(max_examples=100, deadline=None)
    @given(run=multiplexed_runs(), seed=st.integers(0, 2**31 - 1))
    def test_multiplexed_runs_match_the_reference(self, run, seed):
        spec, schedule, demand, horizon, p = run
        assert run_sim(spec, schedule, demand, horizon, seed, p, store_log=True) == (
            reference_sim(spec, schedule, demand, horizon, seed, p))


class TestScenarioDigests:
    """Pinned outputs of seeded multiplexed runs: any change to the event
    order, the draw order or the attempt count moves a digest."""

    def test_digests_unchanged(self):
        pinned = json.loads((GOLDEN_DIR / "netsim_scenarios.json").read_text())
        assert len(pinned) >= 200
        moved = [k for k, digest in pinned.items()
                 if scenario_digest(scenario(int(k)), int(k)) != digest]
        assert moved == []

    def test_a_log_changes_no_report(self):
        # A logged run queues each expiry to write its row; a run without a
        # log drops expired pairs when it reads a buffer.
        pinned = json.loads((GOLDEN_DIR / "netsim_scenarios.json").read_text())
        differ = [k for k in pinned
                  if scenario_report(scenario(int(k)), int(k), False)[0]
                  != scenario_report(scenario(int(k)), int(k), True)[0]]
        assert differ == []


class TestLongWindowDigests:
    """Pinned outputs of seeded runs whose links span many attempt windows
    of thousands of slots, the regime of a time-multiplexed crossconnect."""

    def test_digests_unchanged(self):
        pinned = json.loads((GOLDEN_DIR / "netsim_long_windows.json").read_text())
        assert len(pinned) >= 20
        moved = [k for k, digest in pinned.items()
                 if scenario_digest(long_window_scenario(int(k)), int(k)) != digest]
        assert moved == []
