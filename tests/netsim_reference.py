"""A plain reference for the network simulator: ``reference_sim``.

It follows the determinism contract of ``ionfab.netsim`` with none of the
engine's shortcuts. There is one heap, and every switch entry,
reconfiguration end, reload end, collision, success, expiry and request is
its own event on it, keyed (time, priority, tie, order): the priorities
are the contract's, the tie is the link's rank for a SUCCESS and 0 for
every other kind, and the order is the order of queueing. No attempt
window is laid out ahead of time, and nothing is bisected. A link keeps
the start of its open window and ``left``, the slots after that start
before its next success; its success is queued when the window opens, at
start + (left + 1)/R, and closing the window first subtracts the slots it
held, ``slots_before(start, R, close)``. A link is open while the switch
holds it, its reconfiguration has ended, and neither of its ELUs reloads.

The draws are the contract's: when the sim is built, one uniform per
colliding ELU in spec order, then one per link that has a window in
sorted link order; in the loop, one per success and one per collision.
Each stored pair queues its own expiry, at which its buffer drops every
pair that has expired by then.
"""

import heapq
import math
import random
from collections import deque
from itertools import count

from ionfab.netsim import Ledger, LinkStats, SimEvent, SimResult, link_label, link_pair
from ionfab.rates import link_success_probability

# The event kinds, in the contract's priority order for equal-time events.
(ENTRY, RECONFIG_DONE, RELOAD_DONE, COLLISION, SUCCESS, PAIR_EXPIRED,
 PAIR_REQUEST) = range(7)


def slots_before(start, rate, t):
    """The largest j >= 0 with start + j/rate < t, stepped to from its
    estimate one slot at a time."""
    j = max(int((t - start) * rate), 0)
    while j and not start + j / rate < t:
        j -= 1
    while start + (j + 1) / rate < t:
        j += 1
    return j


def has_window(link, schedule, reconf):
    """Whether the switch holds ``link`` past the time its window opens: the
    first entry's time, or a later adding entry's reconfiguration end."""
    opens, held = None, False
    for k, (t, cfg) in enumerate(schedule):
        now = link in cfg.active_links
        if held and not now:
            if opens < t:
                return True
            opens = None
        elif now and not held:
            opens = t + reconf if k else t
        held = now
    return opens is not None


class _Link:
    def __init__(self, link, rank):
        self.label, self.pair, self.rank = link_label(link), link_pair(link), rank
        self.switched = False  # held by the switch, its reconfiguration over
        self.pending = 0       # bumped by each add or removal; cancels an end
        self.start = None      # the open window's start, None while closed
        self.left = math.inf
        self.epoch = 0         # bumped by each close; cancels the queued success
        self.attempts = self.successes = 0


class _Elu:
    def __init__(self, elu):
        self.id = elu.id
        self.rate = elu.collision_rate_per_ion * elu.n_ions
        self.reload_time = elu.reload_time
        self.reload_until = 0.0
        self.epoch = -1
        self.links = []


def reference_sim(spec, schedule, demand, horizon, seed, p_override=None):
    """The run of ``run_sim`` with a log, built event by event."""
    rng = random.Random(seed)
    p = p_override if p_override is not None else link_success_probability(
        spec.collection_fraction, spec.detector_efficiency)
    rate, reconf = spec.attempt_rate, spec.switch.reconfiguration_time
    lifetime = spec.pair_lifetime if spec.pair_lifetime is not None else math.inf
    heap, order, log = [], count(), []

    def push(t, kind, payload, tie=0):
        heapq.heappush(heap, (t, kind, tie, next(order), payload))

    def emit(t, kind, label, a, b):
        log.append(SimEvent(t, kind, label, a, b, len(log)))

    def countdown():
        if p == 1.0:
            return 0
        if p == 0.0:
            return math.inf
        k = math.log(1.0 - rng.random()) / math.log1p(-p)
        return int(k) if k < math.inf else k

    links = {link: _Link(link, rank) for rank, link in enumerate(
        sorted({link for _, cfg in schedule for link in cfg.active_links}))}
    elus = {e.id: _Elu(e) for e in spec.elus}
    for st in links.values():
        for elu_id in st.pair:
            elus[elu_id].links.append(st)
    pairs = sorted({st.pair for st in links.values()})
    buffers = {pair: deque() for pair in pairs}
    waiting = {pair: deque() for pair in pairs}
    totals = dict.fromkeys(["successes", "delivered", "expired", "invalidated",
                            "overflow", "collisions", "requests"], 0)
    latency_total = latency_max = 0.0

    for elu in elus.values():
        if elu.rate > 0:
            push(-math.log(1.0 - rng.random()) / elu.rate, COLLISION, elu)
    for link, st in links.items():
        if has_window(link, schedule, reconf):
            st.left = countdown()
    for k, entry in enumerate(schedule):
        push(entry[0], ENTRY, k)
    for t, pair in demand:
        push(t, PAIR_REQUEST, tuple(sorted(pair)))

    def reloading(st, t):
        return any(t < elus[elu_id].reload_until for elu_id in st.pair)

    def open_(st, t):
        st.start = t
        if st.left < math.inf:
            push(t + (st.left + 1) / rate, SUCCESS, (st, st.epoch), st.rank)

    def close(st, t):
        if st.start is not None:
            fired = slots_before(st.start, rate, t)
            st.attempts += fired
            st.left -= fired
            st.start = None
            st.epoch += 1

    def drop_expired(pair, t):
        buf = buffers[pair]
        while buf and buf[0] <= t:
            buf.popleft()
            totals["expired"] += 1
            emit(t, "PAIR_EXPIRED", "", *pair)

    while heap and heap[0][0] < horizon:
        t, kind, _, _, payload = heapq.heappop(heap)
        if kind == ENTRY:
            k = payload
            was = schedule[k - 1][1].active_links if k else frozenset()
            now = schedule[k][1].active_links
            added = []
            for link, st in links.items():
                if link in was and link not in now:
                    st.switched = False
                    st.pending += 1
                    close(st, t)
                elif link in now and link not in was:
                    st.pending += 1
                    added.append((st, st.pending))
            if k == 0:  # the switch's initial state: no reconfiguration
                for st, _ in added:
                    st.switched = True
                    if not reloading(st, t):
                        open_(st, t)
            elif added:
                push(t + reconf, RECONFIG_DONE, added)
        elif kind == RECONFIG_DONE:
            for st, pending in payload:
                if st.pending == pending:
                    st.switched = True
                    if not reloading(st, t):
                        emit(t, "RECONFIG_DONE", st.label, *st.pair)
                        open_(st, t)
        elif kind == RELOAD_DONE:
            elu, ordinal = payload
            if elu.epoch == ordinal:
                emit(t, "RELOAD_DONE", "", elu.id, "")
                for st in elu.links:
                    if st.switched and st.start is None and not reloading(st, t):
                        open_(st, t)
        elif kind == COLLISION:
            elu = payload
            elu.epoch = totals["collisions"]
            totals["collisions"] += 1
            emit(t, "COLLISION", "", elu.id, "")
            for pair in pairs:
                if elu.id in pair and buffers[pair]:
                    totals["invalidated"] += len(buffers[pair])
                    buffers[pair].clear()
            elu.reload_until = t + elu.reload_time
            push(elu.reload_until, RELOAD_DONE, (elu, elu.epoch))
            for st in elu.links:
                close(st, t)
            push(t - math.log(1.0 - rng.random()) / elu.rate, COLLISION, elu)
        elif kind == SUCCESS:
            st, epoch = payload
            if st.epoch != epoch:
                continue
            st.successes += 1
            totals["successes"] += 1
            emit(t, "SUCCESS", st.label, *st.pair)
            if waiting[st.pair]:
                latency = t - waiting[st.pair].popleft()
                totals["delivered"] += 1
                latency_total += latency
                latency_max = max(latency_max, latency)
                emit(t, "PAIR_DELIVERED", "", *st.pair)
            elif len(buffers[st.pair]) < spec.buffer_capacity:
                buffers[st.pair].append(t + lifetime)
                if t + lifetime < math.inf:
                    push(t + lifetime, PAIR_EXPIRED, st.pair)
            else:
                totals["overflow"] += 1
            st.left += 1 + countdown()
            if st.left < math.inf:
                push(st.start + (st.left + 1) / rate, SUCCESS, (st, st.epoch), st.rank)
        elif kind == PAIR_EXPIRED:
            drop_expired(payload, t)
        else:  # PAIR_REQUEST
            pair = payload
            totals["requests"] += 1
            emit(t, "PAIR_REQUEST", "", *pair)
            if buffers[pair]:
                buffers[pair].popleft()
                totals["delivered"] += 1
                emit(t, "PAIR_DELIVERED", "", *pair)
            else:
                waiting[pair].append(t)

    per_link = {}
    for st in links.values():
        if st.start is not None:
            st.attempts += slots_before(st.start, rate, horizon)
        per_link[st.label] = LinkStats(st.attempts, st.successes, st.successes / horizon)
    residual = 0
    for pair in pairs:
        drop_expired(pair, horizon)
        residual += len(buffers[pair])
    served = totals["delivered"]
    return SimResult(
        horizon=horizon, seed=seed, per_link=per_link,
        mean_connection_rate=(sum(s.measured_rate for s in per_link.values())
                              / len(per_link) if per_link else 0.0),
        ledger=Ledger(totals["successes"], served, totals["expired"],
                      totals["invalidated"], totals["overflow"], residual),
        collisions=totals["collisions"], request_count=totals["requests"],
        requests_served=served,
        latency_mean=latency_total / served if served else 0.0,
        latency_max=latency_max, events=tuple(log))
