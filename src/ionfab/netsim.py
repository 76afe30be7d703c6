"""Deterministic discrete-event simulation of heralded entanglement generation.

Model
-----
Active links fire entanglement attempts on a fixed clock: attempts happen at
``window_start + j/R`` for j = 1, 2, ... while a link is active, where R is
the spec's attempt rate and a window opens whenever a link (re)starts after
configuration or suspension (the attempt phase resets). Each attempt
succeeds with probability p = (F*eta_D)^2/2, or ``p_override`` when given.
Each unordered ELU pair owns a FIFO buffer of the expiry times of its
stored pairs. A success goes to the oldest waiting request, else into the
buffer (dropped and counted when full); pairs expire at their expiry time,
and a request takes the oldest pair or blocks until a success. Switch
reconfiguration suspends changed links, and collisions invalidate all
buffered pairs of the struck ELU and suspend its links for the reload time.

Determinism contract
--------------------
A run is a pure function of (spec, schedule, demand, horizon, seed). The
generator is the stdlib Mersenne Twister (random.Random), whose output is
stable across platforms and Python versions, consumed in this exact order:

1. when the sim is built, one uniform per ELU (in spec order) with a
   nonzero collision rate, for its first collision gap:
   dt = -log(1-u)/rate; then one uniform per link that has an attempt
   window (in sorted link order), for its first count;
2. one uniform per success, for the link's next count;
3. one uniform per collision, for the next gap of that ELU.

A count is the geometric number of failed attempts before the link's next
success: k = floor(log(1-u)/log1p(-p)); a k that overflows to infinity
(subnormal p) means "never succeeds". Equal-time successes process in
sorted link order.

Attempt outcomes are therefore sampled one draw per *success*, not per
attempt, which is distributionally identical to per-attempt Bernoulli draws
and keeps multi-second horizons at megahertz attempt rates cheap. Attempt
counts are exact (closed-form slot counting per window). Events at equal
times process in the fixed priority order switch entry < RECONFIG_DONE <
RELOAD_DONE < COLLISION < SUCCESS < PAIR_EXPIRED < PAIR_REQUEST; entries
and requests of one time in input order, and other events of one kind,
SUCCESS aside, in the order they were queued. A PAIR_DELIVERED is not
queued but logged by the SUCCESS or PAIR_REQUEST that causes it. An
attempt landing exactly on a suspension boundary does not fire.

A buffer drops its expired pairs when it is read, as if each expiry were
an event of its own at its time: a SUCCESS drops the pairs that expire
before it (one expiring at the same time comes after it), a request those
that expire at or before it, a COLLISION those that expire before it and
then invalidates the rest, and ``finish`` those that expire at or before
the horizon. Only while the run keeps a log does each stored pair queue a
PAIR_EXPIRED at its expiry, which drops and logs every pair of its buffer
that expires at or before its time; so equal-time expiries of different
buffers log in the order their pairs were stored. The event of a pair
delivered or invalidated before its expiry drops nothing of its own.

The attempt windows are laid out from the switch schedule when the sim is
built, once per group of links that the same distinct configurations
hold, since such links switch together: a window opens at the first entry
or at the reconfiguration end of the entry that adds the group, and
closes at the next entry that removes it. Each window's attempt slots are
counted once, when its end is known, and the group's running total of
them once; each link keeps its own copies of both. So a switch entry does
nothing when it is reached. A drawn count gives the link's slot of its
next success, counted over all its windows; one bisection of the running
total finds the window that holds it, and its SUCCESS is queued at that
slot, however many windows ahead. Slot j of a window fires at start + j/R
while that is before the window's end, a test monotone in j, so the
bisection places each count where a window-by-window walk would. A
collision cuts the windows of its ELU's links, opens none again before the
reload ends, and recounts the windows it cuts or moves and the running
total from the cut; it cancels the queued SUCCESS of each link whose
windows it changes and queues the same slot again.

The demand is read as a sorted stream beside the queue, which holds only
the events a run creates. The reconfiguration ends, the RELOAD_DONE events
and the PAIR_EXPIRED events exist only to write their log rows: the ends
are a second sorted stream, read only while the run keeps a log, and a
reload end or an expiry is queued only then. A reconfiguration end logs
one RECONFIG_DONE row per link that resumes, in sorted link order. A
reload end carries its ELU's collision count and logs its row only if no
later collision of the ELU has moved the end. The ``seq`` of a logged
event is its index in the log, and a run without a log builds no events.

Neither the event order nor the draw order depends on the horizon, which
only stops the loop. A :class:`NetworkSim` advanced in steps and then
finished therefore equals one ``run_sim`` call to the same horizon, event
log included, and the success times before t are the same for every
horizon past t.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, count
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .arch import ArchitectureSpec, EluSpec
from .errors import CapacityError, DomainError
from .rates import link_success_probability

Port = tuple[str, int]          # (elu id, chain position of the comm ion)
Link = tuple[Port, Port]        # normalized: ports in sorted order

# Expected successes and collisions a sim may simulate from time 0.
SIM_MAX_EVENTS = 10_000_000

# Priorities of the queued events for equal-time ties; a documented contract.
# Switch entries (0) do nothing when reached; reconfiguration ends (1) and
# requests (6) are read from sorted streams instead.
_PRIO = {"RELOAD_DONE": 2, "COLLISION": 3, "SUCCESS": 4, "PAIR_EXPIRED": 5}


def _port_label(port: Port) -> str:
    return f"{port[0]}.{port[1]}"


def make_link(a: Port, b: Port) -> Link:
    if a[0] == b[0]:
        raise DomainError("link endpoints must be in distinct ELUs, "
                          f"got {_port_label(a)} and {_port_label(b)}")
    return (a, b) if a <= b else (b, a)


def link_label(link: Link) -> str:
    return f"{_port_label(link[0])}-{_port_label(link[1])}"


def link_pair(link: Link) -> tuple[str, str]:
    """The ELU ids of a normalised link (:func:`make_link`), which sorts its
    ports and so their ELU ids."""
    return link[0][0], link[1][0]


@dataclass(frozen=True)
class SwitchConfig:
    """A non-blocking matching of communication-ion ports."""

    active_links: frozenset[Link]

    def __post_init__(self):
        # In sorted order, so that of two faults the same one is named
        # under every hash seed.
        seen: set[Port] = set()
        norm = set()
        for link in sorted(self.active_links):
            link = make_link(*link)
            norm.add(link)
            for port in link:
                if port in seen:
                    raise DomainError(f"port {_port_label(port)} used by two links")
                seen.add(port)
        object.__setattr__(self, "active_links", frozenset(norm))


class SimEvent(NamedTuple):
    time: float
    kind: str
    link: str      # link label or "" when not link-scoped
    elu_a: str
    elu_b: str     # "" for single-ELU events
    seq: int       # index of the event in the run's log


@dataclass(frozen=True)
class LinkStats:
    attempts: int
    successes: int
    measured_rate: float  # successes / horizon, 1/s


@dataclass(frozen=True)
class Ledger:
    successes: int
    delivered: int
    expired: int
    invalidated: int
    overflow_dropped: int
    residual: int

    @property
    def conserved(self) -> bool:
        return (self.delivered + self.expired + self.invalidated
                + self.overflow_dropped + self.residual == self.successes)


@dataclass(frozen=True)
class SimResult:
    horizon: float
    seed: int
    per_link: dict[str, LinkStats]
    mean_connection_rate: float  # mean of per-link measured rates
    ledger: Ledger
    collisions: int
    request_count: int
    requests_served: int
    latency_mean: float
    latency_max: float
    events: tuple[SimEvent, ...] | None = None

    def events_csv(self) -> str:
        """The log as CSV text: a header, then one row per event, its time
        written as its ``%r``. Rows logged at one time often hold the same
        float object, so each run of them takes one ``repr``; ``is``, not
        ``==``, keeps a -0.0 after a 0.0 apart."""
        if self.events is None:
            raise DomainError("run was executed without store_log=True")
        rows = ["time_s,kind,link,elu_a,elu_b,seq\n"]
        last = text = None
        for t, kind, link, elu_a, elu_b, seq in self.events:
            if t is not last:
                last, text = t, repr(t)
            rows.append(f"{text},{kind},{link},{elu_a},{elu_b},{seq}\n")
        return "".join(rows)


# ---------------------------------------------------------------------------
# Core simulator
# ---------------------------------------------------------------------------

class _EluState:
    __slots__ = ("id", "collision_rate", "reload_time", "reload_until",
                 "links", "buffers", "collisions")

    def __init__(self, elu: EluSpec):
        self.id = elu.id
        self.collision_rate = elu.collision_rate_per_ion * elu.n_ions
        self.reload_time = elu.reload_time
        self.reload_until = 0.0
        self.links: list[_LinkState] = []  # the ELU's links, sorted
        self.buffers: list[tuple[tuple[str, str], deque]] = []  # by pair, sorted
        # Its collision times. Their count is its share of the run's
        # collisions, and a reload end carries it when queued.
        self.collisions: list[float] = []


class _LinkState:
    # No reference back to its ELUs' states, which list it: without a cycle,
    # a finished sim is freed at once.
    __slots__ = ("label", "pair", "rank", "buffer", "waiting", "times",
                 "windows", "slots", "pos", "target", "epoch", "successes")

    def __init__(self, link: Link, rank: int, buffers: dict, waiting: dict,
                 times: dict):
        self.label = link_label(link)
        self.pair = pair = link_pair(link)  # its ELUs' ids
        self.rank = rank  # place in sorted link order
        # Its ELU pair's buffer, waiting requests and success times, which
        # the pair's other links and its queued requests share.
        self.buffer, self.waiting, self.times = buffers[pair], waiting[pair], times[pair]
        # The attempt windows (start, end, slots) in time order, where slots
        # is the window's attempt count, taken when its end is known. They
        # start as a copy of its group's layout; collisions of the link's
        # ELUs cut and delay them. The last ends at math.inf, with math.inf
        # slots: the link is never removed, or it is _NEVER.
        self.windows: list[tuple[float, float, float]] = []
        # The running total of their slots: [i] is the slots of the windows
        # before window i, and the last is math.inf.
        self.slots: list[float] = []
        self.pos = 0  # window of the last success, else the first
        # The link's slot of its next success, counted over all its windows;
        # math.inf when it never succeeds or has no window.
        self.target = math.inf
        self.epoch = 0  # bumped by a collision; cancels the queued success
        self.successes = 0


_NEVER = (math.inf, math.inf, math.inf)  # the window after a link's last removal
_new_tuple = tuple.__new__
_END, _SLOTS, _RANK = itemgetter(1), itemgetter(2), attrgetter("rank")


def _slots_before(window_start: float, rate: float, t: float) -> int | float:
    """Largest j >= 0 with window_start + j/rate < t (strict), or math.inf
    if the span holds more slots than a float (t = math.inf: an endless
    window). The test is monotone in j, so the search from the estimate
    doubles its steps and then bisects: near 1e300 s, one slot no longer
    moves a slot time. The estimate is ceil(n) - 1 for n slot times in the
    span, the answer without rounding, so an end on the 1/R lattice (n a
    whole number) needs no step down."""
    if t <= window_start:
        return 0
    n = (t - window_start) * rate
    if n == math.inf:
        return n
    hi, step = math.ceil(n), 1
    lo = hi - 1 if hi else 0
    while window_start + hi / rate < t:
        lo, hi, step = hi, hi + step, step * 2
    while lo and not window_start + lo / rate < t:
        lo, hi, step = max(lo - step, 0), lo, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if window_start + mid / rate < t:
            lo = mid
        else:
            hi = mid
    return lo


def validate_switch_config(spec: ArchitectureSpec, cfg: SwitchConfig) -> None:
    comm: dict[str, set[int]] = {e.id: set(e.comm_ion_indices) for e in spec.elus}
    for link in sorted(cfg.active_links):  # one fault named under any hash seed
        for elu_id, pos in link:
            if elu_id not in comm:
                raise DomainError(f"unknown ELU {elu_id!r} in switch config")
            if pos not in comm[elu_id]:
                raise DomainError(
                    f"port {_port_label((elu_id, pos))} is not a communication ion")
    # Each link holds two ports, which no other link shares (SwitchConfig).
    if 2 * len(cfg.active_links) > spec.switch.port_count:
        raise DomainError(f"config uses {2 * len(cfg.active_links)} ports, "
                          f"switch has {spec.switch.port_count}")


def static_links(spec: ArchitectureSpec,
                 pairs: set[tuple[str, str]]) -> SwitchConfig:
    """One link per ELU pair, taken in sorted order, each on the lowest
    free communication ion of both ELUs."""
    free: dict[str, list[int]] = {
        e.id: sorted(e.comm_ion_indices) for e in spec.elus}
    links = set()
    for a, b in sorted(pairs):
        if not free[a] or not free[b]:
            raise CapacityError(
                f"not enough communication ions to link {a} and {b}")
        links.add(make_link((a, free[a].pop(0)), (b, free[b].pop(0))))
    return SwitchConfig(frozenset(links))


class NetworkSim:
    """The event simulation as a resumable object.

    The constructor validates the inputs, lays out the attempt windows of
    each group of links that switch together in one pass over the switch
    schedule, sorts the demand, draws the first collision gaps and each
    link's first count, and queues the first collisions and successes.
    ``advance(t)`` processes every event with time < t; ``finish(horizon)``
    advances to the horizon and closes the run out into a
    :class:`SimResult`, after which the sim is spent. The success times
    of each ELU pair accumulate in ``success_times`` as the sim advances;
    :meth:`request` reads them as a pair supply. An advance past
    ``SIM_MAX_EVENTS`` expected events, counted from time 0, raises
    DomainError at once. A DomainError about one switch entry or request
    carries ``where = (argument, "$[index].field")``.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        switch_schedule: list[tuple[float, SwitchConfig]],
        demand: list[tuple[float, tuple[str, str]]],
        seed: int,
        p_override: float | None = None,
        store_log: bool = False,
    ):
        if seed is None:
            raise DomainError("the network simulation requires a seed")
        # One pass over the schedule: each entry is checked and mapped to
        # its distinct configuration, keyed by its link set; each distinct
        # configuration is validated once.
        configs: dict[frozenset[Link], int] = {}
        steps: list[tuple[float, int]] = []  # each entry's time and config
        for k, (t, cfg) in enumerate(switch_schedule):
            field = "time_s"
            try:
                if not math.isfinite(t):
                    raise DomainError("switch schedule times must be finite")
                if t < 0.0:
                    raise DomainError(f"switch schedule times must be >= 0, got {t!r}")
                if k and t < switch_schedule[k - 1][0]:
                    raise DomainError("switch schedule times must be sorted")
                field = "links"
                i = configs.get(cfg.active_links)
                if i is None:
                    validate_switch_config(spec, cfg)
                    i = configs[cfg.active_links] = len(configs)
                steps.append((t, i))
            except DomainError as exc:
                exc.where = ("switch_schedule", f"$[{k}].{field}")
                raise
        if p_override is not None and not 0.0 <= p_override <= 1.0:
            raise DomainError(f"p_override out of [0,1]: {p_override!r}")

        self.spec = spec
        self.seed = seed
        self.p = p_override if p_override is not None else link_success_probability(
            spec.collection_fraction, spec.detector_efficiency)
        self.rate = spec.attempt_rate
        self.lifetime = spec.pair_lifetime if spec.pair_lifetime is not None else math.inf
        self.rng = random.Random(seed)
        self.log1m_p = math.log1p(-self.p) if 0.0 < self.p < 1.0 else None

        # The configurations that hold each link that ever appears.
        holders: dict[Link, list[int]] = {}
        for i, active in enumerate(configs):
            for link in active:
                holders.setdefault(link, []).append(i)
        # Demanded pairs must be connectable.
        connectable = {link_pair(link) for link in holders}
        if connectable and spec.buffer_capacity < 1:
            raise DomainError(
                f"buffer capacity must be >= 1, got {spec.buffer_capacity}")
        # Expiry times of the stored pairs, oldest first (math.inf: never).
        self.buffers: dict[tuple[str, str], deque[float]] = {
            pair: deque() for pair in connectable}
        waiting = {pair: deque() for pair in connectable}  # request times
        self.success_times: dict[tuple[str, str], list[float]] = {
            pair: [] for pair in connectable}
        # Index in success_times of the first success no request has passed.
        self.taken = dict.fromkeys(connectable, 0)
        # Every link, in sorted order, grouped by the configurations that
        # hold it: a group's links switch on and off at the same entries.
        self.links = {link: _LinkState(link, rank, self.buffers, waiting,
                                       self.success_times)
                      for rank, link in enumerate(sorted(holders))}
        by_holders: dict[tuple[int, ...], list[_LinkState]] = {}
        for link, st in self.links.items():
            by_holders.setdefault(tuple(holders[link]), []).append(st)
        groups = list(by_holders.values())
        # The groups each configuration holds; the last, none, is the
        # switch's state before the first entry.
        held: list[list[int]] = [[] for _ in range(len(configs) + 1)]
        for g, key in enumerate(by_holders):
            for i in key:
                held[i].append(g)
        self.elus = elus = {e.id: _EluState(e) for e in spec.elus}
        # What a collision or a reload of each ELU visits, in sorted order.
        for st in self.links.values():
            for elu_id in st.pair:
                elus[elu_id].links.append(st)
        for pair, buf in sorted(self.buffers.items()):
            for elu_id in pair:
                elus[elu_id].buffers.append((pair, buf))
        # Most expected events per second: every link on, and every collision;
        # by max_time, SIM_MAX_EVENTS of them are expected.
        self.event_rate = (len(self.links) * self.rate * self.p
                           + sum(e.collision_rate for e in elus.values()))
        self.max_time = SIM_MAX_EVENTS / self.event_rate if self.event_rate else math.inf

        # Each group's windows from the schedule: a window opens at the first
        # entry, or at the reconfiguration end of the entry that adds the
        # group, and closes at the next entry that removes it (math.inf until
        # then); its slots are counted when it closes. The log's stream of
        # reconfiguration ends holds (time, links): the links whose window
        # each later entry's reconfiguration end opens, in sorted order.
        reconf = spec.switch.reconfiguration_time
        layouts: list[list[tuple]] = [[] for _ in groups]
        changes: dict[tuple[int, int], tuple] = {}  # by (previous, current) config
        ends = self.ends = []
        opened_at = {}  # group -> the end that opens its last window, if any
        prev = -1
        for k, (t, i) in enumerate(steps):
            change = changes.get((prev, i))
            if change is None:
                was, now = held[prev], held[i]
                added = [g for g in now if g not in was]
                change = changes[prev, i] = (
                    [g for g in was if g not in now], added,
                    sorted((st for g in added for st in groups[g]), key=_RANK))
            removed, added, opened = change
            for g in removed:
                windows = layouts[g]
                start = windows[-1][0]
                if start < t:
                    windows[-1] = (start, t, _slots_before(start, self.rate, t))
                else:  # removed before it opens
                    windows.pop()
                    if (j := opened_at.pop(g, None)) is not None:
                        resume, links = ends[j]
                        ends[j] = (resume, [st for st in links if st not in groups[g]])
            window = (t + reconf if k else t, math.inf, math.inf)
            for g in added:
                layouts[g].append(window)
            if k and added:
                opened_at.update(dict.fromkeys(added, len(ends)))
                ends.append((window[0], opened))
            prev = i
        # No pair succeeds after the end of its links' last windows. Each
        # link gets its own copies, which collisions of its ELUs cut.
        self.pair_end = dict.fromkeys(connectable, 0.0)
        for windows, group in zip(layouts, groups):
            end = windows[-1][1] if windows else 0.0
            if end < math.inf:
                windows.append(_NEVER)
            slots = list(accumulate(map(_SLOTS, windows), initial=0))
            for st in group:
                st.windows, st.slots = list(windows), list(slots)
                self.pair_end[st.pair] = max(self.pair_end[st.pair], end)
        self.next_end = 0

        # The demand, stable-sorted by time: (time, pair, its buffer, its
        # waiting requests).
        self.requests = []
        # pair as given -> (sorted pair, its buffer, its waiting requests)
        states: dict[tuple[str, str], tuple] = {}
        for j, (t, pair) in enumerate(demand):
            pair = tuple(pair)
            field = "time_s"
            try:
                if not math.isfinite(t):
                    raise DomainError(f"request times must be finite, got {t!r}")
                if t < 0.0:
                    raise DomainError(f"request times must be >= 0, got {t!r}")
                field = "elus"
                state = states.get(pair)
                if state is None:
                    key = self._pair(pair)
                    state = states[pair] = (key, self.buffers[key], waiting[key])
                self.requests.append((t, *state))
            except DomainError as exc:
                exc.where = ("demand", f"$[{j}].{field}")
                raise
        self.requests.sort(key=itemgetter(0))
        self.next_request = 0  # the requests read so far; the index of the next

        self.log: list[SimEvent] | None = [] if store_log else None
        # The pair ledger's tallies, by Ledger field; a run's successes are
        # its links' and its collisions its ELUs'.
        self.counters = dict.fromkeys(
            ("delivered", "expired", "invalidated", "overflow_dropped"), 0)
        self.latency_total = 0.0
        self.latency_max = 0.0
        self.heap: list = []
        self.push_seq = count()  # the order in which events were queued
        self.now = 0.0  # every event before this time has been processed

        # Initial collision gaps, ELUs in spec order, then the first count of
        # each link with a window, in sorted order (documented draw order).
        for elu in elus.values():
            if elu.collision_rate > 0:
                u = self.rng.random()
                self._push(-math.log(1.0 - u) / elu.collision_rate, "COLLISION", elu)
        for st in self.links.values():
            if st.windows[0] is not _NEVER:
                st.target = self._sample_countdown() + 1
                self._walk(st)

    def _pair(self, pair: tuple[str, str]) -> tuple[str, str]:
        """``pair`` sorted, if a scheduled link serves it."""
        key = tuple(sorted(pair))
        if key not in self.taken:
            raise DomainError(
                f"request for ELU pair {pair} that no scheduled link can serve")
        return key

    def _push(self, t: float, kind: str, payload, tie=0) -> None:
        # Equal-time events go in priority order, then in the order they
        # were queued; a SUCCESS (_walk, advance) by its link's rank before
        # that.
        heappush(self.heap, (t, _PRIO[kind], tie, next(self.push_seq), kind, payload))

    def _emit(self, t: float, kind: str, link: str, elu_a: str, elu_b: str) -> None:
        """Log one event; called only when the run keeps a log. The record
        is built by tuple.__new__: SimEvent's own __new__ is Python code."""
        log = self.log
        log.append(_new_tuple(SimEvent, (t, kind, link, elu_a, elu_b, len(log))))

    def _sample_countdown(self) -> int | float:
        """Failed attempts before the next success; math.inf if none follows."""
        if self.log1m_p is None:  # p is 0 (never succeeds) or 1
            return 0 if self.p else math.inf
        u = 1.0 - self.rng.random()  # in (0, 1]
        k = math.log(u) / self.log1m_p
        return int(k) if k < math.inf else k

    def _walk(self, st: _LinkState) -> None:
        """Queue the link's success at its slot ``st.target``, in or after
        its window ``st.pos``; a target of math.inf queues none. Only a
        link's first count, drawn when the sim is built, and a collision's
        re-queue come here: ``advance`` places the count each success draws
        itself, by the same bisection."""
        slots = st.slots
        j = bisect.bisect_left(slots, st.target, st.pos + 1) - 1
        start, end, _ = st.windows[j]
        t = start + (st.target - slots[j]) / self.rate
        if t < end:
            self._push(t, "SUCCESS", (st, st.epoch, j), st.rank)

    def _suspend(self, st: _LinkState, c: float, resume: float) -> None:
        """A collision at ``c`` of one of the link's ELUs: cut the window open
        at c, open no window again before ``resume``, recount the windows cut
        or moved and the running totals from the cut, and queue the success
        at the link's slot, which the cut does not move. A link with no
        window open at c or starting before ``resume`` is left alone: its
        queued success stays valid."""
        rate, windows = self.rate, st.windows
        i = st.pos
        while windows[i][1] <= c:
            i += 1
        if c < windows[i][0] >= resume:
            return
        st.epoch += 1
        cut = i
        if windows[i][0] <= c:  # open at c
            start, end, _ = windows[i]
            windows[i] = (start, c, _slots_before(start, rate, c))
            i += 1
            if resume < end:
                windows.insert(i, (resume, end, _slots_before(resume, rate, end)))
        while windows[i][0] < resume:
            end = windows[i][1]
            if end <= resume:
                del windows[i]
            else:
                windows[i] = (resume, end, _slots_before(resume, rate, end))
                break
        slots = st.slots
        del slots[cut + 1:]
        for window in windows[cut:-1]:
            slots.append(slots[-1] + window[2])
        slots.append(math.inf)  # the last window's
        st.pos = i
        self._walk(st)

    def _drop_expired(self, pair: tuple[str, str], t: float, at_t: bool = True) -> None:
        """Pop, count and log the buffered pairs that expire before ``t``,
        and those that expire at ``t`` unless ``at_t`` is false."""
        buf = self.buffers[pair]
        while buf and (buf[0] < t or at_t and buf[0] == t):
            buf.popleft()
            if self.log is not None:
                self._emit(t, "PAIR_EXPIRED", "", pair[0], pair[1])
            self.counters["expired"] += 1

    def _check_events(self, until: float) -> None:
        if until > self.max_time:
            raise DomainError(f"simulating to {until!r} s means about "
                              f"{until * self.event_rate:.3g} random events, "
                              f"over the cap of {SIM_MAX_EVENTS}")

    def request(self, pair: tuple[str, str], t: float) -> float:
        """When a pair of ELUs ``pair`` asked for at ``t`` can be used: at the
        first success after the last one taken that the buffer would still
        hold at t if nothing else drew on it (unexpired, s + lifetime > t,
        and made after the last collision of either ELU at or before t),
        else at the next success. That is sought by advancing the sim from
        its clock in steps that start at 1/(R·p), one expected success of a
        link, and double per miss, up to the cap. Buffer capacity is not
        modelled. Only when an ELU of the pair can collide does the sim run
        to just past t. When pairs expire or collide, a t past the cap
        raises DomainError before any work; so does the search, once the
        sim has passed the end of the pair's last window."""
        pair = self._pair(pair)
        if not math.isfinite(t):
            raise DomainError(f"pair request time must be finite, got {t!r}")
        stream, lifetime = self.success_times[pair], self.lifetime
        elus = (self.elus[pair[0]], self.elus[pair[1]])
        colliding = elus[0].collision_rate or elus[1].collision_rate
        if lifetime < math.inf or colliding:
            self._check_events(t)
        if colliding:
            self.advance(math.nextafter(t, math.inf))
        lo = self.taken[pair]
        for elu in elus:  # a collision at or before t destroyed every older pair
            if k := bisect.bisect_right(elu.collisions, t):
                lo = bisect.bisect_right(stream, elu.collisions[k - 1], lo=lo)
        rate = self.rate * self.p
        step = 1.0 / rate if rate else math.inf
        while (i := bisect.bisect_right(stream, t, lo=lo,
                                        key=lambda s: s + lifetime)) == len(stream):
            if self.now >= self.pair_end[pair]:
                raise DomainError(f"request for ELU pair {pair} at {t!r} s gets none: "
                                  "the switch schedule removes its last link at "
                                  f"{self.pair_end[pair]!r} s")
            horizon = self.now + step
            if horizon == math.inf:
                raise DomainError(f"link pair rate {rate!r}/s is too low to supply pairs")
            step *= 2.0
            cap = self.max_time if self.now < self.max_time else math.inf
            self.advance(min(horizon, cap))
        self.taken[pair] = i + 1
        return max(t, stream[i])

    def advance(self, until: float) -> None:
        """Process every event with time < ``until``.

        A SUCCESS does all its work here: it hands its pair to the oldest
        waiting request or stores it, draws the link's next count, finds
        the window that holds that slot by one bisection of the link's
        running slot total and pushes the next SUCCESS onto the heap. A
        request takes a stored pair here too. A reconfiguration end, a
        RELOAD_DONE and a PAIR_EXPIRED only write their log rows."""
        if not 0.0 < until < math.inf:
            raise DomainError(f"horizon must be finite and > 0, got {until!r}")
        self._check_events(until)
        # Hot state in locals; the scalars stay on self, except the two
        # latency sums, which are written back at the end.
        heap, push, push_seq, inf = self.heap, self._push, self.push_seq, math.inf
        elus, counters = self.elus, self.counters
        lifetime, rate, log1m_p = self.lifetime, self.rate, self.log1m_p
        draw, ln, bisect_left = self.rng.random, math.log, bisect.bisect_left
        latency_total, latency_max = self.latency_total, self.latency_max
        log, emit = self.log, self._emit
        drop_expired = self._drop_expired
        # Expiries are queued only to write their log rows; without a log a
        # buffer drops its expired pairs when it is read.
        queue_expiry = log is not None and lifetime < inf
        capacity = self.spec.buffer_capacity
        # The reconfiguration ends (read only with a log) and the requests
        # are two sorted streams beside the queue: an end goes before, a
        # request after, every queued event at its time.
        ends, requests = self.ends, self.requests
        e, r = self.next_end, self.next_request
        end_t = ends[e][0] if log is not None and e < len(ends) else inf
        request_t = requests[r][0] if r < len(requests) else inf
        while True:
            t = heap[0][0] if heap else inf
            if end_t <= t and end_t <= request_t:
                if end_t >= until:
                    break
                t, links = ends[e]
                e += 1
                end_t = ends[e][0] if e < len(ends) else inf
                for st in links:  # no row while an ELU of the link reloads
                    a, b = st.pair
                    if t >= elus[a].reload_until and t >= elus[b].reload_until:
                        emit(t, "RECONFIG_DONE", st.label, a, b)
                continue
            if request_t < t:
                if request_t >= until:
                    break
                t, pair, buf, waiting = requests[r]
                r += 1
                request_t = requests[r][0] if r < len(requests) else inf
                if log is not None:
                    emit(t, "PAIR_REQUEST", "", pair[0], pair[1])
                if buf and buf[0] <= t:
                    drop_expired(pair, t)
                if buf:  # delivered at once, with a zero latency
                    buf.popleft()
                    counters["delivered"] += 1
                    if log is not None:
                        emit(t, "PAIR_DELIVERED", "", pair[0], pair[1])
                else:
                    waiting.append(t)
                continue
            if t >= until:
                break
            t, _prio, _tie, _seq, kind, payload = heappop(heap)

            if kind == "SUCCESS":
                st, epoch, i = payload
                if st.epoch != epoch:
                    continue
                st.pos = i
                st.successes += 1
                if log is not None:
                    emit(t, "SUCCESS", st.label, st.pair[0], st.pair[1])
                pair, buf, waiting = st.pair, st.buffer, st.waiting
                st.times.append(t)
                if waiting:
                    lat = t - waiting.popleft()
                    counters["delivered"] += 1
                    latency_total += lat
                    if lat > latency_max:
                        latency_max = lat
                    if log is not None:
                        emit(t, "PAIR_DELIVERED", "", pair[0], pair[1])
                else:
                    if buf and buf[0] < t:  # one expiring at t is still held
                        drop_expired(pair, t, at_t=False)
                    if len(buf) < capacity:
                        buf.append(t + lifetime)
                        if queue_expiry:
                            push(t + lifetime, "PAIR_EXPIRED", pair)
                    else:
                        counters["overflow_dropped"] += 1
                # Draw the next count as _sample_countdown does (p > 0 here)
                # and queue the success at its slot as _walk does.
                if log1m_p is None:  # p is 1
                    k = 0
                else:
                    k = ln(1.0 - draw()) / log1m_p
                    if k < inf:
                        k = int(k)
                st.target = target = st.target + k + 1
                slots = st.slots
                j = bisect_left(slots, target, i + 1) - 1
                start, end, _ = st.windows[j]
                at = start + (target - slots[j]) / rate
                if at < end:
                    heappush(heap, (at, 4, st.rank, next(push_seq), "SUCCESS",
                                    (st, epoch, j)))

            elif kind == "PAIR_EXPIRED":
                drop_expired(payload, t)

            elif kind == "COLLISION":
                elu = payload
                elu.collisions.append(t)
                if log is not None:
                    emit(t, "COLLISION", "", elu.id, "")
                for pair, buf in elu.buffers:
                    if buf:
                        if buf[0] < t:  # one expiring at t is invalidated
                            drop_expired(pair, t, at_t=False)
                        counters["invalidated"] += len(buf)
                        buf.clear()
                elu.reload_until = t + elu.reload_time
                if log is not None:
                    push(elu.reload_until, "RELOAD_DONE", (elu, len(elu.collisions)))
                for st in elu.links:
                    self._suspend(st, t, elu.reload_until)
                u = self.rng.random()
                push(t - math.log(1.0 - u) / elu.collision_rate, "COLLISION", elu)

            else:  # RELOAD_DONE, queued only with a log
                elu, n = payload
                if len(elu.collisions) == n:  # no later collision moved the end
                    emit(t, "RELOAD_DONE", "", elu.id, "")
        self.next_end, self.next_request = e, r
        self.latency_total, self.latency_max = latency_total, latency_max
        self.now = max(self.now, until)

    def finish(self, horizon: float) -> SimResult:
        """Advance to ``horizon``, then account attempts and residual pairs."""
        self.advance(horizon)
        if horizon < self.now:
            raise DomainError(
                f"horizon {horizon!r} is before the time already simulated, {self.now!r}")
        per_link = {}
        for st in self.links.values():
            # The slots of the windows that end by the horizon, and of the
            # one it clips.
            j = bisect.bisect_right(st.windows, horizon, st.pos, key=_END)
            attempts = st.slots[j] + _slots_before(st.windows[j][0], self.rate, horizon)
            per_link[st.label] = LinkStats(attempts, st.successes,
                                           st.successes / horizon)
        residual = 0
        for pair in sorted(self.buffers):
            self._drop_expired(pair, horizon)
            residual += len(self.buffers[pair])
        mean_rate = (sum(s.measured_rate for s in per_link.values()) / len(per_link)
                     if per_link else 0.0)
        served = self.counters["delivered"]
        return SimResult(
            horizon=horizon,
            seed=self.seed,
            per_link=per_link,
            mean_connection_rate=mean_rate,
            ledger=Ledger(successes=sum(st.successes for st in self.links.values()),
                          residual=residual, **self.counters),
            collisions=sum(len(elu.collisions) for elu in self.elus.values()),
            request_count=self.next_request,
            requests_served=served,
            latency_mean=self.latency_total / served if served else 0.0,
            latency_max=self.latency_max,
            events=tuple(self.log) if self.log is not None else None,
        )


def run_sim(
    spec: ArchitectureSpec,
    switch_schedule: list[tuple[float, SwitchConfig]],
    demand: list[tuple[float, tuple[str, str]]],
    horizon: float,
    seed: int,
    p_override: float | None = None,
    store_log: bool = False,
) -> SimResult:
    """Run the event simulation; bit-identical output for identical inputs."""
    sim = NetworkSim(spec, switch_schedule, demand, seed, p_override, store_log)
    return sim.finish(horizon)


# ---------------------------------------------------------------------------
# Cross-validation against the closed-form rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCheck:
    attempts: int
    successes: int
    measured_rate: float
    analytic_rate: float
    z_score: float


def default_link(spec: ArchitectureSpec) -> Link:
    """The link :func:`static_links` gives the first two ELUs."""
    if len(spec.elus) < 2:
        raise DomainError("need at least two ELUs to form a link")
    (link,) = static_links(spec, {(spec.elus[0].id, spec.elus[1].id)}).active_links
    return link


def theoretical_rate_check(spec: ArchitectureSpec, seed: int = 0) -> RateCheck:
    """The machine's default link (:func:`default_link`) switched on at
    t = 0 for 1,000,000 attempts, compared against R*p with the machine's
    p = (F*eta_D)^2/2.

    Returns the rate measured over the attempt span (R * successes/attempts),
    the analytic rate, and the binomial z-score of the observed success count.
    Collisions suspend the link, so the attempts may be fewer.
    """
    link = default_link(spec)
    horizon = (1_000_000 + 0.5) / spec.attempt_rate
    sim = NetworkSim(spec, [(0.0, SwitchConfig(frozenset({link})))], [], seed)
    stats = sim.finish(horizon).per_link[link_label(link)]
    p, n = sim.p, stats.attempts
    # p underflows to 0 for F*eta_D below about 1e-162; n is 0 when a
    # collision comes before the first attempt and its reload outlasts the run.
    z = (stats.successes - n * p) / math.sqrt(n * p * (1.0 - p)) if n and p else 0.0
    return RateCheck(
        attempts=n,
        successes=stats.successes,
        measured_rate=spec.attempt_rate * stats.successes / n if n else 0.0,
        analytic_rate=spec.attempt_rate * p,
        z_score=z,
    )
