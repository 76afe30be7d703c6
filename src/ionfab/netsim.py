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

1. one uniform per ELU (in spec order) with a nonzero collision rate, for
   its first collision gap: dt = -log(1-u)/rate;
2. one uniform per link activation or success, for the geometric count of
   failed attempts before the next success: k = floor(log(1-u)/log1p(-p));
   a k that overflows to infinity (subnormal p) means "never succeeds";
3. one uniform per collision, for the next gap of that ELU.

Attempt outcomes are therefore sampled one draw per *success*, not per
attempt, which is distributionally identical to per-attempt Bernoulli draws
and keeps multi-second horizons at megahertz attempt rates cheap. Attempt
counts are exact (closed-form slot counting per active window). Queued
events at equal times process in the fixed priority order RECONFIG_DONE <
RELOAD_DONE < COLLISION < SUCCESS < PAIR_EXPIRED < PAIR_REQUEST, then by
sequence number; a PAIR_DELIVERED is not queued but logged by the SUCCESS
or PAIR_REQUEST that causes it. A request never finds an expired pair: a
non-empty buffer always has a live PAIR_EXPIRED queued at its head's expiry
time. An attempt landing exactly on a suspension boundary does not fire.

Neither the event order nor the draw order depends on the horizon, which
only stops the loop. A :class:`NetworkSim` advanced in steps and then
finished therefore equals one ``run_sim`` call to the same horizon, event
log included, and the success times before t are the same for every
horizon past t.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from .arch import ArchitectureSpec
from .errors import CapacityError, DomainError
from .rates import link_success_probability

Port = tuple[str, int]          # (elu id, chain position of the comm ion)
Link = tuple[Port, Port]        # normalized: ports in sorted order

# Expected successes and collisions one advance may simulate.
SIM_MAX_EVENTS = 10_000_000

# Priorities of the queued events for equal-time ties; a documented contract.
_PRIO = {"_SCHED": 0, "RECONFIG_DONE": 1, "RELOAD_DONE": 2, "COLLISION": 3,
         "SUCCESS": 4, "PAIR_EXPIRED": 5, "PAIR_REQUEST": 6}


def make_link(a: Port, b: Port) -> Link:
    if a[0] == b[0]:
        raise DomainError(f"link endpoints must be in distinct ELUs, got {a} and {b}")
    return (a, b) if a <= b else (b, a)


def link_label(link: Link) -> str:
    (ea, pa), (eb, pb) = link
    return f"{ea}.{pa}-{eb}.{pb}"


def link_pair(link: Link) -> tuple[str, str]:
    elus = sorted((link[0][0], link[1][0]))
    return (elus[0], elus[1])


@dataclass(frozen=True)
class SwitchConfig:
    """A non-blocking matching of communication-ion ports."""

    active_links: frozenset[Link]

    def __post_init__(self):
        seen: set[Port] = set()
        norm = set()
        for link in self.active_links:
            link = make_link(*link)
            norm.add(link)
            for port in link:
                if port in seen:
                    raise DomainError(f"port {port} used by two links")
                seen.add(port)
        object.__setattr__(self, "active_links", frozenset(norm))

    @property
    def ports(self) -> set[Port]:
        return {p for link in self.active_links for p in link}


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str
    link: str      # link label or "" when not link-scoped
    elu_a: str
    elu_b: str     # "" for single-ELU events
    seq: int

    def csv_row(self) -> str:
        return f"{self.time!r},{self.kind},{self.link},{self.elu_a},{self.elu_b},{self.seq}"


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
        if self.events is None:
            raise DomainError("run was executed without store_log=True")
        lines = ["time_s,kind,link,elu_a,elu_b,seq"]
        lines.extend(ev.csv_row() for ev in self.events)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Core simulator
# ---------------------------------------------------------------------------

class _LinkState:
    __slots__ = ("link", "label", "pair", "reconfig_until",
                 "window_start", "consumed", "countdown", "epoch",
                 "attempts", "successes", "open_")

    def __init__(self, link: Link):
        self.link = link
        self.label = link_label(link)
        self.pair = link_pair(link)
        self.reconfig_until = 0.0
        self.window_start = 0.0
        self.consumed = 0       # attempt slots consumed in the open window
        self.countdown = -1     # failures left before next success; -1 = unsampled
        self.epoch = 0
        self.attempts = 0
        self.successes = 0
        self.open_ = False


def _slots_before(window_start: float, rate: float, t: float) -> int:
    """Largest j >= 0 with window_start + j/rate < t (strict)."""
    if t <= window_start:
        return 0
    j = int((t - window_start) * rate)
    while window_start + (j + 1) / rate < t:
        j += 1
    while j > 0 and not window_start + j / rate < t:
        j -= 1
    return j


def validate_switch_config(spec: ArchitectureSpec, cfg: SwitchConfig) -> None:
    comm: dict[str, set[int]] = {e.id: set(e.comm_ion_indices) for e in spec.elus}
    for link in cfg.active_links:
        for elu_id, pos in link:
            if elu_id not in comm:
                raise DomainError(f"unknown ELU {elu_id!r} in switch config")
            if pos not in comm[elu_id]:
                raise DomainError(
                    f"port {elu_id}.{pos} is not a communication ion")
    if len(cfg.ports) > spec.switch.port_count:
        raise DomainError(
            f"config uses {len(cfg.ports)} ports, switch has {spec.switch.port_count}")


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

    The constructor validates the inputs and queues the first collision
    gaps, the switch schedule and the demand. ``advance(t)`` processes every
    event with time < t; ``finish(horizon)`` advances to the horizon and
    closes the run out into a :class:`SimResult`, after which the sim is
    spent. The success times of each ELU pair accumulate in
    ``success_times`` as the sim advances. An advance that would simulate
    over ``SIM_MAX_EVENTS`` expected events raises DomainError at once.
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
        times = [t for t, _ in switch_schedule]
        if not all(math.isfinite(t) for t in times):
            raise DomainError("switch schedule times must be finite")
        if times != sorted(times):
            raise DomainError("switch schedule times must be sorted")
        configs = list(dict.fromkeys(cfg for _, cfg in switch_schedule))
        for cfg in configs:
            validate_switch_config(spec, cfg)
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

        # Every link that ever appears; demanded pairs must be connectable.
        self.links: dict[Link, _LinkState] = {}
        for cfg in configs:
            for link in cfg.active_links:
                if link not in self.links:
                    self.links[link] = _LinkState(link)
        connectable = {st.pair for st in self.links.values()}
        for t, pair in demand:
            if not math.isfinite(t):
                raise DomainError(f"request times must be finite, got {t!r}")
            if tuple(sorted(pair)) not in connectable:
                raise DomainError(
                    f"request for ELU pair {pair} that no scheduled link can serve")

        if connectable and spec.buffer_capacity < 1:
            raise DomainError(
                f"buffer capacity must be >= 1, got {spec.buffer_capacity}")
        # Expiry times of the stored pairs, oldest first (math.inf: never).
        self.buffers: dict[tuple[str, str], deque[float]] = {
            pair: deque() for pair in connectable}
        self.waiting: dict[tuple[str, str], deque] = {
            pair: deque() for pair in connectable}
        self.buffer_epoch: dict[tuple[str, str], int] = {
            pair: 0 for pair in connectable}
        self.success_times: dict[tuple[str, str], list[float]] = {
            pair: [] for pair in connectable}
        self.elu_reload_until: dict[str, float] = {e.id: 0.0 for e in spec.elus}
        self.elu_epoch: dict[str, int] = {e.id: 0 for e in spec.elus}
        self.collision_rates = {
            e.id: e.collision_rate_per_ion * e.n_ions for e in spec.elus}
        # Most expected events per second: every link on, and every collision.
        self.event_rate = (len(self.links) * self.rate * self.p
                           + sum(self.collision_rates.values()))

        self.log: list[SimEvent] | None = [] if store_log else None
        self.event_seq = 0
        self.counters = {"successes": 0, "delivered": 0, "expired": 0,
                         "invalidated": 0, "overflow": 0, "collisions": 0,
                         "requests": 0}
        self.latency_total = 0.0
        self.latency_max = 0.0
        self.heap: list = []
        self.push_seq = 0
        # The matching; empty until the first entry, before which a
        # collision's RELOAD_DONE may already try to open windows.
        self.current = SwitchConfig(frozenset())
        self.first_sched = True
        self.now = 0.0  # every event before this time has been processed

        # Initial collision gaps, ELUs in spec order (documented draw order).
        for elu in spec.elus:
            r = self.collision_rates[elu.id]
            if r > 0:
                u = self.rng.random()
                self._push(-math.log(1.0 - u) / r, "COLLISION", elu.id)
        for t, cfg in switch_schedule:
            self._push(t, "_SCHED", cfg)
        for t, pair in demand:
            self._push(t, "PAIR_REQUEST", tuple(sorted(pair)))

    def _push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self.heap, (t, _PRIO[kind], self.push_seq, kind, payload))
        self.push_seq += 1

    def _emit(self, t: float, kind: str, link: str, elu_a: str, elu_b: str) -> None:
        if self.log is not None:
            self.log.append(SimEvent(t, kind, link, elu_a, elu_b, self.event_seq))
        self.event_seq += 1

    def _sample_countdown(self) -> int:
        if self.p <= 0.0:
            return -2  # never succeeds
        if self.p >= 1.0:
            return 0
        u = 1.0 - self.rng.random()  # in (0, 1]
        k = math.log(u) / self.log1m_p
        return int(k) if k < math.inf else -2

    def _schedule_success(self, st: _LinkState) -> None:
        if not st.open_ or st.countdown == -2:
            return
        slot = st.consumed + st.countdown + 1
        self._push(st.window_start + slot / self.rate, "SUCCESS", (st, st.epoch, slot))

    def _open_window(self, st: _LinkState, now: float) -> None:
        if st.open_ or st.link not in self.current.active_links:
            return
        if now < st.reconfig_until or now < self.elu_reload_until[st.pair[0]] \
                or now < self.elu_reload_until[st.pair[1]]:
            return
        st.open_ = True
        st.window_start = now
        st.consumed = 0
        if st.countdown == -1:
            st.countdown = self._sample_countdown()
        st.epoch += 1
        self._schedule_success(st)

    def _close_window(self, st: _LinkState, now: float) -> None:
        if not st.open_:
            return
        fired = _slots_before(st.window_start, self.rate, now)
        failed = fired - st.consumed
        st.attempts += failed
        if st.countdown >= 0:
            st.countdown -= failed
        st.consumed = fired
        st.open_ = False
        st.epoch += 1  # cancels the pending success event

    def _deliver(self, pair: tuple[str, str], req_time: float, now: float) -> None:
        self.counters["delivered"] += 1
        lat = now - req_time
        self.latency_total += lat
        self.latency_max = max(self.latency_max, lat)
        self._emit(now, "PAIR_DELIVERED", "", pair[0], pair[1])

    def _reschedule_expiry(self, pair: tuple[str, str]) -> None:
        if self.lifetime is math.inf:
            return
        self.buffer_epoch[pair] += 1
        buf = self.buffers[pair]
        if buf:
            self._push(buf[0], "PAIR_EXPIRED", (pair, self.buffer_epoch[pair]))

    def _drop_expired(self, pair: tuple[str, str], now: float) -> None:
        """Pop, count and log the buffered pairs that expire by ``now``."""
        buf = self.buffers[pair]
        while buf and buf[0] <= now:
            buf.popleft()
            self._emit(now, "PAIR_EXPIRED", "", pair[0], pair[1])
            self.counters["expired"] += 1

    def advance(self, until: float) -> None:
        """Process every event with time < ``until``."""
        if not 0.0 < until < math.inf:
            raise DomainError(f"horizon must be finite and > 0, got {until!r}")
        events = (until - self.now) * self.event_rate
        if events > SIM_MAX_EVENTS:
            raise DomainError(f"simulating to {until!r} s means about {events:.3g} "
                              f"random events, over the cap of {SIM_MAX_EVENTS}")
        # Hot state in locals; the scalars stay on self.
        heap, heappop = self.heap, heapq.heappop
        counters, buffers, waiting = self.counters, self.buffers, self.waiting
        success_times, lifetime = self.success_times, self.lifetime
        emit, deliver = self._emit, self._deliver
        reschedule_expiry, drop_expired = self._reschedule_expiry, self._drop_expired
        capacity = self.spec.buffer_capacity
        sample_countdown = self._sample_countdown
        schedule_success = self._schedule_success
        while heap and heap[0][0] < until:
            t, _prio, _ps, kind, payload = heappop(heap)

            if kind == "_SCHED":
                # The first entry is the switch's initial state and is free;
                # later entries charge reconfiguration_time to changed links.
                new_cfg: SwitchConfig = payload
                removed = self.current.active_links - new_cfg.active_links
                added = new_cfg.active_links - self.current.active_links
                self.current = new_cfg
                for link in sorted(removed):
                    self._close_window(self.links[link], t)
                for link in sorted(added):
                    st = self.links[link]
                    if self.first_sched:
                        self._open_window(st, t)
                    else:
                        st.reconfig_until = t + self.spec.switch.reconfiguration_time
                        self._push(st.reconfig_until, "RECONFIG_DONE", (st, st.epoch + 1))
                        st.epoch += 1
                self.first_sched = False

            elif kind == "RECONFIG_DONE":
                st, epoch = payload
                if st.epoch != epoch or st.link not in self.current.active_links:
                    continue
                emit(t, "RECONFIG_DONE", st.label, st.pair[0], st.pair[1])
                self._open_window(st, t)

            elif kind == "COLLISION":
                elu_id = payload
                counters["collisions"] += 1
                emit(t, "COLLISION", "", elu_id, "")
                for pair, buf in sorted(buffers.items()):
                    if elu_id in pair and buf:
                        counters["invalidated"] += len(buf)
                        buf.clear()
                        reschedule_expiry(pair)
                self.elu_reload_until[elu_id] = t + self.spec.elu(elu_id).reload_time
                self.elu_epoch[elu_id] += 1
                self._push(self.elu_reload_until[elu_id], "RELOAD_DONE",
                           (elu_id, self.elu_epoch[elu_id]))
                for link in sorted(self.links):
                    if elu_id in (link[0][0], link[1][0]):
                        self._close_window(self.links[link], t)
                u = self.rng.random()
                self._push(t - math.log(1.0 - u) / self.collision_rates[elu_id],
                           "COLLISION", elu_id)

            elif kind == "RELOAD_DONE":
                elu_id, epoch = payload
                if self.elu_epoch[elu_id] != epoch:
                    continue
                emit(t, "RELOAD_DONE", "", elu_id, "")
                for link in sorted(self.links):
                    if elu_id in (link[0][0], link[1][0]):
                        self._open_window(self.links[link], t)

            elif kind == "SUCCESS":
                st, epoch, slot = payload
                if st.epoch != epoch:
                    continue
                st.attempts += slot - st.consumed
                st.consumed = slot
                st.successes += 1
                counters["successes"] += 1
                emit(t, "SUCCESS", st.label, st.pair[0], st.pair[1])
                pair = st.pair
                success_times[pair].append(t)
                buf = buffers[pair]
                if waiting[pair]:
                    deliver(pair, waiting[pair].popleft(), t)
                elif len(buf) < capacity:
                    buf.append(t + lifetime)
                    if len(buf) == 1:
                        reschedule_expiry(pair)
                else:
                    counters["overflow"] += 1
                st.countdown = sample_countdown()
                schedule_success(st)

            elif kind == "PAIR_EXPIRED":
                pair, epoch = payload
                if self.buffer_epoch[pair] != epoch:
                    continue
                drop_expired(pair, t)
                reschedule_expiry(pair)

            elif kind == "PAIR_REQUEST":
                pair = payload
                counters["requests"] += 1
                emit(t, "PAIR_REQUEST", "", pair[0], pair[1])
                if buffers[pair]:
                    buffers[pair].popleft()
                    reschedule_expiry(pair)
                    deliver(pair, t, t)
                else:
                    waiting[pair].append(t)
        self.now = max(self.now, until)

    def finish(self, horizon: float) -> SimResult:
        """Advance to ``horizon``, then account attempts and residual pairs."""
        self.advance(horizon)
        if horizon < self.now:
            raise DomainError(
                f"horizon {horizon!r} is before the time already simulated, {self.now!r}")
        for link in sorted(self.links):
            self._close_window(self.links[link], horizon)
        counters = self.counters
        residual = 0
        for pair in sorted(self.buffers):
            self._drop_expired(pair, horizon)
            residual += len(self.buffers[pair])

        per_link = {
            st.label: LinkStats(st.attempts, st.successes, st.successes / horizon)
            for _, st in sorted(self.links.items())
        }
        mean_rate = (sum(s.measured_rate for s in per_link.values()) / len(per_link)
                     if per_link else 0.0)
        served = counters["delivered"]
        return SimResult(
            horizon=horizon,
            seed=self.seed,
            per_link=per_link,
            mean_connection_rate=mean_rate,
            ledger=Ledger(
                successes=counters["successes"],
                delivered=counters["delivered"],
                expired=counters["expired"],
                invalidated=counters["invalidated"],
                overflow_dropped=counters["overflow"],
                residual=residual,
            ),
            collisions=counters["collisions"],
            request_count=counters["requests"],
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


def theoretical_rate_check(spec: ArchitectureSpec, link: Link | None = None,
                           seed: int = 0, attempts: int = 1_000_000,
                           p_override: float | None = None) -> RateCheck:
    """Standardized fixed-attempt-count run compared against R*p.

    Returns the rate measured over the attempt span (R * successes/attempts),
    the analytic rate, and the binomial z-score of the observed success count.
    """
    if link is None:
        link = default_link(spec)
    horizon = (attempts + 0.5) / spec.attempt_rate
    sim = NetworkSim(spec, [(0.0, SwitchConfig(frozenset({link})))], [], seed,
                     p_override)
    stats = sim.finish(horizon).per_link[link_label(link)]
    p = sim.p
    analytic = spec.attempt_rate * p
    n = stats.attempts
    if 0.0 < p < 1.0 and n:
        z = (stats.successes - n * p) / math.sqrt(n * p * (1.0 - p))
    else:
        z = 0.0
    return RateCheck(
        attempts=n,
        successes=stats.successes,
        measured_rate=spec.attempt_rate * stats.successes / n if n else 0.0,
        analytic_rate=analytic,
        z_score=z,
    )
