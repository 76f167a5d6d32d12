"""Per-shard health tracking: circuit breakers and quarantine.

A :class:`ShardHealth` board rides on every
:class:`~repro.index.sharded.ShardedIndex` and answers one question per
shard at dispatch time — *is this shard worth sending work to right
now?* — so a dead partition costs one failed probe per cooldown window
instead of a storage-timeout per candidate per query.

Each shard gets a :class:`ShardBreaker`, a classic three-state circuit
breaker:

- **closed** — healthy; every dispatch is allowed.  Failures increment
  a consecutive-failure counter; reaching ``failure_threshold`` trips
  the breaker open.
- **open** — the shard is out of rotation; dispatches are refused
  (callers degrade with ``SHARD_FAILED`` instead of paying the failure
  again).  After a cooldown the breaker moves to half-open.
- **half-open** — exactly one *probe* dispatch is admitted.  Success
  closes the circuit (full re-admission); failure re-opens it with the
  cooldown doubled (capped), plus a small seeded jitter so many
  servers probing one recovering shard do not stampede in lockstep.

**Quarantine** is the administrative superstate: a quarantined shard
(damaged manifest found by the startup recovery scan, or an operator's
decision) admits no probes at all until :meth:`ShardHealth.readmit`.

Determinism: the board only changes behaviour after a failure is
recorded, so a fault-free run dispatches exactly as if the board did
not exist — the bit-identical-rankings guarantee of sharded clustering
is untouched.  The clock and jitter seed are injectable, so
breaker trajectories are replayable in tests.

>>> health = ShardHealth(2, BreakerConfig(failure_threshold=2))
>>> health.allow(0), health.allow(1)
(True, True)
>>> health.record_failure(0, "boom")
>>> health.allow(0)             # one failure: still closed
True
>>> health.record_failure(0, "boom again")
>>> health.allow(0)             # threshold reached: circuit open
False
>>> health.degraded
True
>>> health.state(0)
'open'
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

#: Breaker state names (plain strings: they go straight into /stats).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one shard's circuit breaker."""

    #: Consecutive failures that trip the circuit open.
    failure_threshold: int = 3
    #: Seconds the circuit stays open before admitting a probe.
    cooldown_s: float = 2.0
    #: Cooldown growth per failed probe (exponential, capped).
    backoff_multiplier: float = 2.0
    max_cooldown_s: float = 60.0
    #: Fraction of the cooldown added as seeded jitter ([0, jitter)).
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {self.failure_threshold}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, "
                             f"got {self.cooldown_s}")


class ShardBreaker:
    """The circuit breaker of one shard (state machine above).

    Not thread-safe on its own — :class:`ShardHealth` serialises every
    transition under one board lock, which is plenty: transitions are
    a few attribute writes, and dispatch-time ``allow`` is one state
    compare in the common (closed) case.
    """

    __slots__ = ("config", "state", "consecutive_failures", "cooldown_s",
                 "retry_at", "probe_in_flight", "last_error",
                 "failures_total", "successes_total", "trips_total",
                 "probes_total", "_rng")

    def __init__(self, config: BreakerConfig, shard: int = 0):
        self.config = config
        self.state = CLOSED
        self.consecutive_failures = 0
        self.cooldown_s = config.cooldown_s
        self.retry_at = 0.0
        self.probe_in_flight = False
        self.last_error = ""
        self.failures_total = 0
        self.successes_total = 0
        self.trips_total = 0
        self.probes_total = 0
        # Per-shard stream: two shards of one board never share draws,
        # and the same (seed, shard) always jitters identically.
        self._rng = random.Random((config.seed << 8) ^ (shard * 0x61C88647))

    def allow(self, now: float) -> bool:
        if self.state == CLOSED:
            return True
        if self.state == QUARANTINED:
            return False
        if self.state == OPEN:
            if now < self.retry_at:
                return False
            self.state = HALF_OPEN
            self.probe_in_flight = True
            self.probes_total += 1
            return True
        # Half-open: one probe at a time.
        if self.probe_in_flight:
            return False
        self.probe_in_flight = True
        self.probes_total += 1
        return True

    def record_success(self, now: float) -> None:
        self.successes_total += 1
        self.consecutive_failures = 0
        if self.state == QUARANTINED:
            return            # only readmit() clears quarantine
        if self.state in (HALF_OPEN, OPEN):
            # The probe came back healthy: full re-admission, cooldown
            # reset so the next incident starts from scratch.
            self.cooldown_s = self.config.cooldown_s
        self.state = CLOSED
        self.probe_in_flight = False

    def record_failure(self, now: float, error: str = "") -> None:
        self.failures_total += 1
        self.consecutive_failures += 1
        if error:
            self.last_error = error
        if self.state == QUARANTINED:
            return
        if self.state == HALF_OPEN:
            # Failed probe: back off harder before the next one.
            self.cooldown_s = min(
                self.cooldown_s * self.config.backoff_multiplier,
                self.config.max_cooldown_s)
            self._open(now)
        elif (self.state == CLOSED
              and self.consecutive_failures >= self.config.failure_threshold):
            self._open(now)

    def quarantine(self, reason: str) -> None:
        self.state = QUARANTINED
        self.last_error = reason
        self.probe_in_flight = False

    def readmit(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.cooldown_s = self.config.cooldown_s
        self.probe_in_flight = False

    def _open(self, now: float) -> None:
        self.state = OPEN
        self.trips_total += 1
        self.probe_in_flight = False
        jitter = self.cooldown_s * self.config.jitter * self._rng.random()
        self.retry_at = now + self.cooldown_s + jitter


class ShardHealth:
    """The health board of one sharded index: N breakers, one lock.

    Clustering asks :meth:`allow` once per cluster for every shard that
    holds candidates and reports the outcome with :meth:`record_success`
    / :meth:`record_failure`; the serving layer projects
    :meth:`snapshot` into ``/healthz``, ``/stats`` and the
    ``sama_shard_*`` metric families.
    """

    def __init__(self, shard_count: int,
                 config: "BreakerConfig | None" = None,
                 clock=time.monotonic):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.config = config or BreakerConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._breakers = [ShardBreaker(self.config, shard)
                          for shard in range(shard_count)]

    # -- dispatch-time interface -------------------------------------------

    def allow(self, shard: int) -> bool:
        """Whether work may be sent to ``shard`` right now.

        May consume the single half-open probe slot — a caller that is
        granted ``True`` on a non-closed breaker *is* the probe and
        must report back via ``record_success``/``record_failure``.
        """
        with self._lock:
            return self._breakers[shard].allow(self.clock())

    def record_success(self, shard: int) -> None:
        with self._lock:
            self._breakers[shard].record_success(self.clock())

    def record_failure(self, shard: int, error: "object" = "") -> None:
        with self._lock:
            self._breakers[shard].record_failure(self.clock(), str(error))

    # -- administration -----------------------------------------------------

    def quarantine(self, shard: int, reason: str = "") -> None:
        """Take ``shard`` out of rotation until :meth:`readmit`."""
        with self._lock:
            self._breakers[shard].quarantine(reason)

    def readmit(self, shard: int) -> None:
        """Administratively re-admit ``shard`` (post-repair)."""
        with self._lock:
            self._breakers[shard].readmit()

    # -- introspection -------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._breakers)

    def state(self, shard: int) -> str:
        with self._lock:
            return self._breakers[shard].state

    def failed_shards(self) -> "list[int]":
        """Shards currently out of rotation (open or quarantined)."""
        with self._lock:
            return [shard for shard, breaker in enumerate(self._breakers)
                    if breaker.state in (OPEN, QUARANTINED)]

    def quarantined_shards(self) -> "list[tuple[int, str]]":
        """Quarantined shards with their reasons.

        Distinct from :meth:`failed_shards`: a merely *open* circuit
        recovers on its own through half-open probes, so dispatchers
        must keep asking :meth:`allow` about it — only quarantine is
        final until :meth:`readmit`, which is what lets a query mark
        these shards lost up front without wedging recovery.
        """
        with self._lock:
            return [(shard, breaker.last_error)
                    for shard, breaker in enumerate(self._breakers)
                    if breaker.state == QUARANTINED]

    @property
    def degraded(self) -> bool:
        """True when any shard is not fully healthy."""
        with self._lock:
            return any(breaker.state != CLOSED
                       for breaker in self._breakers)

    def snapshot(self) -> "list[dict]":
        """One JSON-ready status document per shard (for ``/stats``)."""
        with self._lock:
            return [{
                "shard": shard,
                "state": breaker.state,
                "consecutive_failures": breaker.consecutive_failures,
                "failures": breaker.failures_total,
                "successes": breaker.successes_total,
                "trips": breaker.trips_total,
                "probes": breaker.probes_total,
                "last_error": breaker.last_error,
            } for shard, breaker in enumerate(self._breakers)]

    def __repr__(self):
        with self._lock:
            states = [breaker.state for breaker in self._breakers]
        return f"<ShardHealth {states}>"
