"""Query budgets, degradation reasons, and partial results.

A :class:`Budget` travels with one query through
``prepare_query → build_clusters → top_k`` (and the explain forest).
Each stage charges the work it does and polls the budget at cooperative
cancellation points; when a limit trips, the stage *stops where it is*
and records a machine-readable :class:`DegradationReason` instead of
raising.  The engine then returns whatever was found so far as a
:class:`PartialResult` (or raises
:class:`~repro.resilience.errors.QueryTimeout` under
``on_budget="raise"``).

Deadline checks read a clock, which costs more than an integer compare,
so :meth:`Budget.poll` only consults it every ``check_stride`` calls —
the stride is what keeps budget enforcement under the <5 % overhead
target (``benchmarks/bench_resilience_overhead.py``).  The clock is
injectable, which the fault harness uses to simulate clock skew.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

#: The search's expansion cap when a :class:`Budget` names none (a
#: safety valve: ``Budget(max_expansions=None)`` lifts it).
DEFAULT_MAX_EXPANSIONS = 100_000


class DegradationCause(enum.Enum):
    """Why a result is partial (machine-readable)."""

    #: The wall-clock deadline expired mid-query.
    DEADLINE = "deadline"
    #: Candidate evaluation was cut short (``max_candidates`` tripped).
    CLUSTER_TRUNCATION = "cluster_truncation"
    #: The search stopped after ``max_expansions`` frontier pops.
    EXPANSION_CAP = "expansion_cap"
    #: One or more index shards failed mid-query; their candidates are
    #: missing from the answer (the healthy shards' results survive).
    SHARD_FAILED = "shard_failed"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class DegradationReason:
    """One recorded budget trip: what tripped, where, and any detail."""

    cause: DegradationCause
    phase: str            # "prepare" | "cluster" | "search" | "forest"
    detail: str = ""

    def __str__(self):
        text = f"{self.cause.value} in {self.phase}"
        return f"{text} ({self.detail})" if self.detail else text


class Budget:
    """A per-query resource envelope with cooperative cancellation.

    Parameters
    ----------
    deadline_ms:
        Wall-clock budget in milliseconds, measured from construction
        (or the latest :meth:`restart`).  ``None`` means no deadline.
    max_expansions:
        Cap on top-k search frontier pops across the query: a cap of
        N admits exactly N pops.  Defaults to
        :data:`DEFAULT_MAX_EXPANSIONS`; ``None`` means unlimited.
    max_candidates:
        Cap on candidate data paths evaluated during clustering,
        totalled across the query's clusters: a cap of N admits N.
    clock:
        Monotonic-seconds callable (injectable for tests/fault plans).
    check_stride:
        :meth:`poll` reads the clock once per this many calls.

    A budget is single-use state, not configuration: create one per
    query.  All trips are recorded in :attr:`reasons`; stages never
    raise on a trip — degradation decisions belong to the caller.
    """

    def __init__(self, deadline_ms: "float | None" = None,
                 max_expansions: "int | None" = DEFAULT_MAX_EXPANSIONS,
                 max_candidates: "int | None" = None,
                 clock=time.monotonic, check_stride: int = 32):
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
        if check_stride < 1:
            raise ValueError(f"check_stride must be >= 1, got {check_stride}")
        self.deadline_ms = deadline_ms
        self.max_expansions = max_expansions
        self.max_candidates = max_candidates
        self.clock = clock
        self.check_stride = check_stride
        self.expansions = 0
        self.candidates = 0
        self.reasons: list[DegradationReason] = []
        self._polls = 0
        self._expired = False
        self.restart()

    def restart(self) -> None:
        """Re-arm the deadline from *now* (counters are preserved)."""
        self._started = self.clock()
        self._deadline_at = (None if self.deadline_ms is None
                             else self._started + self.deadline_ms / 1000.0)
        self._expired = False

    # -- clock ----------------------------------------------------------------

    def remaining_ms(self) -> "float | None":
        """Milliseconds left on the deadline; ``None`` when unlimited."""
        if self._deadline_at is None:
            return None
        return max(0.0, (self._deadline_at - self.clock()) * 1000.0)

    def expired(self) -> bool:
        """True once the deadline has passed (reads the clock)."""
        if self._deadline_at is None:
            return False
        if not self._expired and self.clock() >= self._deadline_at:
            self._expired = True
        return self._expired

    # -- cooperative checks ------------------------------------------------------

    def note(self, cause: DegradationCause, phase: str,
             detail: str = "") -> DegradationReason:
        """Record one degradation reason (deduplicated per cause+phase)."""
        reason = DegradationReason(cause=cause, phase=phase, detail=detail)
        for existing in self.reasons:
            if existing.cause is cause and existing.phase == phase:
                return existing
        self.reasons.append(reason)
        return reason

    def out_of_time(self, phase: str) -> "DegradationReason | None":
        """Unstrided deadline check; records DEADLINE when tripped.

        Returns the (truthy) recorded reason when the deadline has
        passed, ``None`` otherwise — as do every ``charge_*`` and
        :meth:`poll`, so call sites can both test and report with one
        call.
        """
        if self.expired():
            return self.note(DegradationCause.DEADLINE, phase,
                             f"deadline_ms={self.deadline_ms:g}")
        return None

    def poll(self, phase: str) -> "DegradationReason | None":
        """Strided deadline check for hot loops.

        Reads the clock only every ``check_stride`` calls (but always
        on the first, so a 0 ms deadline trips before any work).  Once
        tripped it stays tripped without touching the clock again.
        """
        if self._deadline_at is None:
            return None
        if self._expired:
            return self.note(DegradationCause.DEADLINE, phase,
                             f"deadline_ms={self.deadline_ms:g}")
        self._polls += 1
        if self._polls != 1 and self._polls % self.check_stride:
            return None
        return self.out_of_time(phase)

    def charge_candidates(self, count: int = 1,
                          phase: str = "cluster") -> "DegradationReason | None":
        """Charge candidate evaluations; the reason when the total
        exceeds the cap (or the deadline has passed)."""
        self.candidates += count
        if (self.max_candidates is not None
                and self.candidates > self.max_candidates):
            return self.note(DegradationCause.CLUSTER_TRUNCATION, phase,
                             f"max_candidates={self.max_candidates}")
        return self.poll(phase)

    def charge_expansion(self,
                         phase: str = "search") -> "DegradationReason | None":
        """Charge one search expansion; the reason when the total
        exceeds the cap (or the deadline has passed)."""
        self.expansions += 1
        if (self.max_expansions is not None
                and self.expansions > self.max_expansions):
            return self.note(DegradationCause.EXPANSION_CAP, phase,
                             f"max_expansions={self.max_expansions}")
        return self.poll(phase)

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)

    def __repr__(self):
        limits = []
        if self.deadline_ms is not None:
            limits.append(f"deadline={self.deadline_ms:g}ms")
        if self.max_expansions is not None:
            limits.append(f"expansions<={self.max_expansions}")
        if self.max_candidates is not None:
            limits.append(f"candidates<={self.max_candidates}")
        state = "tripped" if self.degraded else "ok"
        return f"<Budget {' '.join(limits) or 'unlimited'}: {state}>"


class PartialResult(list):
    """Ranked answers that may have been cut short by a budget.

    A drop-in ``list`` of answers (indexing, iteration and truthiness
    behave exactly like the plain list the engine used to return) with
    the degradation record attached: :attr:`reasons` is the tuple of
    :class:`DegradationReason` explaining any missing work, and
    :attr:`complete` is True when no budget tripped.
    """

    def __init__(self, answers=(), reasons=()):
        super().__init__(answers)
        self.reasons: tuple[DegradationReason, ...] = tuple(reasons)

    @property
    def complete(self) -> bool:
        return not self.reasons

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)

    def causes(self) -> set[DegradationCause]:
        """The distinct causes behind this result's degradation."""
        return {reason.cause for reason in self.reasons}

    def __repr__(self):
        status = ("complete" if self.complete else
                  ", ".join(str(reason) for reason in self.reasons))
        return f"<PartialResult: {len(self)} answers, {status}>"
