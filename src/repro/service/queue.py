"""Multi-tenant service queue: many evaluation sessions over one shared engine.

:class:`ServiceQueue` is the service layer's front door.  Tenants submit
workloads; admission control enforces a bounded queue (backpressure: a full
queue *rejects with a reason* instead of buffering unboundedly) and per-tenant
shot budgets (a submission that would overdraw its tenant's remaining budget is
rejected up front, and the shots an admitted session does not end up spending —
early termination or a failure — are refunded when it settles).  Admitted sessions run over
one shared :class:`~repro.engine.ParallelEngine`: they are prepared in FIFO
order and their rounds are interleaved round-robin, so a long evaluation cannot
starve the sessions admitted after it — each gets one round per scheduling
sweep.  Every step passes its session's own shot plan with its batch and the
engine keeps none, so interleaved sessions never draw each other's shots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..engine import ParallelEngine
from ..exceptions import ConfigError
from .session import EvaluationSession

__all__ = ["ServiceQueue", "SessionTicket"]

#: Ticket lifecycle states.  ``"rejected"`` tickets never ran (``reason`` says
#: why); ``"failed"`` tickets ran and raised (``error`` holds the exception).
TICKET_STATES = ("queued", "rejected", "running", "done", "failed")


@dataclass
class SessionTicket:
    """One submission's handle: admission outcome, progress, and final result.

    Args:
        ticket_id: queue-assigned submission sequence number (FIFO order).
        tenant: the tenant the submission was accounted against.
        status: one of :data:`TICKET_STATES`.
        reason: why admission rejected the submission (``None`` when admitted).
        result: the ``EvaluationResult`` once the session finished.
        error: the exception that failed the session (``None`` otherwise).
        reserved_shots: shots debited from the tenant's budget at admission
            (unspent shots are refunded when the session completes or fails).
        session: the underlying :class:`~repro.service.EvaluationSession`
            (``None`` for rejected tickets).
    """

    ticket_id: int
    tenant: str
    status: str = "queued"
    reason: Optional[str] = None
    result: Optional[object] = None
    error: Optional[BaseException] = None
    reserved_shots: int = 0
    session: Optional[EvaluationSession] = field(default=None, repr=False)


class ServiceQueue:
    """Admit, schedule and account evaluation sessions on one shared engine.

    Args:
        engine: the shared :class:`~repro.engine.ParallelEngine` every admitted
            session executes on (its executor must be sampling-capable when
            sessions use ``shots``).  The queue never closes it.
        max_pending: bound on concurrently queued-or-running sessions; a
            submission past it is rejected with reason ``"queue_full"``
            (backpressure — resubmit after :meth:`run` drains the queue).
        budgets: optional per-tenant total shot budgets.  A tenant listed here
            can never have more shots reserved than its budget; unlisted
            tenants are unmetered.

    Typical use::

        queue = ServiceQueue(engine, max_pending=4, budgets={"alice": 50_000})
        ticket = queue.submit(workload, config, tenant="alice", shots=8192,
                              streaming=StreamingConfig(rounds=4))
        queue.run()
        assert ticket.status == "done" and ticket.result is not None
    """

    def __init__(
        self,
        engine: ParallelEngine,
        max_pending: int = 8,
        budgets: Optional[Mapping[str, int]] = None,
    ) -> None:
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        for tenant, budget in (budgets or {}).items():
            if budget < 0:
                raise ConfigError(f"budget for tenant {tenant!r} must be >= 0, got {budget}")
        self.engine = engine
        self.max_pending = int(max_pending)
        self._remaining: Dict[str, int] = {
            tenant: int(budget) for tenant, budget in (budgets or {}).items()
        }
        self._spent: Dict[str, int] = {}
        self._tickets: List[SessionTicket] = []

    # ------------------------------------------------------------------ accounting
    @property
    def tickets(self) -> List[SessionTicket]:
        """Every ticket ever issued, in submission (FIFO) order (a copy)."""
        return list(self._tickets)

    @property
    def pending(self) -> int:
        """Sessions admitted but not yet finished (queued + running)."""
        return sum(1 for ticket in self._tickets if ticket.status in ("queued", "running"))

    def remaining_budget(self, tenant: str) -> Optional[int]:
        """The tenant's unreserved shot budget (``None`` for unmetered tenants)."""
        return self._remaining.get(tenant)

    def shots_spent(self, tenant: str) -> int:
        """Shots actually spent by the tenant's completed sessions so far."""
        return self._spent.get(tenant, 0)

    # ------------------------------------------------------------------ admission
    def submit(
        self,
        workload: Any,
        config: Any,
        tenant: str = "default",
        shots: Optional[int] = None,
        **kwargs: Any,
    ) -> SessionTicket:
        """Admit one evaluation, or reject it with a reason; never raises for that.

        Args:
            workload: the workload to evaluate (as in ``evaluate_workload``).
            config: the cutting meta parameters (a ``CutConfig``).
            tenant: the tenant to account the submission against.
            shots: the session's finite-shot budget (``None`` keeps the shared
                engine config's ``shots``).  Whichever budget the session ends
                up with is reserved against the tenant's budget at admission;
                an exact session has nothing to meter.
            **kwargs: per-session policy overrides forwarded to
                :class:`~repro.service.EvaluationSession` on the queue's shared
                engine: ``allocation``, ``pruning``, ``streaming``,
                ``stopping``, ``qubit_limit``, ``recursion_depth`` and
                ``optimize_overhead`` (plus ``compute_reference`` and
                ``force_greedy``).  Seeds, device farms and
                routing belong to the shared engine's own config.

        Returns:
            A :class:`SessionTicket`.  ``status == "queued"`` means admitted;
            ``"rejected"`` carries the reason: ``"queue_full"`` (backpressure),
            ``"budget_exceeded"`` (the tenant's remaining budget cannot cover
            the session's shots), or the construction error message for an
            invalid session configuration.
        """
        ticket = SessionTicket(ticket_id=len(self._tickets), tenant=tenant)
        self._tickets.append(ticket)
        if self.pending > self.max_pending:
            ticket.status = "rejected"
            ticket.reason = "queue_full"
            return ticket
        try:
            session = EvaluationSession(
                workload, config, engine=self.engine, shots=shots, **kwargs
            )
        except Exception as error:  # invalid configuration — reject, don't raise
            ticket.status = "rejected"
            ticket.reason = str(error)
            return ticket
        # Meter the shots the session will draw: ``shots`` or, when unset, the
        # shared engine config's budget.
        reserved = int(session.shots or 0)
        remaining = self._remaining.get(tenant)
        if remaining is not None and reserved > remaining:
            ticket.status = "rejected"
            ticket.reason = "budget_exceeded"
            return ticket
        ticket.session = session
        ticket.reserved_shots = reserved
        if remaining is not None:
            self._remaining[tenant] = remaining - reserved
        return ticket

    # ------------------------------------------------------------------ scheduling
    def _settle(self, ticket: SessionTicket) -> None:
        """Account a finished (done or failed) session against its tenant."""
        spent = ticket.session.shots_spent if ticket.session is not None else 0
        self._spent[ticket.tenant] = self._spent.get(ticket.tenant, 0) + spent
        if ticket.tenant in self._remaining:
            # Refund what the reservation covered but the session never drew
            # (early termination, or a failure before the budget was used up);
            # overspend (a variance pilot on top of the reservation) stays
            # debited.
            refund = max(0, ticket.reserved_shots - spent)
            self._remaining[ticket.tenant] += refund

    def run(self) -> List[SessionTicket]:
        """Drain the queue: prepare FIFO, interleave rounds round-robin.

        Single-threaded and deterministic: sessions are prepared in submission
        order, then each scheduling sweep gives every live session exactly one
        round, so early submitters finish no later than round-for-round fairness
        allows and nobody starves.  A session that raises is marked
        ``"failed"`` (its exception on ``ticket.error``) without taking the
        queue down.  Returns the tickets this call completed.
        """
        batch: List[SessionTicket] = []
        for ticket in self._tickets:
            if ticket.status != "queued":
                continue
            ticket.status = "running"
            try:
                ticket.session.prepare()
                batch.append(ticket)
            except Exception as error:
                ticket.status = "failed"
                ticket.error = error
                ticket.session.close()
                self._settle(ticket)
        live = list(batch)
        while live:
            for ticket in list(live):
                try:
                    if ticket.session.step():
                        continue
                    ticket.result = ticket.session.finish()
                    ticket.status = "done"
                except Exception as error:
                    ticket.status = "failed"
                    ticket.error = error
                ticket.session.close()
                self._settle(ticket)
                live.remove(ticket)
        return batch
