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

from ..engine import EngineConfig, ParallelEngine
from ..exceptions import ConfigError, ReproError
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
            sessions set ``shots``).  The queue never closes it.
        max_pending: bound on concurrently queued-or-running sessions; a
            submission past it is rejected with reason ``"queue_full"``
            (backpressure — resubmit after :meth:`run` drains the queue).
        budgets: optional per-tenant total shot budgets.  A tenant listed here
            can never have more shots reserved than its budget; unlisted
            tenants are unmetered.

    Typical use::

        queue = ServiceQueue(engine, max_pending=4, budgets={"alice": 50_000})
        policy = engine.config.with_(shots=8192, streaming=StreamingConfig(rounds=4))
        ticket = queue.submit(workload, config, tenant="alice", engine_config=policy)
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
        engine_config: Optional[EngineConfig] = None,
        compute_reference: bool = True,
        force_greedy: bool = False,
    ) -> SessionTicket:
        """Admit one evaluation, or reject it with a reason; never raises for that.

        Args:
            workload: the workload to evaluate (as in ``evaluate_workload``).
            config: the cutting meta parameters (a ``CutConfig``).
            tenant: the tenant to account the submission against.
            engine_config: the session's :class:`~repro.engine.EngineConfig`
                (``None`` uses the shared engine's config), as in
                :class:`~repro.service.EvaluationSession` on the queue's
                engine: it carries the session's policy, its engine-level
                fields must equal the engine's, and its ``seed`` must be
                unset.  ``engine.config.with_(shots=...)`` is the usual
                spelling.  The session's ``shots`` are reserved against the
                tenant's budget at admission; an exact session has nothing to
                meter.
            compute_reference: simulate the uncut circuit for accuracy
                reporting (as in ``evaluate_workload``).
            force_greedy: always use the greedy heuristic cutter.

        Returns:
            A :class:`SessionTicket`.  ``status == "queued"`` means admitted;
            ``"rejected"`` carries the reason: ``"queue_full"`` (backpressure),
            ``"budget_exceeded"`` (the tenant's remaining budget cannot cover
            the session's shots), or the message of the library error
            (:class:`~repro.exceptions.ReproError`) that an invalid session
            configuration raised.  Any other exception, such as a
            ``TypeError`` from a misspelt keyword, propagates.
        """
        # A ticket joins the list only once admission has decided, so an
        # exception that propagates (a programming error) leaves none behind.
        ticket = SessionTicket(ticket_id=len(self._tickets), tenant=tenant)
        if self.pending >= self.max_pending:
            return self._reject(ticket, "queue_full")
        try:
            session = EvaluationSession(
                workload,
                config,
                compute_reference=compute_reference,
                force_greedy=force_greedy,
                engine=self.engine,
                engine_config=engine_config,
            )
        except ReproError as error:  # invalid configuration — reject, don't raise
            return self._reject(ticket, str(error))
        reserved = int(session.shots or 0)
        remaining = self._remaining.get(tenant)
        if remaining is not None and reserved > remaining:
            return self._reject(ticket, "budget_exceeded")
        ticket.session = session
        ticket.reserved_shots = reserved
        if remaining is not None:
            self._remaining[tenant] = remaining - reserved
        self._tickets.append(ticket)
        return ticket

    def _reject(self, ticket: SessionTicket, reason: str) -> SessionTicket:
        ticket.status = "rejected"
        ticket.reason = reason
        self._tickets.append(ticket)
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
