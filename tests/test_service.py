"""Tests for the multi-tenant service queue: admission control (backpressure
and per-tenant shot budgets), round-robin interleaving of concurrent sessions
over one shared engine, refunds on early termination, failure isolation,
per-session stats windows that sum to the engine's executed work, and one
``EngineConfig`` as the only spelling of a session's settings."""

import json

import pytest

from repro import (
    ConfigError,
    CutConfig,
    CuttingError,
    EvaluationSession,
    ServiceQueue,
    StoppingRule,
    StreamingConfig,
    evaluate_workload,
)
from repro.cutting import SamplingExecutor
from repro.engine import DeviceSpec, EngineConfig, ParallelEngine, PruningPolicy, ResultCache
from repro.workloads import make_workload

from strategies import without_durations

CONFIG = CutConfig(device_size=3, max_subcircuits=2)
#: Cut search cannot fit a 5-qubit VQE onto width-2 devices (InfeasibleError
#: at prepare time) — used to exercise failure isolation.
INFEASIBLE = CutConfig(device_size=2, max_subcircuits=2)
SHOTS = 4096
SAMPLED = EngineConfig(shots=SHOTS)


def workload(seed=3):
    return make_workload("VQE", 5, layers=1, seed=seed)


def shared_engine(**config_kwargs):
    return ParallelEngine(
        SamplingExecutor(shots=SHOTS, seed=0),
        EngineConfig(**config_kwargs) if config_kwargs else None,
    )


class TestQueueConstruction:
    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ConfigError, match="max_pending"):
            ServiceQueue(shared_engine(), max_pending=0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            ServiceQueue(shared_engine(), budgets={"alice": -1})

    def test_unmetered_tenant_has_no_budget(self):
        queue = ServiceQueue(shared_engine(), budgets={"alice": 100})
        assert queue.remaining_budget("alice") == 100
        assert queue.remaining_budget("bob") is None


class TestConcurrentSessions:
    def test_three_sessions_interleave_on_one_engine(self):
        # The acceptance scenario: >= 3 concurrent sessions multiplexed over
        # one shared engine, every one completing with the same answer its
        # solo (dedicated-engine) evaluation produces at the same seed.
        engine = shared_engine()
        queue = ServiceQueue(engine, max_pending=4)
        seeds = [3, 4, 5]
        tickets = [
            queue.submit(
                workload(seed),
                CONFIG,
                tenant=f"tenant-{seed}",
                engine_config=EngineConfig(shots=SHOTS, streaming=StreamingConfig(rounds=3)),
            )
            for seed in seeds
        ]
        assert queue.pending == 3
        finished = queue.run()
        assert len(finished) == 3 and queue.pending == 0
        for ticket, seed in zip(tickets, seeds):
            assert ticket.status == "done"
            solo = evaluate_workload(
                workload(seed),
                CONFIG,
                engine_config=EngineConfig(
                    shots=SHOTS,
                    seed=0,
                    streaming=StreamingConfig(rounds=3),
                ),
            )
            assert ticket.result.expectation_value == solo.expectation_value
            assert ticket.result.termination_reason == "completed"

    def test_interleaved_sessions_report_their_own_stats_and_allocation(self):
        # Different budgets and policies on one shared engine: each session's
        # engine stats and shot allocation must be what it reports when run
        # alone, never the other session's.
        queue = ServiceQueue(shared_engine(), max_pending=4)
        streaming = StreamingConfig(rounds=3)
        cases = [(3, SHOTS, "uniform"), (4, 20000, "weighted")]
        tickets = [
            queue.submit(
                workload(seed),
                CONFIG,
                engine_config=EngineConfig(shots=shots, allocation=policy, streaming=streaming),
                compute_reference=False,
            )
            for seed, shots, policy in cases
        ]
        queue.run()
        for ticket, (seed, shots, policy) in zip(tickets, cases):
            assert ticket.status == "done"
            solo = evaluate_workload(
                workload(seed),
                CONFIG,
                compute_reference=False,
                engine_config=EngineConfig(
                    shots=shots, seed=0, allocation=policy, streaming=streaming
                ),
            )
            stats = ticket.result.to_dict()["engine_stats"]
            solo_stats = solo.to_dict()["engine_stats"]
            stats.pop("execute_seconds")
            solo_stats.pop("execute_seconds")
            assert stats == solo_stats
            assert ticket.result.shot_allocation == solo.shot_allocation
            assert ticket.result.shot_allocation.policy == policy
            assert ticket.result.shot_allocation.total_shots == shots
            assert ticket.result.expectation_value == solo.expectation_value

    def test_two_streams_of_one_workload_on_one_executor(self):
        # Same workload and seed, so both sessions sample the same streams
        # and share one stream memo.  The second starts two rounds behind,
        # with the result cache cleared, so its round 1 reaches the sampler
        # while the memo holds the first session's longer streams.
        engine = shared_engine()
        streaming = StreamingConfig(rounds=3)
        kwargs = dict(
            compute_reference=False,
            engine=engine,
            engine_config=EngineConfig(shots=SHOTS, streaming=streaming),
        )
        first = EvaluationSession(workload(), CONFIG, **kwargs)
        first.prepare()
        assert first.step() and first.step()
        engine.cache.clear()
        assert engine.executor._stream_memo
        second = EvaluationSession(workload(), CONFIG, **kwargs)
        second.prepare()
        assert second.step()
        assert not first.step()
        while second.step():
            pass
        solo = evaluate_workload(
            workload(),
            CONFIG,
            compute_reference=False,
            engine_config=EngineConfig(shots=SHOTS, seed=0, streaming=streaming),
        )
        for session in (first, second):
            result = session.finish()
            session.close()
            assert result.expectation_value == solo.expectation_value
            assert result.half_width == solo.half_width
            assert result.termination_reason == "completed"

    def test_session_stats_windows_sum_to_engine_work(self):
        # Per-session stats deltas must partition the engine's lifetime
        # counters: nothing double-counted, nothing unattributed.
        engine = shared_engine()
        before = engine.stats
        queue = ServiceQueue(engine, max_pending=4)
        tickets = [
            queue.submit(workload(seed), CONFIG, engine_config=SAMPLED) for seed in (3, 4)
        ]
        queue.run()
        lifetime = engine.stats.since(before)
        per_session = [ticket.result.engine_stats for ticket in tickets]
        assert sum(s.unique_executions for s in per_session) == lifetime.unique_executions
        assert sum(s.requests for s in per_session) == lifetime.requests
        for ticket in tickets:
            assert (
                ticket.result.num_variant_evaluations
                == ticket.result.engine_stats.unique_executions
            )

    def test_device_utilization_sums_to_assigned_work(self):
        # With a homogeneous farm on the shared engine, the per-session device
        # reports must add up to the farm's lifetime assignment counts.
        farm = (
            DeviceSpec(name="q3-a", max_qubits=3),
            DeviceSpec(name="q3-b", max_qubits=3),
        )
        engine = ParallelEngine(
            SamplingExecutor(shots=SHOTS, seed=0), EngineConfig(devices=farm)
        )
        queue = ServiceQueue(engine, max_pending=4)
        sampled = engine.config.with_(shots=SHOTS)
        tickets = [
            queue.submit(workload(seed), CONFIG, engine_config=sampled) for seed in (3, 4)
        ]
        queue.run()
        lifetime = {u.name: u.assigned for u in engine.stats.devices}
        summed = {}
        for ticket in tickets:
            assert ticket.status == "done"
            for report in ticket.result.engine_stats.devices:
                summed[report.name] = summed.get(report.name, 0) + report.assigned
        assert summed == lifetime
        assert sum(lifetime.values()) > 0


class TestAdmissionControl:
    def test_backpressure_rejects_with_queue_full(self):
        queue = ServiceQueue(shared_engine(), max_pending=1)
        first = queue.submit(workload(), CONFIG, engine_config=SAMPLED)
        second = queue.submit(workload(), CONFIG, engine_config=SAMPLED)
        assert first.status == "queued"
        assert second.status == "rejected" and second.reason == "queue_full"
        # Draining the queue restores admission.
        queue.run()
        third = queue.submit(workload(), CONFIG, engine_config=SAMPLED)
        assert third.status == "queued"

    def test_budget_overdraft_rejected_and_never_exceeded(self):
        queue = ServiceQueue(
            shared_engine(), max_pending=4, budgets={"alice": SHOTS + SHOTS // 2}
        )
        first = queue.submit(workload(3), CONFIG, tenant="alice", engine_config=SAMPLED)
        second = queue.submit(workload(4), CONFIG, tenant="alice", engine_config=SAMPLED)
        assert first.status == "queued"
        assert second.status == "rejected" and second.reason == "budget_exceeded"
        queue.run()
        assert first.status == "done"
        assert queue.shots_spent("alice") <= SHOTS + SHOTS // 2

    def test_invalid_configuration_rejected_with_message(self):
        # A valid EngineConfig the session still refuses: dynamic definition
        # on an expectation workload.
        queue = ServiceQueue(shared_engine(), max_pending=4)
        ticket = queue.submit(workload(), CONFIG, engine_config=EngineConfig(qubit_limit=2))
        assert ticket.status == "rejected"
        assert "probability workloads" in ticket.reason

    def test_exact_session_on_sampling_engine_rejected(self):
        # Without a shot budget the sampling executor would sample every
        # variant at its own default shots, and nothing would be metered.
        queue = ServiceQueue(shared_engine(), budgets={"alice": 100})
        ticket = queue.submit(workload(), CONFIG, tenant="alice")
        assert ticket.status == "rejected" and ticket.session is None
        assert "shots=None" in ticket.reason
        assert queue.remaining_budget("alice") == 100
        assert queue.shots_spent("alice") == 0
        with pytest.raises(ConfigError, match="sampling executor"):
            EvaluationSession(workload(), CONFIG, engine=shared_engine())

    def test_engine_field_mismatch_rejected_with_message(self):
        queue = ServiceQueue(shared_engine(), max_pending=4)
        ticket = queue.submit(
            workload(), CONFIG, engine_config=SAMPLED.with_(max_workers=2, cache_size=8)
        )
        assert ticket.status == "rejected" and ticket.session is None
        assert "max_workers, cache_size" in ticket.reason

    def test_programming_errors_propagate(self):
        # Only library errors (an invalid configuration) become rejections; a
        # misspelt keyword or a wrong argument type is the caller's bug and
        # leaves no ticket behind.
        queue = ServiceQueue(shared_engine(), max_pending=4)
        with pytest.raises(TypeError):
            queue.submit(workload(), CONFIG, shot=1000)
        with pytest.raises(AttributeError):
            queue.submit(None, CONFIG, engine_config=SAMPLED)
        assert queue.tickets == [] and queue.pending == 0

    def test_rejected_tickets_reserve_nothing(self):
        queue = ServiceQueue(shared_engine(), max_pending=4, budgets={"alice": 100})
        ticket = queue.submit(workload(), CONFIG, tenant="alice", engine_config=SAMPLED)
        assert ticket.status == "rejected"
        assert queue.remaining_budget("alice") == 100

    def test_engine_config_shots_are_metered(self):
        # No per-submission shots: the session takes the shared engine
        # config's budget, and that is what the tenant is charged for.
        queue = ServiceQueue(
            shared_engine(shots=5000), max_pending=4, budgets={"alice": 100, "bob": 6000}
        )
        over = queue.submit(workload(), CONFIG, tenant="alice")
        assert over.status == "rejected" and over.reason == "budget_exceeded"
        assert over.session is None
        assert queue.remaining_budget("alice") == 100
        within = queue.submit(workload(), CONFIG, tenant="bob")
        assert within.status == "queued" and within.reserved_shots == 5000
        assert queue.remaining_budget("bob") == 1000
        queue.run()
        assert within.status == "done"
        assert queue.shots_spent("bob") == within.result.shots_spent == 5000


class TestAccounting:
    def test_early_termination_refunds_unspent_shots(self):
        budget = 4 * SHOTS
        queue = ServiceQueue(shared_engine(), max_pending=4, budgets={"alice": budget})
        ticket = queue.submit(
            workload(),
            CONFIG,
            tenant="alice",
            engine_config=EngineConfig(
                shots=SHOTS,
                streaming=StreamingConfig(rounds=8),
                stopping=StoppingRule(max_rounds=2),
            ),
        )
        queue.run()
        assert ticket.status == "done"
        assert ticket.result.termination_reason == "max_rounds"
        spent = queue.shots_spent("alice")
        assert 0 < spent < SHOTS  # it really did stop early
        # Refund leaves the budget debited by exactly what was spent.
        assert queue.remaining_budget("alice") == budget - spent

    def test_failure_in_prepare_refunds_its_reservation(self):
        budget = 2 * SHOTS
        queue = ServiceQueue(shared_engine(), max_pending=4, budgets={"alice": budget})
        ticket = queue.submit(workload(), INFEASIBLE, tenant="alice", engine_config=SAMPLED)
        assert ticket.status == "queued"
        assert queue.remaining_budget("alice") == budget - SHOTS
        queue.run()
        assert ticket.status == "failed"
        assert ticket.error is not None and ticket.result is None
        # The cut search failed before a single shot was drawn.
        assert queue.shots_spent("alice") == 0
        assert queue.remaining_budget("alice") == budget

    def test_failure_mid_step_refunds_unspent_shots(self):
        class FailingSecondBatch(SamplingExecutor):
            """Runs the first batch, then loses its device."""

            batches = 0

            def run_batch(self, variants, dispatch=None, shots=None):
                self.batches += 1
                if self.batches == 2:
                    raise RuntimeError("device lost between rounds")
                return super().run_batch(variants, dispatch=dispatch, shots=shots)

        budget = 2 * SHOTS
        engine = ParallelEngine(FailingSecondBatch(shots=SHOTS, seed=0))
        queue = ServiceQueue(engine, max_pending=4, budgets={"alice": budget})
        ticket = queue.submit(
            workload(),
            CONFIG,
            tenant="alice",
            engine_config=EngineConfig(shots=SHOTS, streaming=StreamingConfig(rounds=4)),
        )
        queue.run()
        assert ticket.status == "failed"
        assert isinstance(ticket.error, RuntimeError)
        spent = queue.shots_spent("alice")
        assert 0 < spent < SHOTS  # the first round was drawn, the rest never
        assert queue.remaining_budget("alice") == budget - spent

    def test_failure_does_not_take_down_the_batch(self):
        engine = shared_engine()
        queue = ServiceQueue(engine, max_pending=4)
        bad = queue.submit(workload(3), INFEASIBLE, engine_config=SAMPLED)
        good = queue.submit(workload(4), CONFIG, engine_config=SAMPLED)
        queue.run()
        assert bad.status == "failed"
        assert good.status == "done" and good.result is not None

    def test_tickets_are_fifo_and_copied(self):
        queue = ServiceQueue(shared_engine(), max_pending=4)
        ids = [queue.submit(workload(), CONFIG, engine_config=SAMPLED).ticket_id for _ in range(3)]
        assert ids == [0, 1, 2]
        tickets = queue.tickets
        tickets.clear()
        assert len(queue.tickets) == 3


def _qft5():
    return make_workload("QFT", 5)


#: One case per policy family, each run three ways below.  Shared engines
#: take no config seed, so the sampling executor is seeded instead.
SPELLING_CASES = {
    "exact": (workload, EngineConfig()),
    "shots-variance": (workload, EngineConfig(shots=SHOTS, allocation="variance")),
    "streaming-stopping": (
        workload,
        EngineConfig(
            shots=SHOTS, streaming=StreamingConfig(rounds=4), stopping=StoppingRule(max_rounds=2)
        ),
    ),
    "pruning": (workload, EngineConfig(pruning=PruningPolicy.budget_fraction(0.05))),
    "optimize-overhead": (workload, EngineConfig(shots=SHOTS, optimize_overhead="weights")),
    "qubit-limit": (_qft5, EngineConfig(qubit_limit=2)),
}


class TestOneConfigSpelling:
    """A session's settings are one EngineConfig, whichever entry point takes it."""

    @staticmethod
    def _fresh_engine(engine_config):
        executor = None
        if engine_config.shots is not None:
            executor = SamplingExecutor(
                shots=engine_config.shots, seed=0, cache=ResultCache(engine_config.cache_size)
            )
        return ParallelEngine(executor)

    @pytest.mark.parametrize("case", sorted(SPELLING_CASES))
    def test_same_config_same_result_through_every_entry_point(self, case):
        make, engine_config = SPELLING_CASES[case]
        seeded = engine_config.with_(seed=0) if engine_config.shots is not None else engine_config
        direct = evaluate_workload(make(), CONFIG, compute_reference=False, engine_config=seeded)
        with self._fresh_engine(engine_config) as engine:
            session = EvaluationSession(
                make(), CONFIG, compute_reference=False, engine=engine, engine_config=engine_config
            ).run()
        with self._fresh_engine(engine_config) as engine:
            queue = ServiceQueue(engine)
            ticket = queue.submit(
                make(), CONFIG, engine_config=engine_config, compute_reference=False
            )
            queue.run()
        assert ticket.status == "done"
        payloads = [
            json.dumps(without_durations(result.to_dict()), sort_keys=True)
            for result in (direct, session, ticket.result)
        ]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_shared_engine_config_is_the_default(self):
        engine = ParallelEngine(SamplingExecutor(shots=SHOTS, seed=0), SAMPLED)
        session = EvaluationSession(workload(), CONFIG, engine=engine)
        assert session.settings is engine.config and session.shots == SHOTS

    def test_engine_field_mismatch_rejected_at_construction(self):
        engine = ParallelEngine(SamplingExecutor(shots=SHOTS, seed=0))
        with pytest.raises(CuttingError, match="chunk_size, routing"):
            EvaluationSession(
                workload(),
                CONFIG,
                engine=engine,
                engine_config=SAMPLED.with_(chunk_size=4, routing="round_robin"),
            )
        with pytest.raises(CuttingError, match="not both"):
            EvaluationSession(
                workload(), CONFIG, engine=engine, executor=SamplingExecutor(shots=SHOTS)
            )
