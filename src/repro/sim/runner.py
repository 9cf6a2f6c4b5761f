"""Simulation runner: drives complete FL training jobs end to end."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro import telemetry
from repro.dynamics.faults import FaultDraw
from repro.exceptions import SimulationError
from repro.fl.metrics import ConvergenceTracker
from repro.fl.server import RoundTrainingResult, TrainingBackend
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.results import BatchRoundExecution, RoundRecord, SimulationResult
from repro.sim.round_engine import RoundEngine


class SelectionPolicy(Protocol):
    """Structural interface every participant-selection policy implements.

    Policies live in :mod:`repro.core`; the simulator only relies on this protocol so that
    the simulator layer stays free of any dependency on the AutoFL implementation.
    """

    name: str

    def select(self, ctx: RoundContext) -> SelectionDecision:
        """Choose the round's participants and their execution targets."""
        ...

    def feedback(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        training: RoundTrainingResult,
    ) -> None:
        """Receive the measured outcome of the round (used by learning policies)."""
        ...


class RoundObserver(Protocol):
    """Structural interface of a per-round observer hook.

    Observers receive every executed round *after* its record is assembled but before
    the simulation moves on — solo and replicated runs alike.  :mod:`repro.validation`
    plugs its invariant auditors in here, so any consumer (fuzzer, ``BatchRunner``
    self-checks, ad-hoc debugging) can audit the raw :class:`BatchRoundExecution` and
    the :class:`RoundRecord` built from it without re-running the engine.
    """

    def __call__(
        self,
        round_index: int,
        batch: BatchRoundExecution,
        record: RoundRecord,
        online_mask: np.ndarray | None,
    ) -> None:
        """Observe one executed round."""
        ...


@dataclass(frozen=True)
class RoundPlan:
    """The control-plane half of a round: who was asked to train, on what, under which
    faults.  The engine turns a plan into a :class:`BatchRoundExecution`."""

    ctx: RoundContext
    decision: SelectionDecision
    faults: FaultDraw | None


class FLSimulation:
    """One federated-learning training job under a given selection policy.

    A round is :meth:`_plan_round` (online mask, conditions, selection, faults), one
    engine call, then :meth:`_finish_round` (training, feedback, record, observer).  The
    replicate axis (:class:`~repro.sim.replicated.ReplicatedSimulation`) runs the same
    two steps around one stacked engine call.
    """

    def __init__(
        self,
        environment: EdgeCloudEnvironment,
        policy: SelectionPolicy,
        backend: TrainingBackend,
        max_rounds: int | None = None,
        target_accuracy: float | None = None,
        stop_at_convergence: bool = True,
        round_observer: RoundObserver | None = None,
    ) -> None:
        self._env = environment
        self._policy = policy
        self._backend = backend
        self._round_observer = round_observer
        self._engine = RoundEngine(environment)
        self._max_rounds = max_rounds if max_rounds is not None else environment.config.max_rounds
        if self._max_rounds <= 0:
            raise SimulationError("max_rounds must be positive")
        target = (
            target_accuracy
            if target_accuracy is not None
            else min(environment.workload.target_accuracy, environment.config.target_accuracy)
        )
        self._tracker = ConvergenceTracker(target)
        self._stop_at_convergence = stop_at_convergence

    @property
    def environment(self) -> EdgeCloudEnvironment:
        """The environment this simulation runs in."""
        return self._env

    @property
    def policy(self) -> SelectionPolicy:
        """The participant-selection policy driving this simulation."""
        return self._policy

    @property
    def backend(self) -> TrainingBackend:
        """The training backend providing per-round accuracy."""
        return self._backend

    @property
    def target_accuracy(self) -> float:
        """The accuracy threshold used to declare convergence."""
        return self._tracker.target_accuracy

    def _plan_round(self, round_index: int) -> RoundPlan:
        """Control plane of one round: online mask, conditions, selection, faults."""
        # Fleet dynamics first: who is reachable this round (None = static fleet).
        online_mask = self._env.round_online_mask(round_index)
        condition_arrays = self._env.sample_condition_arrays()
        ctx = RoundContext(
            round_index=round_index,
            environment=self._env,
            # Lazy view: scalar policies see the usual per-device mapping, vectorised
            # ones read the arrays and never pay the O(N) object construction.
            conditions=condition_arrays.lazy_mapping(self._env.fleet.device_ids),
            accuracy=self._backend.accuracy,
            condition_arrays=condition_arrays,
            online_mask=online_mask,
        )
        decision = self._policy.select(ctx)
        if not decision.participants:
            raise SimulationError(f"policy {self._policy.name!r} selected no participants")
        # Mid-round faults are drawn after selection (the failure of a device that was
        # never picked is unobservable) from the dedicated dynamics RNG stream.
        faults = self._env.sample_faults(decision.participants, round_index)
        return RoundPlan(ctx=ctx, decision=decision, faults=faults)

    def _finish_round(self, plan: RoundPlan, batch: BatchRoundExecution) -> RoundRecord:
        """Train on the round's participants, feed the outcome back and record it."""
        ctx, decision = plan.ctx, plan.decision
        training = self._backend.run_round(batch.participant_ids)
        self._policy.feedback(ctx, decision, batch, training)
        record = RoundRecord.from_batch(
            ctx.round_index, decision, batch, training, ctx.online_mask
        )
        registry = telemetry.get_registry()
        if registry.enabled:
            policy_name = self._policy.name
            registry.counter(
                "repro_rounds_total", help="Aggregation rounds executed."
            ).inc(policy=policy_name)
            registry.counter(
                "repro_selected_devices_total", help="Devices selected across rounds."
            ).inc(len(record.selected_ids))
            registry.counter(
                "repro_straggler_drops_total", help="Devices dropped as stragglers."
            ).inc(len(record.dropped_ids))
            registry.counter(
                "repro_fault_failures_total", help="Mid-round device failures."
            ).inc(len(record.failed_ids))
            registry.histogram(
                "repro_round_time_s", help="Simulated wall-clock time per round."
            ).observe(record.round_time_s, policy=policy_name)
            registry.histogram(
                "repro_round_energy_j", help="Simulated global energy per round."
            ).observe(record.global_energy_j, policy=policy_name)
        if self._round_observer is not None:
            self._round_observer(
                round_index=ctx.round_index,
                batch=batch,
                record=record,
                online_mask=ctx.online_mask,
            )
        return record

    def _new_result(self) -> SimulationResult:
        """An empty result for this job, to be filled by :meth:`_track`."""
        return SimulationResult(
            policy_name=self._policy.name,
            workload_name=self._env.workload.name,
            target_accuracy=self._tracker.target_accuracy,
        )

    def _track(self, result: SimulationResult, record: RoundRecord) -> bool:
        """Append ``record`` and update convergence; True once the job should stop."""
        result.append(record)
        if self._tracker.update(record.round_index, record.accuracy):
            result.converged_round = self._tracker.converged_round
            return self._stop_at_convergence
        return False

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute a single aggregation round and return its record."""
        # The three spans mirror the bench phase names (control_plane / energy_math /
        # feedback) so trace profiles line up with BENCH_roundengine.json numbers.
        tracer = telemetry.get_tracer()
        with tracer.span("control_plane", category="engine", round=round_index):
            plan = self._plan_round(round_index)
        with tracer.span("energy_math", category="engine", round=round_index):
            batch = self._engine.execute_batch(
                plan.decision,
                plan.ctx.condition_arrays,
                faults=plan.faults,
                online_mask=plan.ctx.online_mask,
            )
        with tracer.span("feedback", category="engine", round=round_index):
            return self._finish_round(plan, batch)

    def run(self) -> SimulationResult:
        """Run rounds until convergence (or the round budget) and return the full result."""
        result = self._new_result()
        with telemetry.get_tracer().span(
            "simulation",
            category="engine",
            policy=self._policy.name,
            workload=self._env.workload.name,
        ):
            for round_index in range(self._max_rounds):
                if self._track(result, self.run_round(round_index)):
                    break
        return result

    @classmethod
    def run_replicated(cls, simulations: Sequence["FLSimulation"]) -> list[SimulationResult]:
        """Run same-scenario, different-seed simulations through the replicate axis.

        Each replicate's result is byte-identical to running it alone via :meth:`run`;
        the per-round physics of all replicates executes as one stacked engine call.
        """
        from repro.sim.replicated import ReplicatedSimulation

        return ReplicatedSimulation(simulations).run()
