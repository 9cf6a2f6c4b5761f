"""Round execution engine: per-device compute/communication time, energy and stragglers.

Two execution paths share the same physical models:

* the scalar path (:meth:`RoundEngine.estimate_device` / :meth:`RoundEngine.execute`)
  walks :class:`~repro.devices.device.MobileDevice` objects one at a time and is kept as
  the readable reference implementation;
* the vectorised path (:meth:`RoundEngine.estimate_batch` /
  :meth:`RoundEngine.execute_batch`) evaluates the whole selection as numpy array
  expressions over the environment's :class:`~repro.devices.fleet_arrays.FleetArrays`
  snapshot, which is what makes thousand-device fleets simulate in constant Python time.

Equivalence tests pin the batched path to the scalar reference within 1e-9.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro import telemetry
from repro.devices.device import ExecutionTarget, MobileDevice, RoundConditions
from repro.devices.energy import DeviceEnergy, RoundEnergyAccount
from repro.devices.fleet_arrays import (
    PROC_CPU,
    PROC_GPU,
    PROCESSOR_CODES,
    RoundConditionsArrays,
)
from repro.devices.performance import (
    ACHIEVABLE_BANDWIDTH_FRACTION,
    ACHIEVABLE_COMPUTE_FRACTION,
    ComputeWorkload,
)
from repro.devices.power import (
    DVFS_POWER_EXPONENT,
    STATIC_POWER_FRACTION,
    busy_power_at_frequency,
)
from repro.dynamics.faults import DeviceFault, FaultDraw
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.results import BatchRoundExecution, DeviceRoundOutcome, RoundExecution

#: A selected device whose round time exceeds this multiple of the median participant's
#: round time is treated as a severe straggler and excluded from the aggregation, mirroring
#: the FedAvg deployment behaviour the paper describes (Sections 2.2 and 6.2).
STRAGGLER_CUTOFF_FACTOR = 2.5

#: Additional sustained power (W) contributed by a fully busy co-runner, fed into the
#: thermal throttling model alongside the training power draw.
CO_RUNNER_POWER_WATT = 1.5

#: Histogram buckets for selection sizes (device counts, up to the 1M stretch goal).
SELECTION_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
    10000, 20000, 50000, 100000, 200000, 500000, 1000000,
)


def straggler_deadline(times: np.ndarray, cutoff: float) -> float:
    """Round deadline implied by the straggler cutoff for the given outcome times.

    The deadline is ``cutoff`` times the median participant time.  When the median is
    zero the cutoff is undefined: if some participants still take time, the slowest one
    sets the deadline (nobody is dropped); if *every* outcome time is zero — empty
    shards and instant links — there is no straggler structure at all, so the deadline
    is infinite rather than the degenerate ``0.0`` that would truncate by ``0/0``.
    """
    median_time = float(np.median(times))
    if median_time > 0:
        return cutoff * median_time
    max_time = float(times.max())
    if max_time > 0:
        return max_time
    return math.inf


@dataclass(frozen=True)
class BatchEstimates:
    """Vectorised per-participant round estimates (aligned on the selection order)."""

    compute_time_s: np.ndarray
    communication_time_s: np.ndarray
    compute_j: np.ndarray
    communication_j: np.ndarray
    utilization: np.ndarray

    @property
    def total_time_s(self) -> np.ndarray:
        """Compute plus communication time per participant."""
        return self.compute_time_s + self.communication_time_s


@dataclass(frozen=True)
class _StaticInputs:
    """Condition-independent per-participant gathers for one selection.

    Everything the estimate math needs from a :class:`FleetArrays` snapshot, gathered
    once per selection.  All fields are aligned on the selection order; stacking several
    replicates' gathers along a leading axis (:meth:`stack`) yields the
    ``[replicates, devices]`` layout the replicated executor feeds through the exact
    same math, so per-replicate results are bitwise identical to solo execution.
    """

    gpu_mask: np.ndarray
    num_samples: np.ndarray
    capability: np.ndarray
    peak_gflops: np.ndarray
    mem_bandwidth: np.ndarray
    saturation: np.ndarray
    rel_f: np.ndarray
    peak_power: np.ndarray
    power_scale: np.ndarray
    awake_power: np.ndarray

    @classmethod
    def gather(
        cls, arrays, rows: np.ndarray, processors: np.ndarray, vf_steps: np.ndarray
    ) -> "_StaticInputs":
        return cls(
            gpu_mask=processors == PROC_GPU,
            num_samples=arrays.num_samples[rows],
            capability=arrays.cpu_capability_gflops[rows],
            peak_gflops=arrays.peak_gflops[processors, rows],
            mem_bandwidth=arrays.mem_bandwidth_gbs[processors, rows],
            saturation=arrays.saturation_batch[processors, rows],
            rel_f=arrays.relative_frequency(processors, vf_steps, rows),
            peak_power=arrays.peak_power_watt[processors, rows],
            power_scale=arrays.training_power_scale[rows],
            awake_power=arrays.awake_power_watt[rows],
        )

    @classmethod
    def stack(cls, inputs: Sequence["_StaticInputs"]) -> "_StaticInputs":
        return cls(
            **{
                spec.name: np.stack([getattr(item, spec.name) for item in inputs])
                for spec in fields(cls)
            }
        )


@dataclass(frozen=True)
class _ResolvedRound:
    """Straggler/fault/waiting resolution of one (or a stack of) executed round(s).

    Per-participant arrays have the shape of the estimates they came from (``[K]`` or
    ``[replicates, K]``); ``round_time`` keeps a trailing length-1 axis so it broadcasts
    against them.
    """

    compute_time_s: np.ndarray
    communication_time_s: np.ndarray
    compute_j: np.ndarray
    communication_j: np.ndarray
    waiting_j: np.ndarray
    dropped: np.ndarray
    round_time: np.ndarray


class RoundEngine:
    """Executes the system side of one aggregation round for a given selection decision."""

    def __init__(
        self, environment: EdgeCloudEnvironment, straggler_cutoff: float = STRAGGLER_CUTOFF_FACTOR
    ) -> None:
        if straggler_cutoff <= 1.0:
            raise SimulationError("straggler_cutoff must be > 1.0")
        self._env = environment
        self._straggler_cutoff = straggler_cutoff

    # ------------------------------------------------------------------ estimation
    def device_round_workload(self, device: MobileDevice) -> ComputeWorkload:
        """Local-training computational demand of one device for the current job."""
        params = self._env.global_params
        return ComputeWorkload.for_round(
            flops_per_sample=self._env.workload.flops_per_sample,
            bytes_per_sample=self._env.workload.bytes_per_sample,
            num_samples=device.num_local_samples,
            batch_size=params.batch_size,
            local_epochs=params.local_epochs,
        )

    def estimate_device(
        self,
        device: MobileDevice,
        target: ExecutionTarget,
        conditions: RoundConditions,
    ) -> DeviceRoundOutcome:
        """Predict one selected device's time and energy for the round.

        Interference from co-running applications slows the selected processor, sustained
        power above the thermal budget adds throttling, and the sampled bandwidth determines
        communication time and radio energy.  This is the scalar reference implementation;
        :meth:`estimate_batch` computes the same quantities for a whole selection at once.
        """
        workload = self.device_round_workload(device)
        slowdown = self._env.slowdown
        capability = device.spec.processor("cpu").peak_gflops
        compute_slowdown = slowdown.compute_slowdown(
            conditions.co_cpu_util, conditions.co_mem_util, target.processor, capability
        )
        memory_slowdown = slowdown.memory_slowdown(
            conditions.co_cpu_util, conditions.co_mem_util, target.processor, capability
        )
        estimate = device.estimate_compute(workload, target, compute_slowdown, memory_slowdown)

        # Thermal throttling: sustained power above the chassis budget slows the CPU further.
        if target.processor == "cpu" and estimate.time_s > 0:
            spec = device.spec.processor(target.processor)
            sustained_power = busy_power_at_frequency(
                spec, target.vf_step, estimate.utilization, device.spec.training_power_scale
            ) + CO_RUNNER_POWER_WATT * conditions.co_cpu_util
            throttle = self._env.thermal.throttle_slowdown(sustained_power)
            if throttle > 1.0:
                estimate = device.estimate_compute(
                    workload, target, compute_slowdown * throttle, memory_slowdown
                )

        communication = self._env.communication.estimate(
            model_size_mb=self._env.workload.model_size_mb,
            bandwidth_mbps=conditions.bandwidth_mbps,
        )
        # The radio front-end and modem of lower-tier platforms draw proportionally less
        # power, mirroring the tier-level platform power calibration of the compute side.
        communication_energy = communication.energy_j * device.spec.training_power_scale
        energy = DeviceEnergy(
            compute_j=estimate.energy_j,
            communication_j=communication_energy,
            idle_j=0.0,
        )
        return DeviceRoundOutcome(
            device_id=device.device_id,
            target=target,
            compute_time_s=estimate.time_s,
            communication_time_s=communication.total_time_s,
            energy=energy,
        )

    def estimate_batch(
        self,
        rows: np.ndarray,
        processors: np.ndarray,
        vf_steps: np.ndarray,
        conditions: RoundConditionsArrays,
    ) -> BatchEstimates:
        """Vectorised :meth:`estimate_device` for one device subset.

        Parameters
        ----------
        rows:
            Fleet rows (indices into the environment's ``fleet_arrays``) to evaluate.
        processors / vf_steps:
            Per-row execution target as processor codes (:data:`PROC_CPU` /
            :data:`PROC_GPU`) and V-F step indices.
        conditions:
            Runtime conditions aligned on ``rows``.
        """
        static = _StaticInputs.gather(self._env.fleet_arrays, rows, processors, vf_steps)
        return self._estimate_math(static, conditions)

    def _estimate_math(
        self, static: _StaticInputs, conditions: RoundConditionsArrays
    ) -> BatchEstimates:
        """The shape-agnostic math half of :meth:`estimate_batch`.

        Operates purely on pre-gathered arrays, so the same expressions evaluate a
        ``[K]`` selection or a stacked ``[replicates, K]`` batch.  Everything is
        elementwise, which keeps each stacked row bitwise identical to evaluating that
        replicate alone.
        """
        workload = self._env.workload
        params = self._env.global_params
        batch_size = params.batch_size

        # Workload aggregation (ComputeWorkload.for_round, vectorised over shard sizes).
        batches_per_epoch = (static.num_samples + batch_size - 1) // batch_size
        processed = batches_per_epoch * batch_size * params.local_epochs
        flops = workload.flops_per_sample * processed
        memory_bytes = workload.bytes_per_sample * processed

        # Interference slowdowns for the selected targets.
        gpu_mask = static.gpu_mask
        compute_slowdown = self._env.slowdown.compute_slowdown_batch(
            conditions.co_cpu_util, conditions.co_mem_util, gpu_mask, static.capability
        )
        memory_slowdown = self._env.slowdown.memory_slowdown_batch(
            conditions.co_cpu_util, conditions.co_mem_util, gpu_mask, static.capability
        )

        # Roofline time model (TrainingTimeModel, vectorised).
        peak_gflops = static.peak_gflops
        mem_bandwidth = static.mem_bandwidth
        saturation = static.saturation
        rel_f = static.rel_f
        efficiency = np.where(
            batch_size >= saturation, 1.0, (batch_size / saturation) ** 0.75
        )
        gflops = (
            ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency / compute_slowdown
        )
        bandwidth = ACHIEVABLE_BANDWIDTH_FRACTION * mem_bandwidth / memory_slowdown
        compute_time = flops / (gflops * 1e9)
        memory_time = memory_bytes / (bandwidth * 1e9)
        time_s = compute_time + memory_time

        # Utilisation and busy power are computed without interference slowdowns,
        # mirroring TrainingTimeModel.utilization and busy_power_at_frequency.
        clean_gflops = ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency
        clean_bandwidth = ACHIEVABLE_BANDWIDTH_FRACTION * mem_bandwidth
        clean_compute_time = flops / (clean_gflops * 1e9)
        clean_memory_time = memory_bytes / (clean_bandwidth * 1e9)
        clean_total = clean_compute_time + clean_memory_time
        utilization = np.where(
            clean_total > 0,
            np.minimum(
                1.0,
                (clean_compute_time + 0.5 * clean_memory_time)
                / np.where(clean_total > 0, clean_total, 1.0),
            ),
            0.0,
        )
        peak_power = static.peak_power
        static_power = STATIC_POWER_FRACTION * peak_power
        dynamic_power = (peak_power - static_power) * rel_f**DVFS_POWER_EXPONENT * utilization
        power_scale = static.power_scale
        power = power_scale * (static_power + dynamic_power)

        # Thermal throttling stretches the compute term of CPU targets whose sustained
        # power (training plus co-runner) exceeds the chassis budget.
        sustained_power = power + CO_RUNNER_POWER_WATT * conditions.co_cpu_util
        throttle = self._env.thermal.throttle_slowdown_batch(sustained_power)
        throttled = (~gpu_mask) & (time_s > 0) & (throttle > 1.0)
        final_compute_slowdown = np.where(throttled, compute_slowdown * throttle, compute_slowdown)
        final_gflops = (
            ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency
            / final_compute_slowdown
        )
        final_compute_time = flops / (final_gflops * 1e9)
        final_time_s = final_compute_time + memory_time
        compute_j = power * final_time_s

        # Communication time and radio energy, scaled by the tier power calibration.
        upload_time, download_time, radio_energy = self._env.communication.estimate_batch(
            model_size_mb=workload.model_size_mb, bandwidth_mbps=conditions.bandwidth_mbps
        )
        communication_time = upload_time + download_time
        communication_j = radio_energy * power_scale

        return BatchEstimates(
            compute_time_s=final_time_s,
            communication_time_s=communication_time,
            compute_j=compute_j,
            communication_j=communication_j,
            utilization=utilization,
        )

    # ------------------------------------------------------------------ execution
    def _participant_conditions(
        self,
        decision: SelectionDecision,
        conditions: Mapping[int, RoundConditions] | RoundConditionsArrays,
        rows: np.ndarray,
    ) -> RoundConditionsArrays:
        if isinstance(conditions, RoundConditionsArrays):
            if len(conditions) != len(self._env.fleet_arrays):
                raise SimulationError(
                    "fleet-wide condition arrays must cover every device in the fleet"
                )
            return conditions.take(rows)
        return RoundConditionsArrays.from_mapping(decision.participants, conditions)

    def _decision_targets(
        self, decision: SelectionDecision, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        arrays = self._env.fleet_arrays
        if decision.target_processors is not None and decision.target_vf_steps is not None:
            # Policies that already scored targets as arrays hand them over directly,
            # skipping the per-participant dict walk below.
            return (
                np.asarray(decision.target_processors, dtype=np.int64),
                np.asarray(decision.target_vf_steps, dtype=np.int64),
            )
        processors = np.full(len(rows), PROC_CPU, dtype=np.int64)
        vf_steps = arrays.default_vf_steps()[rows]
        if decision.targets:
            for i, device_id in enumerate(decision.participants):
                target = decision.targets.get(device_id)
                if target is not None:
                    processors[i] = PROCESSOR_CODES[target.processor]
                    vf_steps[i] = target.vf_step
        return processors, vf_steps

    def _check_selection_online(self, rows: np.ndarray, online_mask: np.ndarray) -> None:
        if len(online_mask) != len(self._env.fleet_arrays):
            raise SimulationError("online_mask must cover every device in the fleet")
        offline = ~np.asarray(online_mask, dtype=bool)[rows]
        if offline.any():
            arrays = self._env.fleet_arrays
            offline_ids = [int(arrays.device_ids[row]) for row in rows[offline]]
            raise SimulationError(
                f"selected devices {offline_ids[:5]} are offline this round; policies "
                "must select from the online candidates only"
            )

    def execute_batch(
        self,
        decision: SelectionDecision,
        conditions: Mapping[int, RoundConditions] | RoundConditionsArrays,
        faults: FaultDraw | None = None,
        online_mask: np.ndarray | None = None,
    ) -> BatchRoundExecution:
        """Execute the round as array operations over the whole selection.

        Semantically identical to :meth:`execute` — same straggler cutoff, truncation,
        waiting and idle accounting — but returns a :class:`BatchRoundExecution` whose
        per-device quantities stay in numpy arrays.  ``conditions`` may be the usual
        per-device mapping or fleet-wide :class:`RoundConditionsArrays`.

        ``faults`` (aligned on the selection order) injects mid-round failures:
        slow-fail stragglers stretch a participant's compute time and energy before the
        straggler cutoff is applied, and upload failures waste the device's compute
        (capped at the deadline) without ever transmitting — the update is lost, marked
        in ``BatchRoundExecution.failed``.  ``online_mask`` (fleet order) rejects
        selections of offline devices and zeroes the idle energy of devices that are
        out of the population this round.  Both default to the static, fault-free
        behaviour bit-exactly.
        """
        if not decision.participants:
            raise SimulationError("a round needs at least one selected participant")
        arrays = self._env.fleet_arrays
        rows = arrays.rows_for(decision.participants)
        if online_mask is not None:
            self._check_selection_online(rows, online_mask)
        processors, vf_steps = self._decision_targets(decision, rows)
        participant_conditions = self._participant_conditions(decision, conditions, rows)
        static = _StaticInputs.gather(arrays, rows, processors, vf_steps)
        estimates = self._estimate_math(static, participant_conditions)

        fault_slowdown = None
        failed = None
        if faults is not None:
            if len(faults) != len(rows):
                raise SimulationError("fault draw must align with the selection")
            if np.any(faults.compute_slowdown > 1.0):
                fault_slowdown = faults.compute_slowdown
            if faults.upload_failure.any():
                failed = faults.upload_failure

        resolved = self._resolve_round(estimates, static, fault_slowdown, failed)
        round_time = float(resolved.round_time[0])
        idle_j = arrays.idle_power_watt * round_time
        idle_j[rows] = 0.0
        if online_mask is not None:
            # Offline devices are unreachable (or churned away) — they are not idling
            # on behalf of this training job, so the global account excludes them.
            idle_j = np.where(np.asarray(online_mask, dtype=bool), idle_j, 0.0)

        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_engine_batch_rounds_total", help="Vectorised engine round executions."
            ).inc()
            registry.histogram(
                "repro_engine_selection_size",
                help="Participants per executed round.",
                buckets=SELECTION_SIZE_BUCKETS,
            ).observe(float(len(rows)))

        return BatchRoundExecution(
            selected_ids=np.array(decision.participants, dtype=np.int64),
            processors=processors,
            vf_steps=vf_steps,
            compute_time_s=resolved.compute_time_s,
            communication_time_s=resolved.communication_time_s,
            compute_j=resolved.compute_j,
            communication_j=resolved.communication_j,
            waiting_j=resolved.waiting_j,
            dropped=resolved.dropped,
            round_time_s=round_time,
            fleet_device_ids=arrays.device_ids,
            idle_j=idle_j,
            failed=failed,  # BatchRoundExecution defaults None to all-False.
            selected_rows=rows,
        )

    def _resolve_round(
        self,
        estimates: BatchEstimates,
        static: _StaticInputs,
        fault_slowdown: np.ndarray | None,
        failed: np.ndarray | None,
    ) -> _ResolvedRound:
        """Straggler cutoff, fault truncation and waiting energy for executed estimates.

        Shape-agnostic: reductions run over the trailing (participant) axis with
        ``keepdims``, so a stacked ``[replicates, K]`` batch resolves each replicate row
        exactly as the 1-D solo path would — including the per-replicate deadline,
        retained-set maximum and waiting-time accounting.
        """
        compute_time_est = estimates.compute_time_s
        compute_j_est = estimates.compute_j
        if fault_slowdown is not None:
            # Slow-fail stragglers: the transient condition stretches compute time
            # at unchanged power, so wasted energy grows with the slowdown.
            compute_time_est = compute_time_est * fault_slowdown
            compute_j_est = compute_j_est * fault_slowdown

        times = compute_time_est + estimates.communication_time_s
        # Vectorised straggler_deadline(): cutoff times the median participant time,
        # falling back to the slowest participant and then to +inf per stacked row.
        median_time = np.median(times, axis=-1, keepdims=True)
        max_time = np.max(times, axis=-1, keepdims=True)
        deadline = np.where(
            median_time > 0,
            self._straggler_cutoff * median_time,
            np.where(max_time > 0, max_time, np.inf),
        )
        dropped = times > deadline
        # The server closes the round at the deadline; stragglers abort, so they only
        # spend time and energy up to the deadline (scaled proportionally).
        truncation = np.where(dropped, deadline / np.where(dropped, times, 1.0), 1.0)
        compute_time = compute_time_est * truncation
        communication_time = estimates.communication_time_s * truncation
        compute_j = compute_j_est * truncation
        communication_j = estimates.communication_j * truncation
        if failed is not None:
            # Dropout before upload: local training ran (capped at the deadline) but
            # the update never reached the server — compute is wasted, radio unused.
            capped = np.minimum(compute_time_est, deadline)
            frac = np.divide(
                capped,
                compute_time_est,
                out=np.ones_like(capped),
                where=compute_time_est > 0,
            )
            compute_time = np.where(failed, capped, compute_time)
            compute_j = np.where(failed, compute_j_est * frac, compute_j)
            communication_time = np.where(failed, 0.0, communication_time)
            communication_j = np.where(failed, 0.0, communication_j)
        final_times = compute_time + communication_time

        excluded = dropped if failed is None else dropped | failed
        retained = ~excluded
        has_retained = np.any(retained, axis=-1, keepdims=True)
        retained_max = np.max(np.where(retained, final_times, -np.inf), axis=-1, keepdims=True)
        round_time = np.where(
            has_retained,
            retained_max,
            np.where(
                np.isfinite(deadline),
                deadline,
                # Every participant failed with zero-time outcomes: nothing to wait for.
                np.max(final_times, axis=-1, keepdims=True),
            ),
        )

        # Participants that finish before the round closes stay awake (wakelock, radio
        # connected) waiting for the aggregated model, at awake power.
        waiting_time = np.maximum(0.0, round_time - np.minimum(final_times, round_time))
        waiting_j = static.awake_power * waiting_time
        if failed is not None:
            waiting_j = np.where(failed, 0.0, waiting_j)
        return _ResolvedRound(
            compute_time_s=compute_time,
            communication_time_s=communication_time,
            compute_j=compute_j,
            communication_j=communication_j,
            waiting_j=waiting_j,
            dropped=dropped,
            round_time=round_time,
        )

    def execute(
        self,
        decision: SelectionDecision,
        conditions: Mapping[int, RoundConditions],
        faults: Mapping[int, DeviceFault] | None = None,
        online_mask: np.ndarray | None = None,
    ) -> RoundExecution:
        """Execute the round: evaluate every selected device, apply the straggler cutoff,
        and account idle energy for non-selected devices.

        ``faults`` / ``online_mask`` mirror :meth:`execute_batch`: slow-fail stragglers
        stretch compute before the cutoff, upload failures waste their compute without
        transmitting, and offline devices can neither be selected nor draw idle energy.
        """
        if not decision.participants:
            raise SimulationError("a round needs at least one selected participant")
        if online_mask is not None:
            rows = self._env.fleet_arrays.rows_for(decision.participants)
            self._check_selection_online(rows, online_mask)
        fault_of: Mapping[int, DeviceFault] = faults if faults is not None else {}
        outcomes: dict[int, DeviceRoundOutcome] = {}
        for device_id in decision.participants:
            device = self._env.fleet[device_id]
            target = decision.target_for(device_id, device.default_target())
            try:
                condition = conditions[device_id]
            except KeyError:
                raise SimulationError(
                    f"no round conditions for selected device {device_id}"
                ) from None
            outcome = self.estimate_device(device, target, condition)
            fault = fault_of.get(device_id)
            if fault is not None and fault.compute_slowdown > 1.0:
                outcome = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s * fault.compute_slowdown,
                    communication_time_s=outcome.communication_time_s,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * fault.compute_slowdown,
                        communication_j=outcome.energy.communication_j,
                        idle_j=outcome.energy.idle_j,
                    ),
                )
            outcomes[device_id] = outcome

        times = np.array([outcome.total_time_s for outcome in outcomes.values()])
        deadline = straggler_deadline(times, self._straggler_cutoff)

        final_outcomes: dict[int, DeviceRoundOutcome] = {}
        retained_times: list[float] = []
        for device_id, outcome in outcomes.items():
            fault = fault_of.get(device_id)
            failed = bool(fault.upload_failure) if fault is not None else False
            dropped = outcome.total_time_s > deadline
            if failed:
                # Dropout before upload: local training ran (capped at the deadline)
                # but the update never reached the server.
                capped = min(outcome.compute_time_s, deadline)
                frac = capped / outcome.compute_time_s if outcome.compute_time_s > 0 else 1.0
                final_outcomes[device_id] = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=capped,
                    communication_time_s=0.0,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * frac,
                        communication_j=0.0,
                        idle_j=outcome.energy.idle_j,
                    ),
                    dropped=dropped,
                    failed=True,
                )
            elif dropped:
                # The server closes the round at the deadline; the straggler aborts, so it
                # only spends energy up to the deadline (scaled proportionally).
                truncation = deadline / outcome.total_time_s
                final_outcomes[device_id] = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s * truncation,
                    communication_time_s=outcome.communication_time_s * truncation,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * truncation,
                        communication_j=outcome.energy.communication_j * truncation,
                        idle_j=outcome.energy.idle_j,
                    ),
                    dropped=True,
                )
            else:
                final_outcomes[device_id] = outcome
                retained_times.append(outcome.total_time_s)

        if retained_times:
            round_time = max(retained_times)
        elif math.isfinite(deadline):
            round_time = deadline
        else:  # Every participant failed with zero-time outcomes: nothing to wait for.
            round_time = max(outcome.total_time_s for outcome in final_outcomes.values())

        energy_account = RoundEnergyAccount()
        selected_ids = set(decision.participants)
        online = (
            None if online_mask is None else np.asarray(online_mask, dtype=bool)
        )
        for row, device in enumerate(self._env.fleet):
            if device.device_id in selected_ids:
                outcome = final_outcomes[device.device_id]
                # Participants that finish before the round closes stay awake (wakelock,
                # radio connected) waiting for the aggregated model, at awake power.
                # Mid-round failures are dead — they wait for nothing.
                waiting_time = (
                    0.0
                    if outcome.failed
                    else max(0.0, round_time - min(outcome.total_time_s, round_time))
                )
                energy_with_wait = DeviceEnergy(
                    compute_j=outcome.energy.compute_j,
                    communication_j=outcome.energy.communication_j,
                    idle_j=device.awake_power() * waiting_time,
                )
                final_outcomes[device.device_id] = DeviceRoundOutcome(
                    device_id=outcome.device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s,
                    communication_time_s=outcome.communication_time_s,
                    energy=energy_with_wait,
                    dropped=outcome.dropped,
                    failed=outcome.failed,
                )
                energy_account.record(device.device_id, energy_with_wait)
            else:
                idle_j = (
                    0.0
                    if online is not None and not online[row]
                    else device.idle_power() * round_time
                )
                energy_account.record(device.device_id, DeviceEnergy(idle_j=idle_j))
        return RoundExecution(
            outcomes=final_outcomes, round_time_s=round_time, energy=energy_account
        )


def execute_batch_replicated(
    engines: Sequence[RoundEngine],
    decisions: Sequence[SelectionDecision],
    conditions: Sequence[Mapping[int, RoundConditions] | RoundConditionsArrays],
    faults: Sequence[FaultDraw | None] | None = None,
    online_masks: Sequence[np.ndarray | None] | None = None,
) -> list[BatchRoundExecution]:
    """Execute one round of N seed-replicates of the same scenario in one stacked pass.

    Each replicate ``i`` is described by its own engine (over its own seed's
    environment), selection decision, conditions and optional fault draw / online mask.
    Replicates whose selections have the same size are stacked into ``[replicates, K]``
    arrays and resolved by a single :meth:`RoundEngine._estimate_math` /
    :meth:`RoundEngine._resolve_round` evaluation, so the per-round Python cost is paid
    once per selection size instead of once per replicate.

    Every per-replicate result is **bitwise identical** to calling
    ``engines[i].execute_batch(...)`` alone: the math is elementwise, reductions run per
    stacked row, fault-free replicates ride along under identity masks (slowdown 1.0,
    ``failed`` all-False), and idle accounting uses each replicate's own fleet arrays.

    Replicates must come from the same scenario (same workload, interference, network
    and straggler models) — only the seed may differ.  A light compatibility check
    rejects mixed workloads; mixing scenarios with different physics constants is
    undefined.
    """
    n = len(engines)
    if not (len(decisions) == len(conditions) == n):
        raise SimulationError("replicated execution requires aligned per-replicate inputs")
    if faults is not None and len(faults) != n:
        raise SimulationError("replicated execution requires aligned per-replicate inputs")
    if online_masks is not None and len(online_masks) != n:
        raise SimulationError("replicated execution requires aligned per-replicate inputs")
    if n == 0:
        return []
    first = engines[0]
    for engine in engines[1:]:
        workload, first_workload = engine._env.workload, first._env.workload
        params, first_params = engine._env.global_params, first._env.global_params
        if (
            engine._straggler_cutoff != first._straggler_cutoff
            or workload.flops_per_sample != first_workload.flops_per_sample
            or workload.bytes_per_sample != first_workload.bytes_per_sample
            or workload.model_size_mb != first_workload.model_size_mb
            or params.batch_size != first_params.batch_size
            or params.local_epochs != first_params.local_epochs
        ):
            raise SimulationError(
                "replicated execution requires same-scenario replicates (only the seed "
                "may differ between replicates)"
            )

    prepared = []
    for i in range(n):
        engine, decision = engines[i], decisions[i]
        if not decision.participants:
            raise SimulationError("a round needs at least one selected participant")
        arrays = engine._env.fleet_arrays
        rows = arrays.rows_for(decision.participants)
        online_mask = None if online_masks is None else online_masks[i]
        if online_mask is not None:
            engine._check_selection_online(rows, online_mask)
        processors, vf_steps = engine._decision_targets(decision, rows)
        taken = engine._participant_conditions(decision, conditions[i], rows)
        fault = None if faults is None else faults[i]
        fault_slowdown = None
        upload_failure = None
        if fault is not None:
            if len(fault) != len(rows):
                raise SimulationError("fault draw must align with the selection")
            if np.any(fault.compute_slowdown > 1.0):
                fault_slowdown = fault.compute_slowdown
            if fault.upload_failure.any():
                upload_failure = fault.upload_failure
        static = _StaticInputs.gather(arrays, rows, processors, vf_steps)
        prepared.append(
            (rows, processors, vf_steps, static, taken, fault_slowdown, upload_failure)
        )

    # Selections of different sizes cannot share one rectangular stack (padding would
    # change each row's median/max reductions), so replicates group by selection size.
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(prepared):
        groups.setdefault(len(item[0]), []).append(i)

    registry = telemetry.get_registry()
    if registry.enabled:
        registry.counter(
            "repro_engine_replicated_rounds_total",
            help="Replicate-rounds executed through the stacked batch path.",
        ).inc(n)

    results: list[BatchRoundExecution | None] = [None] * n
    for members in groups.values():
        static = _StaticInputs.stack([prepared[i][3] for i in members])
        stacked_conditions = RoundConditionsArrays(
            co_cpu_util=np.stack([prepared[i][4].co_cpu_util for i in members]),
            co_mem_util=np.stack([prepared[i][4].co_mem_util for i in members]),
            bandwidth_mbps=np.stack([prepared[i][4].bandwidth_mbps for i in members]),
        )
        # Fault-free replicates ride along under identity masks: multiplying by an
        # all-1.0 slowdown and masking with an all-False ``failed`` row reproduce the
        # fault-less dataflow bit-for-bit.
        fault_slowdown = None
        if any(prepared[i][5] is not None for i in members):
            fault_slowdown = np.stack(
                [
                    prepared[i][5]
                    if prepared[i][5] is not None
                    else np.ones(len(prepared[i][0]), dtype=np.float64)
                    for i in members
                ]
            )
        failed = None
        if any(prepared[i][6] is not None for i in members):
            failed = np.stack(
                [
                    prepared[i][6]
                    if prepared[i][6] is not None
                    else np.zeros(len(prepared[i][0]), dtype=bool)
                    for i in members
                ]
            )
        estimates = first._estimate_math(static, stacked_conditions)
        resolved = first._resolve_round(estimates, static, fault_slowdown, failed)

        for g, i in enumerate(members):
            rows, processors, vf_steps = prepared[i][0], prepared[i][1], prepared[i][2]
            engine, decision = engines[i], decisions[i]
            arrays = engine._env.fleet_arrays
            round_time = float(resolved.round_time[g, 0])
            idle_j = arrays.idle_power_watt * round_time
            idle_j[rows] = 0.0
            online_mask = None if online_masks is None else online_masks[i]
            if online_mask is not None:
                idle_j = np.where(np.asarray(online_mask, dtype=bool), idle_j, 0.0)
            results[i] = BatchRoundExecution(
                selected_ids=np.array(decision.participants, dtype=np.int64),
                processors=processors,
                vf_steps=vf_steps,
                compute_time_s=resolved.compute_time_s[g],
                communication_time_s=resolved.communication_time_s[g],
                compute_j=resolved.compute_j[g],
                communication_j=resolved.communication_j[g],
                waiting_j=resolved.waiting_j[g],
                dropped=resolved.dropped[g],
                round_time_s=round_time,
                fleet_device_ids=arrays.device_ids,
                idle_j=idle_j,
                failed=None if failed is None else failed[g],
                selected_rows=rows,
            )
    return [result for result in results if result is not None]
