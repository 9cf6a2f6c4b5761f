"""Aggregation-property tests for the result containers under dropouts and failures.

Covers the satellite requirement: ``RoundRecord`` / ``SimulationResult`` /
``BatchRoundExecution`` aggregates (dropped/failed ids, energy totals, the
``to_execution`` round-trip) with stragglers and mid-round failures present.
"""

import numpy as np
import pytest

from repro.devices.device import ExecutionTarget
from repro.devices.fleet_arrays import PROC_CPU
from repro.sim.results import BatchRoundExecution, RoundRecord, SimulationResult


def _batch_execution() -> BatchRoundExecution:
    """Three selected devices out of a five-device fleet: one retained (id 4), one
    straggler-dropped (id 2), one failed mid-round (id 0)."""
    return BatchRoundExecution(
        selected_ids=np.array([4, 2, 0]),
        processors=np.full(3, PROC_CPU),
        vf_steps=np.array([2, 1, 0]),
        compute_time_s=np.array([2.0, 5.0, 1.5]),
        communication_time_s=np.array([1.0, 2.0, 0.0]),
        compute_j=np.array([10.0, 25.0, 7.5]),
        communication_j=np.array([4.0, 8.0, 0.0]),
        waiting_j=np.array([0.5, 0.0, 0.0]),
        dropped=np.array([False, True, False]),
        round_time_s=3.0,
        fleet_device_ids=np.array([0, 1, 2, 3, 4]),
        idle_j=np.array([0.0, 6.0, 0.0, 6.0, 0.0]),
        selected_rows=np.array([4, 2, 0]),
        failed=np.array([False, False, True]),
    )


class TestBatchRoundExecution:
    def test_id_partitions_are_disjoint_and_sorted(self):
        execution = _batch_execution()
        assert execution.participant_ids == [4]
        assert execution.dropped_ids == [2]
        assert execution.failed_ids == [0]

    def test_energy_totals(self):
        execution = _batch_execution()
        assert execution.participant_energy_j == pytest.approx(10 + 25 + 7.5 + 4 + 8 + 0.5)
        assert execution.idle_energy_j == pytest.approx(12.0)
        assert execution.global_energy_j == pytest.approx(
            execution.participant_energy_j + 12.0
        )

    def test_failed_defaults_to_all_false(self):
        execution = _batch_execution()
        plain = BatchRoundExecution(
            selected_ids=execution.selected_ids,
            processors=execution.processors,
            vf_steps=execution.vf_steps,
            compute_time_s=execution.compute_time_s,
            communication_time_s=execution.communication_time_s,
            compute_j=execution.compute_j,
            communication_j=execution.communication_j,
            waiting_j=execution.waiting_j,
            dropped=execution.dropped,
            round_time_s=execution.round_time_s,
            fleet_device_ids=execution.fleet_device_ids,
            idle_j=execution.idle_j,
            selected_rows=execution.selected_rows,
        )
        assert not plain.failed.any()
        assert plain.participant_ids == [0, 4]

    def test_to_execution_roundtrip_preserves_aggregates(self):
        batch = _batch_execution()
        scalar = batch.to_execution()
        assert scalar.participant_ids == batch.participant_ids
        assert scalar.dropped_ids == batch.dropped_ids
        assert scalar.failed_ids == batch.failed_ids
        assert scalar.round_time_s == batch.round_time_s
        assert scalar.participant_energy_j == pytest.approx(batch.participant_energy_j)
        assert scalar.energy.global_j == pytest.approx(batch.global_energy_j)
        # Per-device flags and energies survive the conversion.
        assert scalar.outcomes[0].failed and not scalar.outcomes[0].dropped
        assert scalar.outcomes[2].dropped and not scalar.outcomes[2].failed
        assert scalar.outcomes[4].energy.idle_j == pytest.approx(0.5)  # waiting energy
        assert scalar.energy.device(1).idle_j == pytest.approx(6.0)


def _record(index, accuracy=0.5, dropped=(), failed=(), num_online=None):
    return RoundRecord(
        round_index=index,
        selected_ids=(0, 1, 2, 3),
        dropped_ids=tuple(dropped),
        targets={0: ExecutionTarget("cpu", 1)},
        round_time_s=2.0,
        participant_energy_j=50.0,
        global_energy_j=80.0,
        accuracy=accuracy,
        accuracy_improvement=0.01,
        failed_ids=tuple(failed),
        num_online=num_online,
    )


class TestRoundRecord:
    def test_num_aggregated_excludes_drops_and_failures(self):
        record = _record(0, dropped=(1,), failed=(2, 3))
        assert record.num_aggregated == 1

    def test_defaults_describe_static_fleet(self):
        record = _record(0)
        assert record.failed_ids == ()
        assert record.num_online is None
        assert record.num_aggregated == 4


class TestSimulationResultDynamics:
    def test_failure_and_online_aggregates(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        result.append(_record(0, dropped=(1,), failed=(2,), num_online=25))
        result.append(_record(1, failed=(0, 3), num_online=27))
        assert result.total_straggler_drops == 1
        assert result.total_fault_failures == 3
        assert result.online_history == [25, 27]
        assert result.mean_num_online == pytest.approx(26.0)

    def test_static_fleet_reports_no_online_counts(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        result.append(_record(0))
        assert result.online_history == [None]
        assert result.mean_num_online is None
        assert result.total_fault_failures == 0
