"""Tests for the invariant checkers: clean runs audit green, corruption is caught."""

import dataclasses

import numpy as np
import pytest

from repro.devices.device import ExecutionTarget
from repro.devices.energy import DeviceEnergy, RoundEnergyAccount
from repro.exceptions import ValidationError
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim.context import SelectionDecision
from repro.sim.results import DeviceRoundOutcome, RoundExecution, RoundRecord
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import ScenarioSpec
from repro.validation.invariants import (
    InvariantAuditor,
    InvariantViolation,
    ValidationReport,
    check_batch_execution,
    check_round_execution,
    check_round_record,
    check_simulation_result,
)

FLAKY = ExperimentSpec(
    scenario=ScenarioSpec(
        num_devices=30,
        max_rounds=6,
        seed=5,
        setting="S4",
        availability="bernoulli",
        dropout_rate=0.2,
        slow_fault_rate=0.1,
    ),
    policy="autofl",
    stop_at_convergence=False,
)


def _record(**overrides) -> RoundRecord:
    base = dict(
        round_index=0,
        selected_ids=(1, 2, 3),
        dropped_ids=(2,),
        targets={},
        round_time_s=10.0,
        participant_energy_j=50.0,
        global_energy_j=80.0,
        accuracy=0.5,
        accuracy_improvement=0.1,
        failed_ids=(3,),
        num_online=10,
    )
    base.update(overrides)
    return RoundRecord(**base)


class TestCheckBatchExecution:
    """The vectorised engine's real output must satisfy every identity; hand-corrupted
    copies must not."""

    @pytest.fixture
    def batch(self, small_environment):
        engine = RoundEngine(small_environment)
        condition_arrays = small_environment.sample_condition_arrays()
        decision = SelectionDecision(participants=small_environment.fleet.device_ids[:8])
        return engine.execute_batch(decision, condition_arrays)

    def test_clean_execution_has_no_violations(self, batch):
        assert check_batch_execution(batch) == []

    def test_scalar_view_has_no_violations(self, batch):
        assert check_round_execution(batch.to_execution()) == []

    def test_corrupted_round_time_detected(self, batch):
        batch.round_time_s = batch.round_time_s * 2
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "round-time" in names

    def test_idle_energy_on_selected_row_detected(self, batch):
        rows = np.isin(batch.fleet_device_ids, batch.selected_ids)
        batch.idle_j[rows] = 1.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "idle-accounting" in names

    def test_negative_energy_detected(self, batch):
        batch.compute_j[0] = -1.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "finite-nonnegative" in names

    def test_offline_idle_energy_detected(self, batch):
        online_mask = np.ones(len(batch.fleet_device_ids), dtype=bool)
        offline_row = len(online_mask) - 1  # Not among the selected first 8 rows.
        online_mask[offline_row] = False
        batch.idle_j[offline_row] = 3.0
        names = {
            violation.invariant
            for violation in check_batch_execution(batch, online_mask=online_mask)
        }
        assert "offline-idle" in names

    def test_selection_exceeding_online_population_detected(self, batch):
        online_mask = np.zeros(len(batch.fleet_device_ids), dtype=bool)
        online_mask[:2] = True  # Only 2 online, 8 selected.
        batch.idle_j[:] = 0.0  # Isolate the selection-bound invariant.
        names = {
            violation.invariant
            for violation in check_batch_execution(batch, online_mask=online_mask)
        }
        assert "selection-bound" in names

    def test_failed_participant_transmitting_detected(self, batch):
        batch.failed[0] = True
        batch.communication_j[0] = 5.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "failure-semantics" in names

    def test_participant_total_disagreeing_with_scalar_view_detected(self, batch, monkeypatch):
        # The array total must match the per-device outcomes of to_execution().
        monkeypatch.setattr(
            type(batch), "participant_energy_j", property(lambda self: 0.0)
        )
        violations = check_batch_execution(batch)
        assert [violation.invariant for violation in violations] == ["energy-accounting"]
        assert "participant energy" in violations[0].message

    def test_auditor_flags_a_record_of_other_devices(self, batch):
        auditor = InvariantAuditor()
        record = _record(
            selected_ids=tuple(sorted(batch.selected_ids.tolist()))[1:] + (10_000,),
            dropped_ids=(),
            failed_ids=(),
            participant_energy_j=batch.participant_energy_j,
            global_energy_j=batch.global_energy_j,
            round_time_s=batch.round_time_s,
        )
        auditor(0, batch, record, None)
        names = {violation.invariant for violation in auditor.report.violations}
        assert "record-consistency" in names


class TestCheckRoundExecution:
    def _outcome(self, device_id, **overrides):
        base = dict(
            device_id=device_id,
            target=ExecutionTarget(processor="cpu", vf_step=0),
            compute_time_s=4.0,
            communication_time_s=1.0,
            energy=DeviceEnergy(compute_j=8.0, communication_j=2.0, idle_j=0.0),
        )
        base.update(overrides)
        return DeviceRoundOutcome(**base)

    def _execution(self, outcomes, round_time_s=5.0):
        account = RoundEnergyAccount()
        for device_id, outcome in outcomes.items():
            account.record(device_id, outcome.energy)
        return RoundExecution(outcomes=outcomes, round_time_s=round_time_s, energy=account)

    def test_consistent_execution_passes(self):
        outcomes = {1: self._outcome(1), 2: self._outcome(2)}
        assert check_round_execution(self._execution(outcomes)) == []

    def test_account_outcome_mismatch_detected(self):
        outcomes = {1: self._outcome(1)}
        execution = self._execution(outcomes)
        execution.energy.record(1, DeviceEnergy(compute_j=999.0))
        names = {violation.invariant for violation in check_round_execution(execution)}
        assert "energy-accounting" in names

    def test_round_time_mismatch_detected(self):
        outcomes = {1: self._outcome(1)}
        execution = self._execution(outcomes, round_time_s=123.0)
        names = {violation.invariant for violation in check_round_execution(execution)}
        assert "round-time" in names

    def test_non_selected_device_with_active_energy_detected(self):
        outcomes = {1: self._outcome(1)}
        execution = self._execution(outcomes, round_time_s=5.0)
        execution.energy.record(7, DeviceEnergy(compute_j=1.0))
        names = {violation.invariant for violation in check_round_execution(execution)}
        assert "energy-accounting" in names


class TestCheckRoundRecord:
    def test_consistent_record_passes(self):
        assert check_round_record(_record()) == []

    def test_dropped_failed_overlap_detected(self):
        violations = check_round_record(_record(dropped_ids=(2, 3)))
        assert {violation.invariant for violation in violations} == {"id-partition"}

    def test_accuracy_out_of_range_detected(self):
        violations = check_round_record(_record(accuracy=1.5))
        assert {violation.invariant for violation in violations} == {"metric-range"}

    def test_participant_energy_above_global_detected(self):
        violations = check_round_record(_record(participant_energy_j=100.0))
        assert {violation.invariant for violation in violations} == {"energy-accounting"}

    def test_selection_above_online_population_detected(self):
        violations = check_round_record(_record(num_online=2))
        assert {violation.invariant for violation in violations} == {"selection-bound"}

    def test_online_above_fleet_size_detected(self):
        violations = check_round_record(_record(num_online=10), num_devices=5)
        assert {violation.invariant for violation in violations} == {"selection-bound"}


class TestCheckSimulationResult:
    def test_real_trajectory_passes(self):
        result = build_simulation(FLAKY).run()
        assert check_simulation_result(result, num_devices=30) == []

    def test_out_of_order_rounds_detected(self):
        result = build_simulation(FLAKY).run()
        result.records.reverse()
        names = {
            violation.invariant for violation in check_simulation_result(result)
        }
        assert "trajectory" in names

    def test_bad_converged_round_detected(self):
        result = build_simulation(FLAKY).run()
        result.converged_round = 999
        names = {
            violation.invariant for violation in check_simulation_result(result)
        }
        assert "trajectory" in names

    def test_empty_result_detected(self):
        result = build_simulation(FLAKY).run()
        result.records = []
        assert check_simulation_result(result)


class TestInvariantAuditor:
    def test_audits_every_round_of_a_dynamic_run(self):
        auditor = InvariantAuditor(num_devices=30)
        result = build_simulation(FLAKY, round_observer=auditor).run()
        report = auditor.audit_result(result)
        assert report.ok
        assert report.rounds_checked == FLAKY.scenario.max_rounds
        assert report.results_checked == 1

    def test_static_fleet_run_audits_green_too(self):
        spec = dataclasses.replace(
            FLAKY,
            scenario=ScenarioSpec(num_devices=30, max_rounds=4, seed=2, setting="S4"),
        )
        auditor = InvariantAuditor(num_devices=30)
        result = build_simulation(spec, round_observer=auditor).run()
        assert auditor.audit_result(result).ok

    def test_raise_on_violation_aborts(self):
        report = ValidationReport()
        report.extend([InvariantViolation(invariant="x", message="boom", round_index=3)])
        with pytest.raises(ValidationError, match="boom"):
            report.raise_if_failed()

    def test_report_formats_round_and_invariant(self):
        violation = InvariantViolation(
            invariant="energy-accounting", message="off by one joule", round_index=7
        )
        assert "round 7" in str(violation)
        assert "energy-accounting" in str(violation)
