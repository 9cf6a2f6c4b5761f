"""Machine-checked invariants of the simulator's accounting identities.

The round engine and the simulation runner promise a handful of physical identities
regardless of scenario — the checkers here audit any
:class:`~repro.sim.results.RoundExecution`, :class:`~repro.sim.results.BatchRoundExecution`
or :class:`~repro.sim.results.SimulationResult` against them:

* **energy accounting** — the round's global energy equals the sum of the per-device
  energies (participants' compute + radio + waiting, plus the idle draw of every
  non-selected online device), and the array-sum and per-device-object views agree;
* **id partition** — the participant, dropped (straggler) and failed (fault) id sets are
  pairwise disjoint and together exactly cover the selected set;
* **round time** — the round closes when the slowest retained participant finishes: the
  round time equals the max retained wall time under the straggler deadline;
* **offline devices** — devices outside the online mask draw zero idle energy, and no
  selection may exceed the online population (K never exceeds who is reachable);
* **failure semantics** — a mid-round failure never transmits (zero radio time/energy)
  and never waits for the aggregated model.

Checkers return :class:`InvariantViolation` lists instead of raising, so callers (the
fuzzer, the ``BatchRunner`` self-check hook, tests) can aggregate across rounds;
:class:`InvariantAuditor` adapts them to the simulation runner's
:class:`~repro.sim.runner.RoundObserver` hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.sim.results import BatchRoundExecution, RoundExecution, RoundRecord, SimulationResult

#: Absolute tolerance for identities re-computed along a different float path (e.g. the
#: array sum versus the per-device Python sum of the same energies).
ENERGY_RTOL = 1e-9

#: Absolute floor below which energy/time comparisons switch to absolute tolerance.
ABS_TOL = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One broken accounting identity, with enough context to locate it."""

    invariant: str
    message: str
    round_index: int | None = None

    def __str__(self) -> str:
        prefix = f"round {self.round_index}: " if self.round_index is not None else ""
        return f"{prefix}[{self.invariant}] {self.message}"


class ValidationReport:
    """An accumulating list of invariant violations across rounds and checks."""

    def __init__(self) -> None:
        self.violations: list[InvariantViolation] = []
        self.rounds_checked = 0
        self.results_checked = 0

    @property
    def ok(self) -> bool:
        """True when every audited object satisfied every invariant."""
        return not self.violations

    def extend(self, violations: list[InvariantViolation]) -> None:
        """Fold more violations into the report."""
        self.violations.extend(violations)

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` describing every violation.

        The raised error carries this report as its ``report`` attribute so callers
        (e.g. the orchestration scheduler) can persist the full audit as an artifact.
        """
        if self.violations:
            details = "\n".join(f"  - {violation}" for violation in self.violations)
            error = ValidationError(
                f"{len(self.violations)} invariant violation(s) detected:\n{details}"
            )
            error.report = self
            raise error

    def to_dict(self) -> dict:
        """JSON-serialisable payload (stored as a job artifact on validation failure)."""
        return {
            "kind": "validation-report",
            "rounds_checked": self.rounds_checked,
            "results_checked": self.results_checked,
            "ok": self.ok,
            "violations": [
                {
                    "invariant": violation.invariant,
                    "message": violation.message,
                    "round_index": violation.round_index,
                }
                for violation in self.violations
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ValidationReport(rounds={self.rounds_checked}, "
            f"results={self.results_checked}, violations={len(self.violations)})"
        )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ENERGY_RTOL, abs_tol=ABS_TOL)


def _violation(
    invariant: str, message: str, round_index: int | None
) -> InvariantViolation:
    return InvariantViolation(invariant=invariant, message=message, round_index=round_index)


# ---------------------------------------------------------------------- round executions
def check_round_execution(
    execution: RoundExecution, round_index: int | None = None
) -> list[InvariantViolation]:
    """Audit one scalar :class:`RoundExecution` against the round-level identities."""
    violations: list[InvariantViolation] = []
    selected = set(execution.outcomes)
    participants = set(execution.participant_ids)
    dropped = set(execution.dropped_ids)
    failed = set(execution.failed_ids)

    # Participant/dropped/failed partition the selected set.
    overlaps = (participants & dropped) | (participants & failed) | (dropped & failed)
    if overlaps:
        violations.append(
            _violation(
                "id-partition",
                f"participant/dropped/failed sets overlap on {sorted(overlaps)[:5]}",
                round_index,
            )
        )
    union = participants | dropped | failed
    if union != selected:
        violations.append(
            _violation(
                "id-partition",
                f"participant ∪ dropped ∪ failed ({len(union)} ids) does not cover the "
                f"selected set ({len(selected)} ids)",
                round_index,
            )
        )

    # The round closes with the slowest retained participant.
    retained_times = [
        outcome.total_time_s
        for outcome in execution.outcomes.values()
        if not outcome.dropped and not outcome.failed
    ]
    if retained_times and not _close(execution.round_time_s, max(retained_times)):
        violations.append(
            _violation(
                "round-time",
                f"round_time_s={execution.round_time_s!r} but the slowest retained "
                f"participant took {max(retained_times)!r}",
                round_index,
            )
        )

    # Round energy equals the sum of the per-device energies: every selected device's
    # account entry matches its outcome, non-selected devices are idle-only, and the
    # global total is exactly their sum.
    per_device = execution.energy.per_device
    device_sum = 0.0
    for device_id, energy in per_device.items():
        device_sum += energy.total_j
        outcome = execution.outcomes.get(device_id)
        if outcome is not None:
            if not _close(energy.total_j, outcome.energy.total_j):
                violations.append(
                    _violation(
                        "energy-accounting",
                        f"device {device_id}: account total {energy.total_j!r} J != "
                        f"outcome total {outcome.energy.total_j!r} J",
                        round_index,
                    )
                )
        elif energy.compute_j != 0.0 or energy.communication_j != 0.0:
            violations.append(
                _violation(
                    "energy-accounting",
                    f"non-selected device {device_id} drew active energy "
                    f"(compute={energy.compute_j!r}, radio={energy.communication_j!r})",
                    round_index,
                )
            )
    missing = selected - set(per_device)
    if missing:
        violations.append(
            _violation(
                "energy-accounting",
                f"selected devices missing from the energy account: {sorted(missing)[:5]}",
                round_index,
            )
        )
    if not _close(execution.energy.global_j, device_sum):
        violations.append(
            _violation(
                "energy-accounting",
                f"global energy {execution.energy.global_j!r} J != per-device sum "
                f"{device_sum!r} J",
                round_index,
            )
        )

    # Failures never transmit and never wait for the aggregated model.
    for device_id in failed:
        outcome = execution.outcomes[device_id]
        if outcome.communication_time_s != 0.0 or outcome.energy.communication_j != 0.0:
            violations.append(
                _violation(
                    "failure-semantics",
                    f"failed device {device_id} still transmitted "
                    f"({outcome.communication_time_s!r} s, "
                    f"{outcome.energy.communication_j!r} J)",
                    round_index,
                )
            )
    return violations


def check_batch_execution(
    batch: BatchRoundExecution,
    online_mask: np.ndarray | None = None,
    round_index: int | None = None,
) -> list[InvariantViolation]:
    """Audit one :class:`BatchRoundExecution` (the vectorised engine's native output).

    The energy totals are cross-checked against the batch's scalar reference view
    (:meth:`~repro.sim.results.BatchRoundExecution.to_execution`).
    """
    violations: list[InvariantViolation] = []
    dropped = np.asarray(batch.dropped, dtype=bool)
    # BatchRoundExecution.__post_init__ guarantees failed is never None.
    failed = np.asarray(batch.failed, dtype=bool)

    # Every per-participant quantity must be finite and non-negative.
    for label, values in (
        ("compute_time_s", batch.compute_time_s),
        ("communication_time_s", batch.communication_time_s),
        ("compute_j", batch.compute_j),
        ("communication_j", batch.communication_j),
        ("waiting_j", batch.waiting_j),
        ("idle_j", batch.idle_j),
    ):
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            violations.append(
                _violation(
                    "finite-nonnegative",
                    f"{label} contains negative or non-finite entries",
                    round_index,
                )
            )

    # Participant/dropped/failed partition the selected set (array form).
    participants = set(batch.participant_ids)
    dropped_ids = set(batch.dropped_ids)
    failed_ids = set(batch.failed_ids)
    selected = {int(device_id) for device_id in batch.selected_ids}
    if (participants | dropped_ids | failed_ids) != selected or (
        len(participants) + len(dropped_ids) + len(failed_ids) != len(selected)
    ):
        violations.append(
            _violation(
                "id-partition",
                "participant/dropped/failed id sets do not partition the selection",
                round_index,
            )
        )

    # The round closes with the slowest retained participant.
    retained = ~(dropped | failed)
    if retained.any():
        slowest = float(batch.total_time_s[retained].max())
        if not _close(batch.round_time_s, slowest):
            violations.append(
                _violation(
                    "round-time",
                    f"round_time_s={batch.round_time_s!r} but the slowest retained "
                    f"participant took {slowest!r}",
                    round_index,
                )
            )

    # Selected rows never also idle; offline devices draw zero idle energy.
    selected_rows = np.isin(batch.fleet_device_ids, batch.selected_ids)
    if np.any(batch.idle_j[selected_rows] != 0.0):
        violations.append(
            _violation(
                "idle-accounting",
                "selected devices carry non-zero idle energy in the fleet account",
                round_index,
            )
        )
    if online_mask is not None:
        mask = np.asarray(online_mask, dtype=bool)
        if len(mask) != len(batch.fleet_device_ids):
            violations.append(
                _violation(
                    "online-mask",
                    f"online mask length {len(mask)} != fleet size "
                    f"{len(batch.fleet_device_ids)}",
                    round_index,
                )
            )
        else:
            offline_idle = float(np.sum(np.abs(batch.idle_j[~mask])))
            if offline_idle != 0.0:
                violations.append(
                    _violation(
                        "offline-idle",
                        f"offline devices drew {offline_idle!r} J of idle energy",
                        round_index,
                    )
                )
            # K never exceeds the online population.
            num_online = int(mask.sum())
            if len(batch.selected_ids) > num_online:
                violations.append(
                    _violation(
                        "selection-bound",
                        f"{len(batch.selected_ids)} devices selected but only "
                        f"{num_online} were online",
                        round_index,
                    )
                )
            offline_selected = ~mask[selected_rows]
            if offline_selected.any():
                violations.append(
                    _violation(
                        "selection-bound",
                        f"{int(offline_selected.sum())} selected device(s) were offline",
                        round_index,
                    )
                )

    # Failures never transmit and never wait for the aggregated model.
    if failed.any():
        if np.any(batch.communication_time_s[failed] != 0.0) or np.any(
            batch.communication_j[failed] != 0.0
        ):
            violations.append(
                _violation(
                    "failure-semantics",
                    "failed participants still transmitted (non-zero radio time/energy)",
                    round_index,
                )
            )
        if np.any(batch.waiting_j[failed] != 0.0):
            violations.append(
                _violation(
                    "failure-semantics",
                    "failed participants drew waiting energy after dying",
                    round_index,
                )
            )

    # Round energy equals the sum of the per-device energies: the array-sum totals must
    # agree with the materialised per-device-object account.  Materialising requires
    # well-formed arrays, so the cross-check is skipped once those are already broken.
    if not any(violation.invariant == "finite-nonnegative" for violation in violations):
        scalar = batch.to_execution()
        if not _close(batch.participant_energy_j, scalar.participant_energy_j):
            violations.append(
                _violation(
                    "energy-accounting",
                    f"array-sum participant energy {batch.participant_energy_j!r} J != "
                    f"per-device outcomes {scalar.participant_energy_j!r} J",
                    round_index,
                )
            )
        if not _close(batch.global_energy_j, scalar.energy.global_j):
            violations.append(
                _violation(
                    "energy-accounting",
                    f"array-sum global energy {batch.global_energy_j!r} J != per-device "
                    f"account {scalar.energy.global_j!r} J",
                    round_index,
                )
            )
        violations.extend(check_round_execution(scalar, round_index=round_index))
    return violations


# ---------------------------------------------------------------------- round records
def check_round_record(
    record: RoundRecord, num_devices: int | None = None
) -> list[InvariantViolation]:
    """Audit one :class:`RoundRecord` in isolation (the serialisable trajectory row)."""
    violations: list[InvariantViolation] = []
    index = record.round_index
    selected = set(record.selected_ids)
    dropped = set(record.dropped_ids)
    failed = set(record.failed_ids)
    if not dropped <= selected or not failed <= selected or dropped & failed:
        violations.append(
            _violation(
                "id-partition",
                "dropped/failed ids must be disjoint subsets of the selected ids",
                index,
            )
        )
    if record.num_aggregated < 0:
        violations.append(
            _violation("id-partition", f"num_aggregated={record.num_aggregated} < 0", index)
        )
    if not 0.0 <= record.accuracy <= 1.0:
        violations.append(
            _violation("metric-range", f"accuracy={record.accuracy!r} outside [0, 1]", index)
        )
    if record.round_time_s < 0 or not math.isfinite(record.round_time_s):
        violations.append(
            _violation("metric-range", f"round_time_s={record.round_time_s!r}", index)
        )
    if record.participant_energy_j < 0 or record.global_energy_j < 0:
        violations.append(
            _violation(
                "metric-range",
                f"negative energy (participant={record.participant_energy_j!r}, "
                f"global={record.global_energy_j!r})",
                index,
            )
        )
    # Participants' energy is part of the global account, never more than it.
    if record.participant_energy_j > record.global_energy_j * (1 + ENERGY_RTOL) + ABS_TOL:
        violations.append(
            _violation(
                "energy-accounting",
                f"participant energy {record.participant_energy_j!r} J exceeds global "
                f"energy {record.global_energy_j!r} J",
                index,
            )
        )
    if record.num_online is not None:
        if len(selected) > record.num_online:
            violations.append(
                _violation(
                    "selection-bound",
                    f"{len(selected)} selected > {record.num_online} online",
                    index,
                )
            )
        if num_devices is not None and record.num_online > num_devices:
            violations.append(
                _violation(
                    "selection-bound",
                    f"num_online={record.num_online} exceeds the fleet size {num_devices}",
                    index,
                )
            )
    return violations


def check_simulation_result(
    result: SimulationResult, num_devices: int | None = None
) -> list[InvariantViolation]:
    """Audit a complete :class:`SimulationResult` trajectory."""
    violations: list[InvariantViolation] = []
    if not result.records:
        violations.append(_violation("trajectory", "simulation produced no rounds", None))
        return violations
    indices = [record.round_index for record in result.records]
    if indices != sorted(set(indices)):
        violations.append(
            _violation("trajectory", f"round indices not strictly increasing: {indices[:8]}", None)
        )
    for record in result.records:
        violations.extend(check_round_record(record, num_devices=num_devices))
    last_index = result.records[-1].round_index
    if result.converged_round is not None and not (0 <= result.converged_round <= last_index):
        violations.append(
            _violation(
                "trajectory",
                f"converged_round={result.converged_round} outside the executed range "
                f"[0, {last_index}]",
                None,
            )
        )
    return violations


# ---------------------------------------------------------------------- auditor
class InvariantAuditor:
    """A :class:`~repro.sim.runner.RoundObserver` that audits every executed round.

    Attach to an :class:`~repro.sim.runner.FLSimulation` via ``round_observer=`` to
    check each round's :class:`BatchRoundExecution` and record as they happen, then call
    :meth:`audit_result` on the finished :class:`SimulationResult`.  With
    ``raise_on_violation`` the first broken invariant aborts the run; otherwise the
    report accumulates everything for one end-of-run verdict.
    """

    def __init__(self, raise_on_violation: bool = False, num_devices: int | None = None):
        self.report = ValidationReport()
        self._raise = raise_on_violation
        self._num_devices = num_devices

    def __call__(
        self,
        round_index: int,
        batch: BatchRoundExecution,
        record: RoundRecord,
        online_mask: np.ndarray | None,
    ) -> None:
        """Audit one executed round (the runner's observer hook)."""
        violations = check_batch_execution(
            batch, online_mask=online_mask, round_index=round_index
        )
        violations.extend(check_round_record(record, num_devices=self._num_devices))
        violations.extend(self._cross_check(batch, record, round_index))
        self.report.rounds_checked += 1
        self.report.extend(violations)
        if self._raise:
            self.report.raise_if_failed()

    def _cross_check(
        self, batch: BatchRoundExecution, record: RoundRecord, round_index: int
    ) -> list[InvariantViolation]:
        # The record lists the policy's decision; the engine must have executed exactly
        # those devices.  (The record's times, energies and failures are read off the
        # batch itself, which check_batch_execution audits against its scalar view.)
        if sorted(record.selected_ids) != sorted(batch.selected_ids.tolist()):
            return [
                _violation("record-consistency", "record selected_ids != execution", round_index)
            ]
        return []

    def audit_result(self, result: SimulationResult) -> ValidationReport:
        """Audit the finished trajectory and return the accumulated report."""
        self.report.results_checked += 1
        self.report.extend(
            check_simulation_result(result, num_devices=self._num_devices)
        )
        if self._raise:
            self.report.raise_if_failed()
        return self.report
