"""Surrogate convergence model: fast analytical FL accuracy dynamics.

Running the paper's large experiments (200 devices, up to 1000 aggregation rounds, a dozen
policies) with real gradient computation would take hours per figure; the paper's *systems*
conclusions, however, depend only on the shape of the convergence curve, not on the exact
gradient values.  The surrogate model reproduces that shape with a saturating learning
curve whose per-round gain is driven by the statistical quality of the selected
participants:

* Rounds whose participants hold balanced, full-coverage (IID-like) data make progress at
  the workload's base rate toward its achievable accuracy.
* Rounds dominated by Dirichlet-concentrated (non-IID) participants make little progress
  and — below a quality threshold — actively regress the global model, which is what makes
  random selection fail to converge within 1000 rounds in the paper's Non-IID(75 %/100 %)
  scenarios (Figure 11).
* Robust aggregators (FedNova, FEDL, FedProx) recover part of the lost progress, matching
  their relative standing in Section 6.3.
* More local work (epochs, participants) increases the per-round gain with diminishing
  returns, consistent with the FedAvg convergence literature the paper cites.
"""

from __future__ import annotations

import numpy as np

from repro.data.profiles import DeviceDataProfile
from repro.exceptions import SimulationError
from repro.nn.workloads import WorkloadProfile

#: Round quality below which conflicting non-IID updates regress the global model.  The
#: value is calibrated so that — matching paper Figure 11 — random selection still converges
#: (slowly) under Non-IID(50 %) but fails to converge within 1000 rounds under
#: Non-IID(75 %) and Non-IID(100 %), while selections composed of IID devices always clear it.
STALL_QUALITY_THRESHOLD = 0.56

#: Initial accuracy of an untrained classifier (roughly random guessing for >= 10 classes).
INITIAL_ACCURACY = 0.10


class SurrogateConvergenceModel:
    """Analytical global-accuracy dynamics for one FL training job."""

    def __init__(
        self,
        workload: WorkloadProfile,
        aggregator_robustness: float = 0.0,
        rng: np.random.Generator | None = None,
        initial_accuracy: float = INITIAL_ACCURACY,
        noise_scale: float = 0.004,
    ) -> None:
        if not 0.0 <= aggregator_robustness < 1.0:
            raise SimulationError("aggregator_robustness must be in [0, 1)")
        if not 0.0 <= initial_accuracy < workload.max_accuracy:
            raise SimulationError("initial_accuracy must be below the workload's max accuracy")
        self._workload = workload
        self._robustness = aggregator_robustness
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._initial_accuracy = initial_accuracy
        self._noise_scale = noise_scale
        self._accuracy = initial_accuracy

    @property
    def accuracy(self) -> float:
        """Current global model accuracy."""
        return self._accuracy

    def reset(self) -> None:
        """Reset the model to its untrained state."""
        self._accuracy = self._initial_accuracy

    def round_quality(self, participants: list[DeviceDataProfile]) -> float:
        """Sample-weighted statistical quality of a round's participant set, in ``[0, 1]``."""
        if not participants:
            return 0.0
        total_samples = sum(profile.num_samples for profile in participants)
        if total_samples == 0:
            return 0.0
        weighted = [profile.data_quality * profile.num_samples for profile in participants]
        # Left to right (np.cumsum), like builtin sum() before CPython 3.12 compensated
        # float sums, so seeded trajectories do not depend on the Python version.
        return float(np.cumsum(weighted)[-1]) / total_samples

    def step(
        self,
        participants: list[DeviceDataProfile],
        local_epochs: int,
        num_expected_participants: int,
    ) -> float:
        """Advance the global accuracy by one aggregation round and return the new value.

        Parameters
        ----------
        participants:
            Data profiles of the devices whose updates were actually aggregated this round
            (stragglers excluded by the protocol do not appear here).
        local_epochs:
            The FL global parameter ``E``.
        num_expected_participants:
            The FL global parameter ``K`` — used to penalise rounds that aggregated fewer
            updates than intended (e.g. because stragglers were dropped).
        """
        if local_epochs <= 0 or num_expected_participants <= 0:
            raise SimulationError("local_epochs and num_expected_participants must be positive")
        if not participants:
            # No update arrived: accuracy merely drifts with evaluation noise.
            self._accuracy = self._clip(self._accuracy + self._rng.normal(0.0, self._noise_scale))
            return self._accuracy

        quality = self.round_quality(participants)
        # Robust aggregators recover part of the quality lost to non-IID drift.
        effective_quality = quality + self._robustness * (1.0 - quality) * 0.6

        epochs_factor = (local_epochs / 5.0) ** 0.5
        participation_factor = min(1.0, len(participants) / num_expected_participants) ** 0.5
        headroom = self._workload.max_accuracy - self._accuracy

        if effective_quality < STALL_QUALITY_THRESHOLD:
            # Conflicting, class-concentrated updates: progress stalls and the model can
            # regress slightly (paper Figure 6(a) / Figure 11(c)(d)).
            deficit = STALL_QUALITY_THRESHOLD - effective_quality
            regression = 0.02 * deficit * (self._accuracy - self._initial_accuracy)
            delta = -regression
        else:
            gain_scale = (effective_quality - STALL_QUALITY_THRESHOLD) / (
                1.0 - STALL_QUALITY_THRESHOLD
            )
            delta = (
                self._workload.base_gain
                * gain_scale
                * epochs_factor
                * participation_factor
                * headroom
            )
        delta += self._rng.normal(0.0, self._noise_scale)
        self._accuracy = self._clip(self._accuracy + delta)
        return self._accuracy

    def _clip(self, value: float) -> float:
        return float(np.clip(value, 0.0, self._workload.max_accuracy))
