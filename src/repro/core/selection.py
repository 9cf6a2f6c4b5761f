"""Baseline participant-selection policies and the policy factory.

The paper compares AutoFL against: FedAvg-Random (random K participants), Power (the
lowest-power cluster, C7), Performance (the fastest cluster, C1) and the static cluster
templates C0-C7 of Table 4 used throughout the characterisation of Section 3.
"""

from __future__ import annotations

import numpy as np

from repro.devices.fleet_arrays import TIER_ORDER
from repro.devices.specs import DeviceTier
from repro.exceptions import PolicyError
from repro.fl.server import RoundTrainingResult
from repro.registry import POLICIES
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.results import BatchRoundExecution

#: Paper Table 4 — cluster templates, expressed as device counts per tier for K = 20.
#: C0 is the random baseline (no fixed composition).
CLUSTER_TEMPLATES: dict[str, dict[DeviceTier, int]] = {
    "C1": {DeviceTier.HIGH: 20, DeviceTier.MID: 0, DeviceTier.LOW: 0},
    "C2": {DeviceTier.HIGH: 15, DeviceTier.MID: 5, DeviceTier.LOW: 0},
    "C3": {DeviceTier.HIGH: 10, DeviceTier.MID: 5, DeviceTier.LOW: 5},
    "C4": {DeviceTier.HIGH: 5, DeviceTier.MID: 10, DeviceTier.LOW: 5},
    "C5": {DeviceTier.HIGH: 5, DeviceTier.MID: 5, DeviceTier.LOW: 10},
    "C6": {DeviceTier.HIGH: 0, DeviceTier.MID: 5, DeviceTier.LOW: 15},
    "C7": {DeviceTier.HIGH: 0, DeviceTier.MID: 0, DeviceTier.LOW: 20},
}

#: Reference K the template counts are expressed against.
TEMPLATE_REFERENCE_K = 20


class Policy:
    """Base class for participant-selection policies."""

    name = "base"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select(self, ctx: RoundContext) -> SelectionDecision:
        """Choose the round's participants (and optionally per-device execution targets)."""
        raise NotImplementedError

    def feedback(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        training: RoundTrainingResult,
    ) -> None:
        """Receive the measured outcome of the round as the engine's batch arrays.

        The one learning hook: solo and replicated runs call it once per round, after
        training and before the record is built.  Non-learning policies ignore it.
        """

    # The former array-form hook, kept only as an alias: the end-to-end benchmark's
    # tracer (e2ebench/layers.py) wraps a policy's ``feedback_batch`` by name.
    def feedback_batch(self, *args, **kwargs) -> None:
        return self.feedback(*args, **kwargs)


def effective_num_participants(ctx: RoundContext) -> int:
    """The round's achievable selection size: K, capped by the online candidates.

    Under fleet dynamics fewer than K devices may be reachable; deployed FL runs the
    round with whoever is online rather than stalling the job.
    """
    num_candidates = ctx.num_candidates
    if num_candidates == 0:
        raise PolicyError("no online candidate devices this round")
    return min(ctx.environment.global_params.num_participants, num_candidates)


@POLICIES.register("fedavg-random", aliases=("random", "fedavg", "baseline"))
class RandomPolicy(Policy):
    """FedAvg-Random: the de-facto baseline that picks K participants uniformly at random."""

    name = "fedavg-random"

    def select(self, ctx: RoundContext) -> SelectionDecision:
        # The cached candidate array draws the exact same stream as the id list did —
        # Generator.choice converts a list to this array before sampling.
        device_ids = ctx.candidate_id_array()
        num_participants = effective_num_participants(ctx)
        chosen = self._rng.choice(device_ids, size=num_participants, replace=False)
        return SelectionDecision(participants=[int(device_id) for device_id in chosen])


def scale_template(
    template: dict[DeviceTier, int], num_participants: int
) -> dict[DeviceTier, int]:
    """Scale a Table 4 template (defined for K = 20) to an arbitrary K, preserving mix."""
    if num_participants <= 0:
        raise PolicyError("num_participants must be positive")
    raw = {
        tier: count * num_participants / TEMPLATE_REFERENCE_K for tier, count in template.items()
    }
    scaled = {tier: int(np.floor(value)) for tier, value in raw.items()}
    remainder = num_participants - sum(scaled.values())
    # Assign leftover slots to the tiers with the largest fractional parts.
    fractional = sorted(raw, key=lambda tier: raw[tier] - scaled[tier], reverse=True)
    for tier in fractional[:remainder]:
        scaled[tier] += 1
    return scaled


class StaticClusterPolicy(Policy):
    """Selects a fixed tier composition every round (the C1-C7 clusters of Table 4)."""

    name = "static-cluster"

    def __init__(
        self,
        composition: dict[DeviceTier, int] | str,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(rng)
        if isinstance(composition, str):
            key = composition.upper()
            if key not in CLUSTER_TEMPLATES:
                raise PolicyError(
                    f"unknown cluster template {composition!r}; expected C1-C7"
                )
            composition = CLUSTER_TEMPLATES[key]
            self.name = name or f"cluster-{key.lower()}"
        else:
            self.name = name or self.name
        self._composition = dict(composition)

    def select(self, ctx: RoundContext) -> SelectionDecision:
        # Per-tier candidate pools as array ops over the fleet snapshot.  Tier masks
        # preserve fleet order exactly like the per-device ``by_tier`` walk did, so the
        # RNG stream (and therefore every committed trajectory) is unchanged.
        arrays = ctx.environment.fleet_arrays
        candidates = ctx.candidate_id_array()
        online_tiers = (
            arrays.tier_codes
            if ctx.online_mask is None
            else arrays.tier_codes[np.asarray(ctx.online_mask, dtype=bool)]
        )
        num_participants = effective_num_participants(ctx)
        target_counts = scale_template(self._composition, num_participants)
        participants: list[int] = []
        shortfall = 0
        for code, tier in enumerate(TIER_ORDER):
            wanted = target_counts.get(tier, 0)
            available = candidates[online_tiers == code]
            take = min(wanted, len(available))
            shortfall += wanted - take
            if take > 0:
                chosen = self._rng.choice(available, size=take, replace=False)
                participants.extend(int(device_id) for device_id in chosen)
        if shortfall > 0:
            taken = np.array(participants, dtype=np.int64)
            remaining = candidates[np.isin(candidates, taken, invert=True)]
            if len(remaining) < shortfall:
                raise PolicyError("fleet too small to satisfy the requested cluster composition")
            extra = self._rng.choice(remaining, size=shortfall, replace=False)
            participants.extend(int(device_id) for device_id in extra)
        return SelectionDecision(participants=participants)


@POLICIES.register("performance")
class PerformancePolicy(StaticClusterPolicy):
    """Performance-oriented selection: the all-high-end cluster C1."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__("C1", rng=rng, name="performance")


@POLICIES.register("power")
class PowerPolicy(StaticClusterPolicy):
    """Power-oriented selection: the all-low-end cluster C7 (lowest power draw)."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__("C7", rng=rng, name="power")


def _register_cluster_templates() -> None:
    for key, template in CLUSTER_TEMPLATES.items():
        mix = "/".join(
            str(template[tier]) for tier in (DeviceTier.HIGH, DeviceTier.MID, DeviceTier.LOW)
        )
        POLICIES.add(
            f"cluster-{key.lower()}",
            # Bind the template key at definition time; a plain closure over ``key``
            # would make every factory build the last template.
            lambda rng=None, _key=key: StaticClusterPolicy(_key, rng=rng),
            summary=f"Static Table 4 cluster {key} (high/mid/low = {mix} for K = 20).",
        )


_register_cluster_templates()


def make_policy(
    name: str,
    rng: np.random.Generator | None = None,
    **kwargs: object,
) -> Policy:
    """Instantiate a selection policy by registered name.

    Built-in names: ``fedavg-random`` (alias ``random``), ``power``, ``performance``,
    ``cluster-c1`` … ``cluster-c7``, ``oparticipant``, ``ofl`` and ``autofl``; third-party
    policies registered on :data:`repro.registry.POLICIES` resolve the same way.
    """
    factory = POLICIES.get(name)
    return factory(rng=rng, **kwargs)  # type: ignore[return-value]
