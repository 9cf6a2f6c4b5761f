"""Experiment runners shared by the examples and the per-figure benchmark harness.

These drivers sit one level above the declarative subsystem: each builds its (single-seed)
jobs as :class:`~repro.experiments.spec.ExperimentSpec` instances executed through
:func:`~repro.experiments.runner.build_simulation`, then adds the figure-specific
post-processing (baseline normalisation, cluster sweeps, reference-policy shadowing) that
needs the full per-round :class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.selection import Policy, StaticClusterPolicy, make_policy
from repro.devices.specs import DeviceTier
from repro.exceptions import ConfigurationError
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.fl.metrics import relative_improvement
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.results import SimulationResult
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a policy-comparison table, normalised against the baseline policy."""

    policy: str
    ppw_local: float
    ppw_global: float
    convergence_speedup: float
    final_accuracy: float
    converged: bool

    def as_tuple(self) -> tuple[object, ...]:
        """Row representation for :func:`repro.experiments.reporting.format_table`."""
        return (
            self.policy,
            self.ppw_local,
            self.ppw_global,
            self.convergence_speedup,
            self.final_accuracy,
            self.converged,
        )


@dataclass(frozen=True)
class PredictionAccuracyReport:
    """How closely a policy tracks a reference (oracle) policy's decisions (Figure 12)."""

    policy: str
    reference: str
    participant_accuracy: float
    target_accuracy: float
    tier_composition: dict[str, float]
    reference_tier_composition: dict[str, float]


def run_simulation(
    spec: ScenarioSpec,
    policy_name: str,
    max_rounds: int | None = None,
    stop_at_convergence: bool = True,
    seed_offset: int = 0,
) -> SimulationResult:
    """Run one complete FL training job for a scenario under a named policy."""
    scenario = replace(spec, seed=spec.seed + seed_offset)
    if max_rounds is not None:
        scenario = replace(scenario, max_rounds=max_rounds)
    experiment = ExperimentSpec(
        scenario=scenario, policy=policy_name, stop_at_convergence=stop_at_convergence
    )
    return build_simulation(experiment).run()


def run_policy_comparison(
    spec: ScenarioSpec,
    policies: tuple[str, ...] = ("fedavg-random", "power", "performance", "autofl"),
    baseline: str = "fedavg-random",
    max_rounds: int | None = None,
) -> tuple[dict[str, SimulationResult], list[ComparisonRow]]:
    """Run several policies on the same scenario and normalise against ``baseline``.

    Every policy runs in a freshly built (but identically seeded) environment, mirroring the
    paper's methodology of evaluating each design point on the same deployment.
    """
    if baseline not in policies:
        raise ConfigurationError(f"baseline {baseline!r} must be one of the compared policies")
    results = {
        policy_name: run_simulation(spec, policy_name, max_rounds=max_rounds)
        for policy_name in policies
    }
    baseline_summary = results[baseline].summary()
    rows = []
    for policy_name in policies:
        summary = results[policy_name].summary()
        rows.append(
            ComparisonRow(
                policy=policy_name,
                ppw_local=relative_improvement(
                    baseline_summary.participant_energy_j, summary.participant_energy_j
                ),
                ppw_global=relative_improvement(
                    baseline_summary.global_energy_j, summary.global_energy_j
                ),
                convergence_speedup=relative_improvement(
                    baseline_summary.convergence_speedup_reference_s,
                    summary.convergence_speedup_reference_s,
                ),
                final_accuracy=summary.final_accuracy,
                converged=summary.converged,
            )
        )
    return results, rows


def run_cluster_sweep(
    spec: ScenarioSpec,
    clusters: tuple[str, ...] = ("C1", "C2", "C3", "C4", "C5", "C6", "C7"),
    rounds: int = 30,
) -> dict[str, float]:
    """Characterisation sweep over the Table 4 cluster templates (Figures 4 and 5).

    Each cluster runs the same fixed number of rounds on an identically seeded deployment
    (the paper's characterisation fixes the training work and compares steady-state
    efficiency), and the returned global PPW is normalised to the FedAvg-Random baseline
    (C0): ``PPW(Cx) = energy(C0) / energy(Cx)``.
    """
    baseline = run_simulation(
        spec, "fedavg-random", max_rounds=rounds, stop_at_convergence=False
    )
    baseline_energy = baseline.total_global_energy_j
    ppw: dict[str, float] = {"C0": 1.0}
    for cluster in clusters:
        result = run_simulation(
            spec, f"cluster-{cluster.lower()}", max_rounds=rounds, stop_at_convergence=False
        )
        ppw[cluster] = relative_improvement(baseline_energy, result.total_global_energy_j)
    return ppw


def _tier_composition(environment, selected_ids: list[int]) -> dict[str, float]:
    counts = {"high": 0, "mid": 0, "low": 0}
    for device_id in selected_ids:
        counts[environment.fleet.tier_of(device_id).value] += 1
    total = max(1, sum(counts.values()))
    return {tier: count / total for tier, count in counts.items()}


class _ShadowedPolicy(Policy):
    """Executes ``primary``'s decisions while asking ``reference`` what it would pick.

    The reference only observes: it selects on the same round context, its decision is
    logged next to the executed one, and it never receives feedback.
    """

    def __init__(self, primary: Policy, reference: Policy) -> None:
        super().__init__()
        self.name = primary.name
        self._primary = primary
        self._reference = reference
        self.decisions: list[tuple[SelectionDecision, SelectionDecision]] = []

    def select(self, ctx: RoundContext) -> SelectionDecision:
        decision = self._primary.select(ctx)
        self.decisions.append((decision, self._reference.select(ctx)))
        return decision

    def feedback(self, ctx, decision, batch, training) -> None:
        self._primary.feedback(ctx, decision, batch, training)


def run_with_reference(
    spec: ScenarioSpec,
    policy_name: str = "autofl",
    reference_name: str = "ofl",
    rounds: int = 60,
) -> PredictionAccuracyReport:
    """Run ``policy_name`` while asking ``reference_name`` for its decision each round.

    The reference policy only observes — the executed decision is always the primary
    policy's — which reproduces the prediction-accuracy methodology of Figure 12: after the
    agent's reward has converged, how often do its participant and execution-target choices
    match the oracle's?  The job runs through :class:`FLSimulation`, so fleet dynamics
    apply exactly as in any other run.
    """
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment, aggregator=spec.aggregator)
    policy = _ShadowedPolicy(
        make_policy(policy_name, rng=np.random.default_rng(spec.seed + 10_000)),
        make_policy(reference_name, rng=np.random.default_rng(spec.seed + 20_000)),
    )
    FLSimulation(
        environment, policy, backend, max_rounds=rounds, stop_at_convergence=False
    ).run()
    participant_matches: list[float] = []
    target_matches: list[float] = []
    policy_tiers = {"high": 0.0, "mid": 0.0, "low": 0.0}
    reference_tiers = {"high": 0.0, "mid": 0.0, "low": 0.0}
    warmup = rounds // 2
    for decision, reference_decision in policy.decisions[warmup:]:
        chosen = set(decision.participants)
        reference_chosen = set(reference_decision.participants)
        overlap = len(chosen & reference_chosen) / max(1, len(reference_chosen))
        participant_matches.append(overlap)
        shared = chosen & reference_chosen
        if shared:
            same_processor = sum(
                1
                for device_id in shared
                if decision.targets.get(device_id) is not None
                and reference_decision.targets.get(device_id) is not None
                and decision.targets[device_id].processor
                == reference_decision.targets[device_id].processor
            )
            target_matches.append(same_processor / len(shared))
        for tier, fraction in _tier_composition(environment, decision.participants).items():
            policy_tiers[tier] += fraction
        for tier, fraction in _tier_composition(
            environment, reference_decision.participants
        ).items():
            reference_tiers[tier] += fraction
    observed_rounds = max(1, rounds - warmup)
    return PredictionAccuracyReport(
        policy=policy_name,
        reference=reference_name,
        participant_accuracy=float(np.mean(participant_matches)) if participant_matches else 0.0,
        target_accuracy=float(np.mean(target_matches)) if target_matches else 0.0,
        tier_composition={tier: value / observed_rounds for tier, value in policy_tiers.items()},
        reference_tier_composition={
            tier: value / observed_rounds for tier, value in reference_tiers.items()
        },
    )


def run_static_cluster(
    spec: ScenarioSpec, composition: dict[str, int], max_rounds: int | None = None
) -> SimulationResult:
    """Run a custom static tier composition (counts per tier for K = 20)."""
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment, aggregator=spec.aggregator)
    policy = StaticClusterPolicy(
        {DeviceTier.from_name(tier): count for tier, count in composition.items()},
        rng=np.random.default_rng(spec.seed + 10_000),
        name="custom-cluster",
    )
    simulation = FLSimulation(
        environment=environment, policy=policy, backend=backend, max_rounds=max_rounds
    )
    return simulation.run()
