"""Pin the replicate axis to the solo runner: byte identity, grouping, routing.

The replicated driver must be a pure wall-clock optimisation: every seed's
``SimulationResult`` serialises to the exact bytes the solo run of that seed produces,
for baseline and learning policies, across static scenarios and ones with full fleet
dynamics (availability, churn, dropouts, slow faults).
"""

import numpy as np
import pytest

from repro.core.selection import RandomPolicy, StaticClusterPolicy, make_policy
from repro.exceptions import SimulationError
from repro.experiments.runner import POLICY_SEED_OFFSET, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.context import SelectionDecision
from repro.sim.replicated import ReplicatedSimulation
from repro.sim.round_engine import RoundEngine, execute_batch_replicated
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend
from repro.validation.invariants import InvariantAuditor

STATIC_SPEC = dict(workload="cnn-mnist", num_devices=60, max_rounds=6)
DYNAMIC_SPEC = dict(
    workload="cnn-mnist",
    num_devices=80,
    max_rounds=6,
    interference="heavy",
    network="variable",
    data_distribution="non_iid_50",
    availability="diurnal",
    churn_rate=0.02,
    dropout_rate=0.05,
    slow_fault_rate=0.05,
)


#: Churn plus both fault kinds on the paper-sized fleet, for the learning policies.
CHURN_FAULT_SPEC = dict(
    workload="cnn-mnist",
    num_devices=120,
    max_rounds=12,
    churn_rate=0.04,
    rejoin_rate=0.3,
    dropout_rate=0.08,
    slow_fault_rate=0.05,
)


def _simulation(
    spec_kwargs, seed, policy_cls=RandomPolicy, stop_at_convergence=False, observer=None
):
    spec = ScenarioSpec(seed=seed, **spec_kwargs)
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment, aggregator=spec.aggregator)
    policy = policy_cls(rng=np.random.default_rng(seed + POLICY_SEED_OFFSET))
    return FLSimulation(
        environment,
        policy,
        backend,
        stop_at_convergence=stop_at_convergence,
        round_observer=observer,
    )


def _named(policy_name):
    return lambda rng: make_policy(policy_name, rng=rng)


def _assert_replicated_matches_solo(spec_kwargs, policy_cls):
    seeds = [3, 4, 5, 6]
    solo = [
        _simulation(spec_kwargs, seed, policy_cls=policy_cls).run().to_json()
        for seed in seeds
    ]
    replicated = FLSimulation.run_replicated(
        [_simulation(spec_kwargs, seed, policy_cls=policy_cls) for seed in seeds]
    )
    assert [result.to_json() for result in replicated] == solo


@pytest.mark.parametrize("spec_kwargs", [STATIC_SPEC, DYNAMIC_SPEC], ids=["static", "dynamics"])
def test_replicated_results_are_byte_identical_to_solo(spec_kwargs):
    _assert_replicated_matches_solo(spec_kwargs, RandomPolicy)


@pytest.mark.parametrize("policy_name", ["autofl", "autofl-fast"])
@pytest.mark.parametrize(
    "spec_kwargs",
    [STATIC_SPEC, DYNAMIC_SPEC, CHURN_FAULT_SPEC],
    ids=["static", "dynamics", "churn-faults"],
)
def test_learning_policies_replicate_byte_identically(spec_kwargs, policy_name):
    _assert_replicated_matches_solo(spec_kwargs, _named(policy_name))


def test_replicated_learning_policy_keeps_its_reward_trajectory():
    # Feedback runs per replicate on the replicate axis: each agent learns exactly what
    # it learns alone.
    seeds = [0, 1]
    solo = [_simulation(CHURN_FAULT_SPEC, seed, policy_cls=_named("autofl")) for seed in seeds]
    for simulation in solo:
        simulation.run()
    replicated = [
        _simulation(CHURN_FAULT_SPEC, seed, policy_cls=_named("autofl")) for seed in seeds
    ]
    FLSimulation.run_replicated(replicated)
    for alone, stacked in zip(solo, replicated):
        assert stacked.policy.reward_history() == alone.policy.reward_history()
        assert len(alone.policy.reward_history()) == CHURN_FAULT_SPEC["max_rounds"]


def test_replicated_runs_round_observers():
    seeds = [3, 4]
    auditors = [InvariantAuditor() for _ in seeds]
    results = FLSimulation.run_replicated(
        [
            _simulation(DYNAMIC_SPEC, seed, policy_cls=_named("autofl"), observer=auditor)
            for seed, auditor in zip(seeds, auditors)
        ]
    )
    for auditor, result in zip(auditors, results):
        assert auditor.report.rounds_checked == result.num_rounds
        assert auditor.audit_result(result).ok


def test_replicated_respects_convergence_stopping():
    # With stop_at_convergence=True replicates may stop at different rounds; each must
    # still match its solo trajectory exactly.
    spec_kwargs = dict(STATIC_SPEC, max_rounds=30)
    seeds = [0, 1, 2]
    solo = [
        _simulation(spec_kwargs, seed, stop_at_convergence=True).run().to_json()
        for seed in seeds
    ]
    replicated = FLSimulation.run_replicated(
        [_simulation(spec_kwargs, seed, stop_at_convergence=True) for seed in seeds]
    )
    assert [result.to_json() for result in replicated] == solo


def test_replicated_rejects_empty():
    with pytest.raises(SimulationError, match="at least one"):
        ReplicatedSimulation([])


def test_execute_batch_replicated_groups_mixed_selection_sizes():
    # Replicates whose selections differ in size are stacked per size group; every
    # result must still be bitwise identical to its solo execute_batch call.
    environments = [
        build_environment(ScenarioSpec(seed=seed, **STATIC_SPEC)) for seed in range(4)
    ]
    engines = [RoundEngine(environment) for environment in environments]
    sizes = [10, 14, 10, 14]
    decisions = [
        SelectionDecision(participants=environment.fleet.device_ids[:size])
        for environment, size in zip(environments, sizes)
    ]
    conditions = [environment.sample_condition_arrays() for environment in environments]
    stacked = execute_batch_replicated(engines, decisions, conditions)
    for engine, decision, condition_arrays, batch in zip(
        engines, decisions, conditions, stacked
    ):
        solo = engine.execute_batch(decision, condition_arrays)
        assert np.array_equal(batch.compute_j, solo.compute_j)
        assert np.array_equal(batch.communication_j, solo.communication_j)
        assert np.array_equal(batch.waiting_j, solo.waiting_j)
        assert np.array_equal(batch.idle_j, solo.idle_j)
        assert batch.round_time_s == solo.round_time_s
        assert batch.participant_ids == solo.participant_ids


def test_run_experiment_routes_seed_replicas_through_replicate_axis():
    scenario = ScenarioSpec(**STATIC_SPEC)
    replicated = run_experiment(
        ExperimentSpec(
            scenario=scenario, policy="fedavg-random", n_seeds=3, stop_at_convergence=False
        )
    )
    # The serial reference: each seed run alone.
    serial = [
        _simulation(STATIC_SPEC, seed).run().summary() for seed in range(3)
    ]
    assert list(replicated.summaries) == serial


def test_run_experiment_replicates_learning_policies_under_validation():
    scenario = ScenarioSpec(**CHURN_FAULT_SPEC)
    spec = ExperimentSpec(
        scenario=scenario, policy="autofl", n_seeds=2, stop_at_convergence=False
    )
    replicated = run_experiment(spec, validate=True)
    serial = [
        _simulation(CHURN_FAULT_SPEC, seed, policy_cls=_named("autofl")).run().summary()
        for seed in range(2)
    ]
    assert list(replicated.summaries) == serial


def test_static_cluster_policy_rides_the_replicate_axis():
    seeds = [7, 8]
    solo = [
        _simulation(STATIC_SPEC, seed, policy_cls=lambda rng: StaticClusterPolicy("C3", rng=rng))
        .run()
        .to_json()
        for seed in seeds
    ]
    replicated = FLSimulation.run_replicated(
        [
            _simulation(
                STATIC_SPEC, seed, policy_cls=lambda rng: StaticClusterPolicy("C3", rng=rng)
            )
            for seed in seeds
        ]
    )
    assert [result.to_json() for result in replicated] == solo


def test_bench_replication_smoke():
    from repro.sim.bench import bench_replication

    result = bench_replication(num_devices=60, replicates=2, rounds=3)
    assert result.replicates == 2
    assert result.rounds == 3
    assert result.serial_wall_s > 0
    assert result.replicated_wall_s > 0
    assert result.speedup == pytest.approx(
        result.serial_wall_s / result.replicated_wall_s, rel=1e-6
    )
