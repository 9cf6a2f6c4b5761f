"""Figure 15 and Section 6.4: AutoFL's learning convergence and runtime/memory overhead.

Paper claims: (1) the Q-learning reward converges within ~50-80 aggregation rounds, well
before FL itself converges; (2) sharing Q-tables across devices of the same performance
category speeds up learning at a small accuracy cost; (3) the per-round controller overhead
(state observation, selection, reward calculation, table update) is a negligible fraction of
an aggregation round, and the total Q-table memory footprint is tiny.
"""

import time

import numpy as np

from _helpers import print_series, realistic_spec

from repro.core.controller import AutoFLPolicy
from repro.core.qtable import QTableStore
from repro.sim.context import RoundContext
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import build_environment, build_surrogate_backend

ROUNDS = 90


def _train_policy(sharing: str, seed: int = 3):
    spec = realistic_spec("cnn-mnist", num_devices=100, seed=seed)
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment)
    policy = AutoFLPolicy(rng=np.random.default_rng(seed), qtable_sharing=sharing)
    engine = RoundEngine(environment)
    overhead_s = []
    for round_index in range(ROUNDS):
        conditions = environment.sample_round_conditions()
        ctx = RoundContext(round_index, environment, conditions, backend.accuracy)
        started = time.perf_counter()
        decision = policy.select(ctx)
        select_elapsed = time.perf_counter() - started
        batch = engine.execute_batch(decision, conditions)
        training = backend.run_round(batch.participant_ids)
        started = time.perf_counter()
        policy.feedback(ctx, decision, batch, training)
        overhead_s.append(select_elapsed + (time.perf_counter() - started))
    rewards = policy.reward_history()
    return {
        "rewards": rewards,
        "mean_overhead_s": float(np.mean(overhead_s)),
        "qtable_entries": policy.agent.qtable_store.total_entries(),
        "num_tables": policy.agent.qtable_store.num_tables,
        "final_accuracy": backend.accuracy,
    }


def _run():
    return {
        "per-tier": _train_policy(QTableStore.PER_TIER),
        "per-device": _train_policy(QTableStore.PER_DEVICE),
    }


def _reward_convergence_round(rewards, window=10, tolerance=5.0):
    """First round after which the windowed mean reward stops improving by > tolerance."""
    means = [np.mean(rewards[i : i + window]) for i in range(0, len(rewards) - window)]
    final = means[-1]
    for index, value in enumerate(means):
        if final - value < tolerance:
            return index
    return len(rewards)


def test_figure15_learning_convergence_and_overhead(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    shared, per_device = results["per-tier"], results["per-device"]

    shared_convergence = _reward_convergence_round(shared["rewards"])
    per_device_convergence = _reward_convergence_round(per_device["rewards"])
    print_series(
        "Figure 15 — reward convergence round",
        {"shared Q-tables": shared_convergence, "per-device Q-tables": per_device_convergence},
    )
    print_series(
        "Section 6.4 — per-round controller overhead (ms)",
        {
            "shared": shared["mean_overhead_s"] * 1e3,
            "per-device": per_device["mean_overhead_s"] * 1e3,
        },
    )
    print_series(
        "Section 6.4 — Q-table entries",
        {"shared": shared["qtable_entries"], "per-device": per_device["qtable_entries"]},
    )

    # The reward improves over training and stabilises well within the round budget.
    for result in results.values():
        rewards = result["rewards"]
        assert len(rewards) == ROUNDS
        assert np.mean(rewards[-15:]) > np.mean(rewards[:15])
    assert shared_convergence <= ROUNDS - 10

    # Sharing Q-tables across a performance category shrinks the learned state (paper: the
    # shared mode trades a little accuracy for faster convergence and less memory).
    assert shared["num_tables"] < per_device["num_tables"]
    assert shared["qtable_entries"] <= per_device["qtable_entries"]

    # The controller overhead per round is far below any realistic round duration, and the
    # lookup tables are small (paper: ~0.5 ms and tens of MB for 200 devices).
    assert shared["mean_overhead_s"] < 0.25
    assert shared["qtable_entries"] < 1_000_000
