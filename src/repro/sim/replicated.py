"""Replicated simulation driver: N seeds of one scenario through one engine call.

Seed replication re-runs the *same* scenario under different RNG seeds to average out
run-to-run noise.  The physics of the replicates is embarrassingly parallel, so instead of
N serial :meth:`~repro.sim.runner.FLSimulation.run` loops this driver advances all
replicates round by round and executes each round's device physics as a single stacked
``[replicates, participants]`` engine call
(:func:`~repro.sim.round_engine.execute_batch_replicated`).

Everything around that call is the solo runner's own code: each replicate plans its round
(online mask, condition sampling, selection, fault draw) and finishes it (training, policy
feedback, record, round observer, convergence) through the same
:class:`~repro.sim.runner.FLSimulation` steps, on its own RNG streams.  Every replicate's
:class:`SimulationResult` is therefore byte-identical (``to_json``) to running that seed
alone — for learning policies and audited runs too.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import telemetry
from repro.exceptions import SimulationError
from repro.sim.results import SimulationResult
from repro.sim.round_engine import execute_batch_replicated
from repro.sim.runner import FLSimulation


class ReplicatedSimulation:
    """Drives same-scenario, different-seed simulations through the replicate axis."""

    def __init__(self, simulations: Sequence[FLSimulation]) -> None:
        if not simulations:
            raise SimulationError("replicated execution needs at least one simulation")
        self._sims = list(simulations)

    def run(self) -> list[SimulationResult]:
        """Run every replicate to convergence (or its round budget) and return results."""
        sims = self._sims
        results = [sim._new_result() for sim in sims]
        done = [False] * len(sims)
        round_index = 0
        while True:
            active = [
                i
                for i, sim in enumerate(sims)
                if not done[i] and round_index < sim._max_rounds
            ]
            if not active:
                break
            plans = [sims[i]._plan_round(round_index) for i in active]
            # One stacked engine call for the whole round's physics.
            with telemetry.get_tracer().span(
                "replicated_round",
                category="engine",
                round=round_index,
                replicates=len(active),
            ):
                batches = execute_batch_replicated(
                    [sims[i]._engine for i in active],
                    [plan.decision for plan in plans],
                    [plan.ctx.condition_arrays for plan in plans],
                    faults=[plan.faults for plan in plans],
                    online_masks=[plan.ctx.online_mask for plan in plans],
                )
            for i, plan, batch in zip(active, plans, batches):
                record = sims[i]._finish_round(plan, batch)
                done[i] = sims[i]._track(results[i], record)
            round_index += 1
        return results
