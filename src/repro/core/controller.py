"""The AutoFL policy: the Q-learning agent plugged into the FL aggregation server."""

from __future__ import annotations

import numpy as np

from repro.core.actions import ActionCatalog
from repro.core.agent import AutoFLAgent, QLearningConfig, VectorAutoFLAgent
from repro.core.qtable import QTableStore
from repro.core.reward import RewardCalculator, RewardWeights
from repro.core.selection import Policy, effective_num_participants
from repro.core.state import GlobalState, LocalState, StateEncoder
from repro.exceptions import PolicyError
from repro.registry import POLICIES
from repro.fl.server import RoundTrainingResult
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.results import BatchRoundExecution


@POLICIES.register("autofl")
class AutoFLPolicy(Policy):
    """AutoFL: heterogeneity-aware, energy-efficient participant and target selection.

    Every round the policy (1) observes the global configuration and each device's runtime
    conditions and data coverage, (2) asks the Q-learning agent for the K participants and
    their execution targets, and (3) after aggregation converts the measured energies and
    accuracy into per-device rewards that update the Q-tables (paper Figure 7).
    """

    name = "autofl"

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        config: QLearningConfig | None = None,
        reward_weights: RewardWeights | None = None,
        qtable_sharing: str = QTableStore.PER_TIER,
        catalog: ActionCatalog | None = None,
        vectorized: bool = False,
        init_scale: float = 0.01,
    ) -> None:
        super().__init__(rng)
        self._config = config or QLearningConfig()
        self._reward = RewardCalculator(reward_weights)
        self._qtable_sharing = qtable_sharing
        self._catalog = catalog or ActionCatalog()
        self._encoder = StateEncoder()
        self._vectorized = vectorized
        self._init_scale = init_scale
        self._agent: AutoFLAgent | VectorAutoFLAgent | None = None
        if vectorized:
            self.name = "autofl-fast"

    @property
    def vectorized(self) -> bool:
        """Whether the array-native agent hot path is in use."""
        return self._vectorized

    @property
    def agent(self) -> AutoFLAgent | VectorAutoFLAgent:
        """The underlying Q-learning agent (created on first use)."""
        if self._agent is None:
            raise PolicyError("the AutoFL agent is created on the first select() call")
        return self._agent

    def _ensure_agent(self, ctx: RoundContext) -> AutoFLAgent | VectorAutoFLAgent:
        if self._agent is None:
            if self._vectorized:
                arrays = ctx.environment.fleet_arrays
                self._agent = VectorAutoFLAgent(
                    tier_codes=arrays.tier_codes,
                    device_ids=arrays.device_ids,
                    catalog=self._catalog,
                    config=self._config,
                    qtable_sharing=self._qtable_sharing,
                    rng=self._rng,
                    init_scale=self._init_scale,
                )
            else:
                self._agent = AutoFLAgent(
                    fleet=ctx.environment.fleet,
                    catalog=self._catalog,
                    config=self._config,
                    qtable_sharing=self._qtable_sharing,
                    rng=self._rng,
                    init_scale=self._init_scale,
                )
        return self._agent

    def _encode_states(
        self, ctx: RoundContext
    ) -> tuple[GlobalState, dict[int, LocalState]]:
        environment = ctx.environment
        global_state = self._encoder.encode_global(environment.workload, environment.global_params)
        # Only online candidates are observable: the FL protocol cannot collect runtime
        # state from an unreachable device, so offline devices get no transition (and no
        # Q-update) this round.
        local_states = {
            device_id: self._encoder.encode_local(
                ctx.condition(device_id), environment.data_profile(device_id)
            )
            for device_id in ctx.candidate_ids()
        }
        return global_state, local_states

    def _candidate_rows(self, ctx: RoundContext) -> np.ndarray:
        if ctx.online_mask is None:
            return np.arange(len(ctx.environment.fleet_arrays), dtype=np.int64)
        return np.flatnonzero(ctx.online_mask)

    def select(self, ctx: RoundContext) -> SelectionDecision:
        agent = self._ensure_agent(ctx)
        if self._vectorized:
            assert isinstance(agent, VectorAutoFLAgent)
            environment = ctx.environment
            global_state = self._encoder.encode_global(
                environment.workload, environment.global_params
            )
            rows = self._candidate_rows(ctx)
            conditions = ctx.conditions_as_arrays()
            local_codes = self._encoder.encode_local_codes(
                conditions.take(rows), environment.class_fraction_array[rows]
            )
            selection = agent.select(
                global_state, rows, local_codes, effective_num_participants(ctx)
            )
        else:
            global_state, local_states = self._encode_states(ctx)
            selection = agent.select(
                global_state, local_states, effective_num_participants(ctx)
            )
        targets = {
            device_id: self._catalog.to_target(action_id, ctx.environment.fleet[device_id])
            for device_id, action_id in selection.actions.items()
        }
        return SelectionDecision(participants=selection.participant_ids, targets=targets)

    def feedback(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        training: RoundTrainingResult,
    ) -> None:
        """Turn the round's measured energies and accuracy into per-device rewards
        (paper Eq. 5-7) and hand them to the agent, straight from the batch arrays."""
        agent = self.agent
        # Per-device local energy in fleet order: participants' compute + radio +
        # waiting, everyone else their idle draw.
        fleet_local = batch.fleet_energies_j
        global_energy = batch.global_energy_j
        self._reward.observe_round(global_energy, float(np.mean(batch.participant_energies_j)))
        # Mid-round failures feed back as unreliability: a failed pick wasted energy and
        # contributed nothing, so its reward collapses to the penalty branch and the
        # Q-tables learn to avoid re-selecting devices in that (state, action).
        selected = np.zeros(len(fleet_local), dtype=bool)
        selected[batch.selected_rows] = True
        failed = np.zeros(len(fleet_local), dtype=bool)
        failed[batch.selected_rows] = batch.failed
        # Rewards land on the round's observable candidates — the devices the agent
        # holds pending transitions for (offline devices got no transition).
        rows = self._candidate_rows(ctx)
        rewards = self._reward.rewards_batch(
            global_energy_j=global_energy,
            local_energy_j=fleet_local[rows],
            accuracy=training.accuracy,
            previous_accuracy=training.previous_accuracy,
            selected=selected[rows],
            failed=failed[rows],
        )
        if isinstance(agent, AutoFLAgent):
            device_ids = ctx.environment.fleet_arrays.device_ids[rows]
            agent.record_rewards(dict(zip(device_ids.tolist(), rewards.tolist())))
        else:
            agent.record_rewards(rewards)

    def reward_history(self) -> list[float]:
        """Mean per-round reward trajectory (Figure 15 convergence analysis)."""
        if self._agent is None:
            return []
        return self._agent.reward_history


POLICIES.add(
    "autofl-fast",
    lambda rng=None, **kwargs: AutoFLPolicy(rng=rng, vectorized=True, **kwargs),
    summary="AutoFL with the vectorised (array-native) agent hot path.",
)
