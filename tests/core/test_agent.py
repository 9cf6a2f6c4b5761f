"""Tests for the Q-learning agent (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.actions import IDLE_ACTION
from repro.core.agent import AutoFLAgent, QLearningConfig
from repro.core.qtable import QTableStore
from repro.core.state import GlobalState, LocalState
from repro.exceptions import PolicyError

GLOBAL_STATE = GlobalState(0, 0, 0, 1, 1, 1)
GOOD_LOCAL = LocalState(0, 0, 0, 2)
BAD_LOCAL = LocalState(3, 3, 1, 0)


def _make_agent(small_fleet, epsilon=0.0, sharing=QTableStore.PER_TIER, seed=0):
    return AutoFLAgent(
        fleet=small_fleet,
        config=QLearningConfig(epsilon=epsilon),
        qtable_sharing=sharing,
        rng=np.random.default_rng(seed),
    )


def _local_states(small_fleet, bad_ids=()):
    return {
        device.device_id: (BAD_LOCAL if device.device_id in bad_ids else GOOD_LOCAL)
        for device in small_fleet
    }


class TestQLearningConfig:
    def test_paper_defaults(self):
        config = QLearningConfig()
        assert config.learning_rate == pytest.approx(0.9)
        assert config.discount_factor == pytest.approx(0.1)
        assert config.epsilon == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(PolicyError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(PolicyError):
            QLearningConfig(discount_factor=1.0)
        with pytest.raises(PolicyError):
            QLearningConfig(epsilon=1.5)


class TestAgentSelection:
    def test_selects_requested_number_of_participants(self, small_fleet):
        agent = _make_agent(small_fleet)
        selection = agent.select(GLOBAL_STATE, _local_states(small_fleet), 5)
        assert len(selection.participant_ids) == 5
        assert set(selection.actions) == set(selection.participant_ids)
        assert all(
            action in agent.catalog.action_ids for action in selection.actions.values()
        )

    def test_exploration_round_returns_python_ints(self, small_fleet):
        # Explore-round ids end up in RoundRecord.selected_ids, which must serialise.
        agent = _make_agent(small_fleet, epsilon=1.0)
        selection = agent.select(GLOBAL_STATE, _local_states(small_fleet), 5)
        assert selection.explored
        assert all(type(device_id) is int for device_id in selection.participant_ids)
        assert all(type(device_id) is int for device_id in selection.actions)

    def test_exploration_round_is_random(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=1.0)
        selection = agent.select(GLOBAL_STATE, _local_states(small_fleet), 5)
        assert selection.explored

    def test_too_few_devices_rejected(self, small_fleet):
        agent = _make_agent(small_fleet)
        with pytest.raises(PolicyError):
            agent.select(GLOBAL_STATE, {0: GOOD_LOCAL}, 5)
        with pytest.raises(PolicyError):
            agent.select(GLOBAL_STATE, _local_states(small_fleet), 0)

    def test_record_rewards_requires_pending(self, small_fleet):
        agent = _make_agent(small_fleet)
        with pytest.raises(PolicyError):
            agent.record_rewards({0: 1.0})


class TestAgentLearning:
    def test_rewarded_devices_get_reselected(self, small_fleet):
        """Devices whose participation earned high rewards should dominate later rounds."""
        agent = _make_agent(small_fleet, epsilon=0.0, sharing=QTableStore.PER_DEVICE)
        states = _local_states(small_fleet)
        first = agent.select(GLOBAL_STATE, states, 5)
        rewards = {
            device_id: (50.0 if device_id in first.participant_ids else 0.0)
            for device_id in states
        }
        agent.record_rewards(rewards)
        second = agent.select(GLOBAL_STATE, states, 5)
        assert set(second.participant_ids) == set(first.participant_ids)

    def test_penalised_state_gets_avoided(self, small_fleet):
        """With tier-shared tables, a penalised (tier, local-state) pair is avoided."""
        agent = _make_agent(small_fleet, epsilon=0.0)
        bad_ids = set(small_fleet.device_ids[:10])
        states = _local_states(small_fleet, bad_ids=bad_ids)
        for _ in range(6):
            selection = agent.select(GLOBAL_STATE, states, 5)
            rewards = {}
            for device_id in states:
                if device_id in selection.participant_ids:
                    rewards[device_id] = -90.0 if device_id in bad_ids else 40.0
                else:
                    rewards[device_id] = 5.0
            agent.record_rewards(rewards)
        final = agent.select(GLOBAL_STATE, states, 5)
        assert not (set(final.participant_ids) & bad_ids)

    def test_q_update_moves_toward_reward(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        states = _local_states(small_fleet)
        selection = agent.select(GLOBAL_STATE, states, 3)
        chosen = selection.participant_ids[0]
        action = selection.actions[chosen]
        agent.record_rewards({device_id: 10.0 for device_id in states})
        # The update is applied lazily at the next select() when S' is observed.
        agent.select(GLOBAL_STATE, states, 3)
        table = agent.qtable_store.table_for(chosen, small_fleet[chosen].tier)
        assert table.get(GLOBAL_STATE, GOOD_LOCAL, action) > 5.0

    def test_q_update_survives_device_going_offline(self, small_fleet):
        # Under fleet dynamics a device that failed mid-round is often also offline the
        # next round; its (penalty) reward must still reach the Q-table, bootstrapped
        # from the stored state instead of being dropped.
        agent = _make_agent(small_fleet, epsilon=0.0, sharing=QTableStore.PER_DEVICE)
        states = _local_states(small_fleet)
        selection = agent.select(GLOBAL_STATE, states, 3)
        chosen = selection.participant_ids[0]
        action = selection.actions[chosen]
        agent.record_rewards({device_id: -50.0 for device_id in states})
        # Next round the chosen device is unobservable (offline/churned).
        next_states = {
            device_id: state for device_id, state in states.items() if device_id != chosen
        }
        agent.select(GLOBAL_STATE, next_states, 3)
        table = agent.qtable_store.table_for(chosen, small_fleet[chosen].tier)
        assert table.get(GLOBAL_STATE, GOOD_LOCAL, action) < -20.0

    def test_reward_history_tracks_rounds(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        states = _local_states(small_fleet)
        for value in (1.0, 2.0, 3.0):
            agent.select(GLOBAL_STATE, states, 4)
            agent.record_rewards({device_id: value for device_id in states})
        assert agent.reward_history == [1.0, 2.0, 3.0]

    def test_flush_completes_pending_updates(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        states = _local_states(small_fleet)
        selection = agent.select(GLOBAL_STATE, states, 3)
        agent.record_rewards({device_id: 20.0 for device_id in states})
        agent.flush()
        chosen = selection.participant_ids[0]
        table = agent.qtable_store.table_for(chosen, small_fleet[chosen].tier)
        assert table.get(GLOBAL_STATE, GOOD_LOCAL, selection.actions[chosen]) > 10.0

    def test_idle_action_tracked_separately(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        states = _local_states(small_fleet)
        selection = agent.select(GLOBAL_STATE, states, 3)
        agent.record_rewards({device_id: 15.0 for device_id in states})
        agent.select(GLOBAL_STATE, states, 3)
        idle_device = next(
            device_id for device_id in states if device_id not in selection.participant_ids
        )
        table = agent.qtable_store.table_for(idle_device, small_fleet[idle_device].tier)
        assert table.get(GLOBAL_STATE, GOOD_LOCAL, IDLE_ACTION) > 5.0

    def test_per_device_sharing_keeps_tables_separate(self, small_fleet):
        agent = _make_agent(small_fleet, sharing=QTableStore.PER_DEVICE)
        states = _local_states(small_fleet)
        agent.select(GLOBAL_STATE, states, 3)
        agent.record_rewards({device_id: 1.0 for device_id in states})
        agent.select(GLOBAL_STATE, states, 3)
        assert agent.qtable_store.num_tables == len(small_fleet)
