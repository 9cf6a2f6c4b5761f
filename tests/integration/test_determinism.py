"""Seeded determinism of every shipped scenario preset.

Two runs of the same preset with the same seed must produce *byte-identical*
:class:`~repro.sim.results.SimulationResult` serialisations — the property the golden
store and the result cache both rest on — and a different seed must actually move the
trajectory (a constant serialisation would also pass the first check).
"""

import dataclasses
import functools
import json

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.registry import SCENARIOS
from repro.sim.scenarios import get_scenario_preset

#: Rounds per determinism run: enough for selection, faults, churn and availability to
#: all draw from their streams, small enough to keep 10k-device presets quick.
DETERMINISM_ROUNDS = 3

SHIPPED_PRESETS = tuple(SCENARIOS.names())


def _preset_spec(preset: str, seed: int) -> ExperimentSpec:
    scenario = dataclasses.replace(
        get_scenario_preset(preset), max_rounds=DETERMINISM_ROUNDS, seed=seed
    )
    return ExperimentSpec(
        scenario=scenario, policy="autofl", n_seeds=1, stop_at_convergence=False
    )


def _serialised_run(preset: str, seed: int) -> str:
    return build_simulation(_preset_spec(preset, seed)).run().to_json()


@functools.lru_cache(maxsize=None)
def _cached_run(preset: str, seed: int) -> str:
    # The different-seed comparison reuses the seed-0 trajectory; determinism itself is
    # asserted on two genuinely independent runs, never through this cache.
    return _serialised_run(preset, seed)


class TestShippedPresetDeterminism:
    def test_all_shipped_presets_are_covered(self):
        # Guards the parametrisation below against silently missing a new preset.
        assert set(SHIPPED_PRESETS) >= {
            "paper-200",
            "fleet-1k",
            "fleet-10k",
            "diurnal-1k",
            "flaky-fleet",
            "churn-heavy",
        }

    @pytest.mark.parametrize("preset", SHIPPED_PRESETS)
    def test_same_seed_is_byte_identical(self, preset):
        first = _serialised_run(preset, seed=0)
        second = _cached_run(preset, seed=0)
        assert first == second

    @pytest.mark.parametrize("preset", SHIPPED_PRESETS)
    def test_different_seed_differs(self, preset):
        assert _cached_run(preset, seed=0) != _serialised_run(preset, seed=1)


@pytest.mark.parametrize("preset", ["flaky-fleet", "diurnal-1k"])
def test_autofl_explore_rounds_serialise(preset):
    # Seed 0 takes its first exploration round at round 9 (flaky-fleet) or 5
    # (diurnal-1k); its selected ids must still be JSON-serialisable Python ints.
    scenario = dataclasses.replace(get_scenario_preset(preset), max_rounds=12, seed=0)
    spec = ExperimentSpec(scenario=scenario, policy="autofl", n_seeds=1, stop_at_convergence=False)
    result = build_simulation(spec).run()
    assert json.loads(result.to_json())["records"][9]["selected_ids"]
