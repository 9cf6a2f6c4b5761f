"""Cross-commit pins of long trajectories for the learning and baseline policies.

The committed goldens cover five rounds of ``autofl`` only.  These digests pin 40-round,
seed-0 trajectories of ``autofl``, ``autofl-fast`` and ``random`` on four presets, plus the
Figure 12 prediction-accuracy reports, so a refactor of the round path (record assembly,
reward feedback, replicate axis) that shifts a single float in any round fails here.

The expected values were recorded before the round path was rebuilt on
:class:`~repro.sim.results.BatchRoundExecution`; they must never be re-recorded to make a
refactor pass.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.harness import run_with_reference
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import ScenarioSpec, get_scenario_preset
from repro.validation.golden import trajectory_rows

ROUNDS = 40

#: sha256 of ``json.dumps(trajectory_rows(result), sort_keys=True)``.
TRAJECTORY_DIGESTS = {
    ("flaky-fleet", "autofl"): "1dfe1bb50bfc843eb8d56fe0e4ac7a988dd5c2174be74612fc72410cdf5778af",
    ("flaky-fleet", "autofl-fast"): "ae305a2dfb3f672c35bfddba035ce0c218d16696ce948863b3de5a8551deddd0",
    ("flaky-fleet", "random"): "dd8f56f53a32274a696a0d10cc47eafd19b4f732faf421a7fa4a924855104581",
    ("churn-heavy", "autofl"): "9fabd9e4ef7432c38e6b97d6e0684db43bc4fb66387d72ee30bb1e85f0e0c8b0",
    ("churn-heavy", "autofl-fast"): "4ce80dfee0f247b1114ecbe47fa2a2cb46ba1291666aecb783a6abcd58b4c362",
    ("churn-heavy", "random"): "ba5d73d846dabbbd6323487431f7d77248bcf6501fddf7252ef684d20b761f98",
    ("diurnal-1k", "autofl"): "f95d5475944cde7c52446f3cc4b79f186f6623324cf08d1118857dcefa48f34b",
    ("diurnal-1k", "autofl-fast"): "17525cfd6462c58bf0dac1464abe2ad57cf9cc954ff20c4fc9065dc8fc01094a",
    ("diurnal-1k", "random"): "d77946f1d54c0d55970bd5199f0d2e305be0ebe4e05d99c7e7a0a2535495a542",
    ("paper-200", "autofl"): "71263a409d875742cb737d6a93fb7da5a7b073d270a172cd5d776a39f06d6e9e",
    ("paper-200", "autofl-fast"): "7bfa0486cc1ccc9d89aa44e88835bc0b8fb2244f242c369a96de6f5fadb96f4b",
    ("paper-200", "random"): "ba3395bd4bac0dc7dc32bcf2d22113679f36655151ac20f0647a9ab176c44b37",
}

#: sha256 of ``json.dumps(asdict(report), sort_keys=True)`` for the Figure 12 spec.
FIGURE12_DIGESTS = {
    "cnn-mnist": "80a5676fec4e966cc5474a49cfa84e320c49094af0aacadff508f243e72f7391",
    "lstm-shakespeare": "f207bce9f267412b8abbfe7c3e7a53528b7a26d2f94c400ddbbf13f375de471f",
}


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("preset", "policy"), sorted(TRAJECTORY_DIGESTS))
def test_forty_round_trajectory_digest(preset, policy):
    scenario = dataclasses.replace(get_scenario_preset(preset), max_rounds=ROUNDS, seed=0)
    spec = ExperimentSpec(
        scenario=scenario, policy=policy, n_seeds=1, stop_at_convergence=False
    )
    result = build_simulation(spec).run()
    assert result.num_rounds == ROUNDS
    assert _sha256(trajectory_rows(result)) == TRAJECTORY_DIGESTS[(preset, policy)]


@pytest.mark.parametrize("workload", sorted(FIGURE12_DIGESTS))
def test_figure12_reference_report_digest(workload):
    # The Figure 12 benchmark's spec (benchmarks/test_figure12_prediction_accuracy.py).
    spec = ScenarioSpec(
        workload=workload,
        setting="S3",
        interference="moderate",
        network="variable",
        data_distribution="non_iid_50",
        num_devices=100,
        max_rounds=200,
        seed=5,
    )
    report = run_with_reference(spec, policy_name="autofl", reference_name="ofl", rounds=80)
    assert _sha256(dataclasses.asdict(report)) == FIGURE12_DIGESTS[workload]
