"""Workloads, correctness gate and metrics of the end-to-end benchmark.

Three workloads drive the program only through public calls:

* ``fleet-100k-random`` and ``fleet-10k-autofl`` build a simulation with
  ``build_environment`` / ``make_policy`` / ``build_surrogate_backend`` and time
  ``FLSimulation.run`` in this process; their specs are also submitted through the
  CLI and served by two workers with the invariant auditors attached (``repro submit
  --validate`` → ``Scheduler.serve`` → store), which must return the same results.
* ``service-drain`` submits tens of single-spec jobs on two lanes through the CLI, one
  at a time, and drains them with two scheduler worker threads into a fresh SQLite
  ``ArtifactStore``; a fixed share repeats specs that setup pre-loaded into the store.

Every workload reports every end-to-end metric; ``README.md`` in this directory maps
each metric onto each workload and each per-layer metric onto the end-to-end metric
it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import cli, telemetry
from repro.core.selection import make_policy
from repro.experiments.runner import POLICY_SEED_OFFSET, ExperimentResult, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EVENTS_FILENAME, EventLog
from repro.service.jobs import JobState
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore
from repro.sim.bench import bench_provenance
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import build_environment, build_surrogate_backend, get_scenario_preset
from repro.telemetry import SpanTracer, write_chrome_trace
from repro.validation.golden import GOLDEN_PRESETS, GoldenStore, trajectory_rows

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("submit_ms_p50", "ms"),
    ("job_ms_p50", "ms"),
    ("drain_jobs_per_s", "1/s"),
)

#: (name, unit) of every per-layer metric, reported by every traced run.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("setup.build_environment_s", "s"),
    ("setup.fleet_arrays_s", "s"),
    ("environment.sample_ms", "ms"),
    ("environment.faults_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.feedback_ms", "ms"),
    ("round_engine.execute_ms", "ms"),
    ("results.to_execution_ms", "ms"),
    ("fl.train_ms", "ms"),
    ("runner.self_ms", "ms"),
    ("runner.round_ms", "ms"),
    ("rounds", "count"),
    ("selected_per_round", "count"),
    ("host_us_per_device_round", "us"),
    ("tracing_overhead_pct", "%"),
    ("sim_time_to_target_s", "sim_s"),
    ("sim_energy_to_target_j", "J"),
    ("cli.import_s", "s"),
    ("queue.submit_ms", "ms"),
    ("queue.claim_ms", "ms"),
    ("queue.claims", "count"),
    ("queue.empty_claims", "count"),
    ("queue.update_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("scheduler.execute_ms", "ms"),
    ("scheduler.self_ms", "ms"),
    ("scheduler.job_ms", "ms"),
    ("events.emit_ms", "ms"),
    ("events.emitted", "count"),
)

#: Scheduler worker threads of every drain (the box's core count is the ceiling).
#: A sim workload run also uses this many specs, so that each drain executes one
#: job per worker.
DRAIN_WORKERS = 2

#: Lanes the CLI submissions alternate between.
LANES: tuple[str, ...] = ("lane-a", "lane-b")

# The jobs of ``service-drain``: one spec shape with distinct seeds.
DRAIN_PRESET = "paper-200"
DRAIN_POLICY = "autofl"
DRAIN_ROUNDS = 60
#: Jobs submitted per second of ``--seconds``, at least ``DRAIN_MIN_JOBS``, spread
#: over ``DRAIN_CYCLES`` drains.
DRAIN_JOBS_PER_SECOND = 3.0
DRAIN_MIN_JOBS = 15
DRAIN_CYCLES = 3
#: Every ``DRAIN_HIT_EVERY``-th job of a cycle repeats a spec pre-loaded into the store.
DRAIN_HIT_EVERY = 5
#: Set-ups timed per cycle (the last one serves); ``setup_s`` is the median over
#: all of them.
DRAIN_SETUPS_PER_CYCLE = 3


@dataclass(frozen=True)
class SimWorkload:
    """A simulation workload: one preset scaled to a fleet size, run for a fixed budget."""

    preset: str
    devices: int
    policy: str
    rounds: int
    must_converge: bool
    tiny_devices: int
    #: Setup-only builds per untraced run, on top of the timed jobs' own setups;
    #: ``setup_s`` is the median of all of them.
    extra_setups: int

    def spec(self, seed: int, tiny: bool = False) -> ExperimentSpec:
        scenario = dataclasses.replace(
            get_scenario_preset(self.preset),
            num_devices=self.tiny_devices if tiny else self.devices,
            max_rounds=self.rounds,
            seed=seed,
        )
        return ExperimentSpec(
            scenario=scenario, policy=self.policy, stop_at_convergence=False
        ).validate()


def drain_spec(seed: int) -> ExperimentSpec:
    """The spec of one ``service-drain`` job."""
    scenario = dataclasses.replace(
        get_scenario_preset(DRAIN_PRESET), max_rounds=DRAIN_ROUNDS, seed=seed
    )
    return ExperimentSpec(
        scenario=scenario, policy=DRAIN_POLICY, stop_at_convergence=False
    ).validate()


SIM_WORKLOADS: dict[str, SimWorkload] = {
    # O(fleet) data plane: setup and per-round object construction scale with devices,
    # the random policy keeps the control plane near zero. A setup is ~4.5 s here, so
    # the timed jobs' own setups are the only ones.
    "fleet-100k-random": SimWorkload(
        preset="fleet-1k",
        devices=100_000,
        policy="random",
        rounds=12,
        must_converge=False,
        tiny_devices=2_000,
        extra_setups=0,
    ),
    # Control plane: the scalar AutoFL agent dominates; the budget leaves room for
    # every seed to reach the target accuracy (100 seeds converge by round 26).
    "fleet-10k-autofl": SimWorkload(
        preset="fleet-10k",
        devices=10_000,
        policy="autofl",
        rounds=30,
        must_converge=True,
        tiny_devices=500,
        extra_setups=6,
    ),
}

WORKLOADS: tuple[str, ...] = (*SIM_WORKLOADS, "service-drain")


# ---------------------------------------------------------------------- correctness
class Ledger:
    """Counts every attempted operation and check; failures are kept, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def check_trajectory(ledger: Ledger, label: str, rows: list[dict], reference: list[dict]) -> bool:
    """A timed run's per-round digest must equal the reference run's."""
    if rows == reference:
        return ledger.check(label, True)
    first = next(
        (index for index, (a, b) in enumerate(zip(rows, reference)) if a != b),
        min(len(rows), len(reference)),
    )
    return ledger.check(label, False, f"trajectory differs from the reference at round {first}")


def check_store_results(
    ledger: Ledger, store: ArtifactStore, expected: dict[str, ExperimentResult]
) -> None:
    """Every stored result must equal the in-process result of the same spec."""
    for spec_hash, reference in expected.items():
        stored = store.get(spec_hash)
        if stored is None:
            ledger.check(f"store row {spec_hash[:12]}", False, "missing")
        else:
            ledger.check(
                f"store row {spec_hash[:12]}",
                stored.summaries == reference.summaries,
                "stored summary differs from the in-process run",
            )


def check_goldens(ledger: Ledger) -> None:
    """The committed golden trajectories must replay bit-exactly."""
    store = GoldenStore(ROOT / "goldens")
    names = store.names()
    ledger.check(
        "committed goldens present",
        sorted(names) == sorted(GOLDEN_PRESETS),
        f"found {names}",
    )
    for name in names:
        report = store.check(name)
        ledger.check(f"golden {name}", report.ok, report.format())


# ---------------------------------------------------------------------- sim jobs
class RoundClock:
    """Round observer that only stamps the clock, giving per-round host times."""

    def __init__(self) -> None:
        self.marks: list[float] = []

    def __call__(self, **_round) -> None:
        self.marks.append(time.perf_counter())

    def durations(self, start: float) -> list[float]:
        return list(np.diff([start, *self.marks]))


@dataclass
class SimRun:
    result: object
    setup_s: float
    run_s: float
    round_s: list[float]


def run_sim(spec: ExperimentSpec, tracer: SpanTracer | None = None, run: bool = True) -> SimRun:
    """Build (and unless ``run`` is false, run) one simulation through the public
    calls, timing setup and run.

    Mirrors ``repro.experiments.runner.build_simulation`` (same seeds, same streams),
    so the result equals ``run_experiment`` of the same spec. With ``tracer`` the
    setup steps become spans and every round layer is wrapped for the run.
    """
    scenario = spec.scenario
    marks = [time.perf_counter()]
    environment = build_environment(scenario)
    marks.append(time.perf_counter())
    environment.fleet_arrays
    marks.append(time.perf_counter())
    policy = make_policy(spec.policy, rng=np.random.default_rng(scenario.seed + POLICY_SEED_OFFSET))
    marks.append(time.perf_counter())
    backend = build_surrogate_backend(environment, aggregator=scenario.aggregator)
    marks.append(time.perf_counter())
    clock = RoundClock()
    simulation = FLSimulation(
        environment=environment,
        policy=policy,
        backend=backend,
        max_rounds=scenario.max_rounds,
        stop_at_convergence=spec.stop_at_convergence,
        round_observer=clock,
    )
    marks.append(time.perf_counter())
    if tracer is not None:
        names = ("build_environment", "fleet_arrays", "policy", "backend", "simulation")
        for name, start, end in zip(names, marks, marks[1:]):
            tracer.record(f"setup.{name}", category="bench", start_s=start, end_s=end)
    if not run:
        return SimRun(None, marks[-1] - marks[0], 0.0, [])
    targets = layers.sim_targets(environment, policy, backend) if tracer is not None else []
    with layers.patched(tracer, targets):
        start = time.perf_counter()
        result = simulation.run()
        run_s = time.perf_counter() - start
    return SimRun(result, marks[-1] - marks[0], run_s, clock.durations(start))


# ---------------------------------------------------------------------- service
def _cli_args(spec: ExperimentSpec, preset: str, lane: str, validate: bool) -> list[str]:
    scenario = spec.scenario
    return [
        "submit",
        "--scenario", preset,
        "--devices", str(scenario.num_devices),
        "--rounds", str(scenario.max_rounds),
        "--seed", str(scenario.seed),
        "--policy", spec.policy,
        "--no-early-stop",
        "--lane", lane,
        "--label", f"seed-{scenario.seed}",
        *(["--validate"] if validate else []),
    ]


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in (telemetry.ENV_ENABLED, telemetry.ENV_TRACE_FILE):
        env.pop(name, None)
    return env


@dataclass
class ServiceStats:
    """What the service legs of one run measured, summed over their drains."""

    submit_s: list[float] = field(default_factory=list)
    serve_s: float = 0.0
    jobs_done: int = 0
    executed_job_s: list[float] = field(default_factory=list)
    executed_job_rounds: list[int] = field(default_factory=list)
    #: Spans of the traced service calls, plus the scheduler's own ``execute`` spans.
    spans: list = field(default_factory=list)


class Service:
    """One fresh service root: job queue, event log and SQLite ``ArtifactStore``.

    Jobs enter through the CLI, one submission at a time (closed loop, one client):
    untraced, each is a fresh ``python -m repro submit`` process, so its wall time
    includes interpreter start-up and the CLI import; traced, the same CLI entry point
    runs in this process so the queue and event-log spans are visible. ``drain`` runs
    ``Scheduler.serve(drain=True)`` over everything submitted since the last drain.
    """

    def __init__(self, root: Path, store: ArtifactStore, stats: ServiceStats,
                 ledger: Ledger, tracer: SpanTracer | None, work: Path) -> None:
        self.root = root
        self.store = store
        self.stats = stats
        self.ledger = ledger
        self.tracer = tracer
        self.work = work
        self.pending: list[ExperimentSpec] = []

    @classmethod
    def create(cls, root: Path, preload: list[ExperimentResult], stats: ServiceStats,
               ledger: Ledger, tracer: SpanTracer | None, work: Path) -> "Service":
        """A fresh queue, event log and SQLite store holding the pre-loaded results."""
        shutil.rmtree(root, ignore_errors=True)
        JobQueue(root / "queue")
        EventLog(root / EVENTS_FILENAME)
        store = ArtifactStore(root / "store.sqlite")
        for result in preload:
            store.put(result)
        return cls(root, store, stats, ledger, tracer, work)

    def _traced_calls(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return layers.patched(self.tracer, layers.service_targets())

    def submit(
        self, spec: ExperimentSpec, preset: str, lane: str, validate: bool = False
    ) -> None:
        argv = [*_cli_args(spec, preset, lane, validate), "--root", str(self.root)]
        start = time.perf_counter()
        if self.tracer is not None:
            with self._traced_calls(), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                cwd=self.work,
                env=_subprocess_env(),
                capture_output=True,
                timeout=120,
                check=False,
            ).returncode
        self.stats.submit_s.append(time.perf_counter() - start)
        self.pending.append(spec)
        self.ledger.check(f"submit seed {spec.scenario.seed}", code == 0, f"exit code {code}")

    def take_queued(self) -> dict:
        """The queued jobs by id; they must carry exactly the specs submitted since
        the last call."""
        queue = JobQueue(self.root / "queue")
        queued = {job.job_id: job for job in queue.jobs((JobState.QUEUED,))}
        self.ledger.check(
            "CLI submissions carry the benchmark's specs",
            sorted(job.specs[0].spec_hash() for job in queued.values())
            == sorted(spec.spec_hash() for spec in self.pending),
        )
        self.pending = []
        return queued

    def drain(self, workers: int, expected_hits: int) -> None:
        queued = self.take_queued()
        queue = JobQueue(self.root / "queue")
        events = EventLog(self.root / EVENTS_FILENAME)
        seen = len(events.read())
        scheduler = Scheduler(queue=queue, store=self.store, events=events)
        if self.tracer is not None:
            # The scheduler records its `execute` spans on the process-wide tracer.
            telemetry.configure(enabled=True, propagate_env=False)
        try:
            with self._traced_calls():
                start = time.perf_counter()
                scheduler.serve(workers=workers, drain=True, install_signals=False)
                self.stats.serve_s += time.perf_counter() - start
            if self.tracer is not None:
                self.stats.spans.extend(
                    span for span in telemetry.get_tracer().spans() if span.name == "execute"
                )
        finally:
            if self.tracer is not None:
                telemetry.reset()

        for job_id in queued:
            state = queue.get(job_id).state
            self.ledger.check(f"job {job_id} done", state is JobState.DONE, state.value)
        # Specs run their whole round budget (no early stop), so a job's rounds are known.
        rounds = {job_id: job.specs[0].scenario.max_rounds for job_id, job in queued.items()}
        hits = 0
        for event in events.read()[seen:]:
            if event["event"] == "job_done":
                self.stats.jobs_done += 1
                if event.get("executed", 0) > 0:
                    self.stats.executed_job_s.append(event["dur_s"])
                    self.stats.executed_job_rounds.append(rounds[event["job_id"]])
            elif event["event"] == "spec_cached":
                hits += 1
        self.ledger.check("cache hits", hits == expected_hits, f"{hits} != {expected_hits}")


# ---------------------------------------------------------------------- workloads
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _peak_rss_mb() -> float:
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def cli_import_s(work: Path, samples: int = 3) -> float:
    """Median time for a fresh interpreter to import ``repro.cli``."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    values = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=work,
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        values.append(float(out.stdout.strip()))
    return _median(values)


@dataclass
class Outcome:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    notes: list[str]
    spans: list


def _service_layers(spans: list) -> dict[str, float]:
    claim_spans = [span for span in spans if span.name == "queue.claim"]
    gets = [span for span in spans if span.name == "store.get"]
    emits, emit_ms = layers.call_stats(spans, "events.emit")
    jobs = layers.job_breakdown(spans)
    return {
        "queue.submit_ms": layers.call_stats(spans, "queue.submit")[1],
        "queue.claim_ms": layers.call_stats(spans, "queue.claim")[1],
        "queue.claims": float(sum(1 for span in claim_spans if span.attrs.get("job"))),
        "queue.empty_claims": float(sum(1 for span in claim_spans if not span.attrs.get("job"))),
        "queue.update_ms": layers.call_stats(spans, "queue.update")[1],
        "store.get_ms": layers.call_stats(spans, "store.get")[1],
        "store.put_ms": layers.call_stats(spans, "store.put")[1],
        "store.hits": float(sum(1 for span in gets if span.attrs.get("hit"))),
        "store.misses": float(sum(1 for span in gets if not span.attrs.get("hit"))),
        "scheduler.execute_ms": layers.call_stats(spans, "execute")[1],
        "scheduler.self_ms": jobs["ms"]["scheduler.self"],
        "scheduler.job_ms": jobs["ms"]["scheduler.job"],
        "events.emit_ms": emit_ms,
        "events.emitted": float(emits),
    }


def _sim_layers(spans: list, num_devices: int, selected: float) -> dict[str, float]:
    breakdown = layers.round_breakdown(spans)
    phase = breakdown["ms"]
    return {
        "setup.build_environment_s": layers.call_stats(spans, "setup.build_environment")[1] / 1e3,
        "setup.fleet_arrays_s": layers.call_stats(spans, "setup.fleet_arrays")[1] / 1e3,
        "environment.sample_ms": phase["environment.sample"],
        "environment.faults_ms": phase["environment.faults"],
        "core.select_ms": phase["core.select"],
        "core.feedback_ms": phase["core.feedback"],
        "round_engine.execute_ms": phase["round_engine.execute"],
        "results.to_execution_ms": phase["results.to_execution"],
        "fl.train_ms": phase["fl.train"],
        "runner.self_ms": phase["runner.self"],
        "runner.round_ms": phase["runner.round"],
        "rounds": float(breakdown["rounds"]),
        "selected_per_round": selected,
        "host_us_per_device_round": 1000.0 * phase["runner.round"] / num_devices,
    }


def _service_end_to_end(stats: ServiceStats) -> dict[str, float]:
    return {
        "peak_rss_mb": _peak_rss_mb(),
        "submit_ms_p50": 1000.0 * _median(stats.submit_s),
        "job_ms_p50": 1000.0 * _median(stats.executed_job_s),
        "drain_jobs_per_s": stats.jobs_done / stats.serve_s,
    }


def _mean_selected(result) -> float:
    return float(np.mean([len(record.selected_ids) for record in result.records]))


def run_sim_workload(
    name: str, seed: int, seconds: float, traced: bool, tiny: bool, ledger: Ledger, work: Path
) -> Outcome:
    """Timed in-process jobs, and the same specs executed by the service with the
    invariant auditors attached.

    A run uses ``DRAIN_WORKERS`` specs of distinct seeds. It submits every spec
    through the CLI with ``--validate``, times a first in-process job, and drains the
    submissions with ``DRAIN_WORKERS`` workers into a fresh store, so every worker
    executes one spec. The setup-only builds sit on both sides of the drain. More
    timed jobs follow, alternating between the specs, until every spec is timed and
    the timed jobs add up to ``seconds``; then every spec is submitted once more. So
    the work samples the machine at several moments. Traced, a run has one spec,
    with the traced job after the timed one.
    """
    workload = SIM_WORKLOADS[name]
    specs = [
        workload.spec(DRAIN_WORKERS * seed + index, tiny=tiny)
        for index in range(1 if traced else DRAIN_WORKERS)
    ]
    tracer = SpanTracer(enabled=True, max_spans=1_000_000) if traced else None
    stats = ServiceStats()
    timed: list[tuple[ExperimentSpec, SimRun]] = []
    setups: list[float] = []

    def timed_job() -> None:
        spec = specs[len(timed) % len(specs)]
        timed.append((spec, run_sim(spec)))
        setups.append(timed[-1][1].setup_s)
        gc.collect()

    def setup_only(count: int) -> None:
        for _ in range(count):
            setups.append(run_sim(specs[0], run=False).setup_s)
            gc.collect()

    service = Service.create(work / "service", [], stats, ledger, tracer, work)
    for index, spec in enumerate(specs):
        service.submit(spec, workload.preset, LANES[index % len(LANES)], validate=True)
    timed_job()
    traced_run = None
    if traced:
        traced_run = run_sim(specs[0], tracer=tracer)
        gc.collect()
    setup_only(workload.extra_setups // 2)
    service.drain(workers=DRAIN_WORKERS, expected_hits=0)
    setup_only(workload.extra_setups - workload.extra_setups // 2)
    while not traced and (
        len(timed) < len(specs) or sum(run.setup_s + run.run_s for _, run in timed) < seconds
    ):
        timed_job()
    # The specs are submitted again at the end of the run, into a root that is never
    # drained, so that submit_ms_p50 samples both ends of the run.
    tail = Service.create(work / "service-tail", [], stats, ledger, tracer, work)
    for index, spec in enumerate(specs):
        tail.submit(spec, workload.preset, LANES[index % len(LANES)], validate=True)
    tail.take_queued()
    tail.store.close()

    # The first timed job of each spec is its reference: later jobs of that spec
    # (and the traced one) must repeat its trajectory, and the audited service runs
    # must return its summary.
    references: dict[str, tuple[object, list[dict]]] = {}
    checked = timed + ([(specs[0], traced_run)] if traced_run is not None else [])
    for index, (spec, run) in enumerate(checked):
        key = spec.spec_hash()
        if key not in references:
            references[key] = (run.result, trajectory_rows(run.result))
            continue
        label = "traced job" if run is traced_run else f"timed job {index}"
        check_trajectory(
            ledger, f"{label} trajectory", trajectory_rows(run.result), references[key][1]
        )
    if workload.must_converge:
        for spec in specs:
            ledger.check(
                f"seed {spec.scenario.seed} reaches the target accuracy",
                references[spec.spec_hash()][0].converged_round is not None,
                f"no convergence in {spec.scenario.max_rounds} rounds",
            )
    check_goldens(ledger)
    expected = {
        spec.spec_hash(): ExperimentResult(
            spec=spec, summaries=(references[spec.spec_hash()][0].summary(),)
        )
        for spec in specs
    }
    check_store_results(ledger, service.store, expected)
    service.store.close()

    runs = [run for _, run in timed]
    round_s = [duration for run in runs for duration in run.round_s]
    end_to_end = {
        "setup_s": _median(setups),
        "rounds_per_s": len(round_s) / sum(run.run_s for run in runs),
        "round_ms_p50": 1000.0 * _median(round_s),
        **_service_end_to_end(stats),
    }
    notes = _percentile_notes("round_ms", [1000.0 * value for value in round_s])
    notes += _percentile_notes("job_ms", [1000.0 * value for value in stats.executed_job_s])
    notes.append(f"setup_s: median of {len(setups)} setups")
    for spec in specs:
        result = references[spec.spec_hash()][0]
        summary = result.summary()
        notes.append(
            f"seed {spec.scenario.seed}: sim_time_to_target_s {summary.convergence_time_s!r} s, "
            f"sim_energy_to_target_j {summary.global_energy_j!r} J, "
            f"converged_round {result.converged_round}"
        )
    if not traced:
        return Outcome(end_to_end, {}, notes, [])
    result = references[specs[0].spec_hash()][0]
    summary = result.summary()
    spans = tracer.spans() + stats.spans
    traced_rps = len(traced_run.round_s) / traced_run.run_s
    per_layer = {
        **_sim_layers(spans, specs[0].scenario.num_devices, _mean_selected(result)),
        "tracing_overhead_pct": 100.0 * (1.0 - traced_rps / end_to_end["rounds_per_s"]),
        "sim_time_to_target_s": summary.convergence_time_s,
        "sim_energy_to_target_j": summary.global_energy_j,
        "cli.import_s": cli_import_s(work),
        **_service_layers(spans),
    }
    return Outcome(end_to_end, per_layer, notes + _breakdown_notes(spans), spans)


def drain_cycles(
    seed: int, n_jobs: int
) -> list[tuple[list[ExperimentSpec], list[tuple[ExperimentSpec, str]]]]:
    """Per cycle of one run: (specs pre-loaded into its store, (spec, lane) submissions).

    Every ``DRAIN_HIT_EVERY``-th job of a cycle repeats one of the cycle's pre-loaded
    specs; the others get fresh seeds. Jobs alternate between the lanes.
    """
    per_cycle = n_jobs // DRAIN_CYCLES
    seeds = itertools.count(1_000 * (seed + 1))
    cycles = []
    for _ in range(DRAIN_CYCLES):
        preload = [drain_spec(next(seeds)) for _ in range(per_cycle // DRAIN_HIT_EVERY)]
        hits = iter(preload)
        submissions = [
            (
                next(hits) if (index + 1) % DRAIN_HIT_EVERY == 0 else drain_spec(next(seeds)),
                LANES[index % len(LANES)],
            )
            for index in range(per_cycle)
        ]
        cycles.append((preload, submissions))
    return cycles


def run_drain_workload(
    name: str, seed: int, seconds: float, traced: bool, tiny: bool, ledger: Ledger, work: Path
) -> Outcome:
    """Cycles of: timed set-ups of a pre-loaded service root, CLI submissions, a
    two-worker drain, then the in-process ``run_experiment`` references the store
    must equal."""
    tracer = SpanTracer(enabled=True, max_spans=1_000_000) if traced else None
    n_jobs = DRAIN_MIN_JOBS if tiny else max(DRAIN_MIN_JOBS, int(DRAIN_JOBS_PER_SECOND * seconds))
    stats = ServiceStats()
    setups: list[float] = []
    fresh: dict[str, ExperimentResult] = {}
    for cycle, (preload_specs, submissions) in enumerate(drain_cycles(seed, n_jobs)):
        # A set-up makes the cycle's pre-loaded results in process and puts them
        # into a fresh service root; the last one serves.
        for attempt in range(DRAIN_SETUPS_PER_CYCLE):
            start = time.perf_counter()
            preload = [run_experiment(spec) for spec in preload_specs]
            service = Service.create(
                work / f"service-{cycle}-{attempt}", preload, stats, ledger, tracer, work
            )
            setups.append(time.perf_counter() - start)
            if attempt + 1 < DRAIN_SETUPS_PER_CYCLE:
                service.store.close()
        preloaded = {spec.spec_hash() for spec in preload_specs}
        for spec, lane in submissions:
            service.submit(spec, DRAIN_PRESET, lane)
        n_hits = sum(spec.spec_hash() in preloaded for spec, _ in submissions)
        service.drain(workers=DRAIN_WORKERS, expected_hits=n_hits)
        # References after the drain, so they never share its CPU.
        cycle_fresh = {
            spec.spec_hash(): run_experiment(spec)
            for spec, _ in submissions
            if spec.spec_hash() not in preloaded
        }
        check_store_results(
            ledger, service.store, {**{r.spec.spec_hash(): r for r in preload}, **cycle_fresh}
        )
        service.store.close()
        fresh.update(cycle_fresh)
    check_goldens(ledger)

    end_to_end = {
        "setup_s": _median(setups),
        "rounds_per_s": sum(stats.executed_job_rounds) / stats.serve_s,
        "round_ms_p50": _median([
            1000.0 * dur / rounds
            for dur, rounds in zip(stats.executed_job_s, stats.executed_job_rounds)
        ]),
        **_service_end_to_end(stats),
    }
    notes = _percentile_notes("submit_ms", [1000.0 * value for value in stats.submit_s])
    notes += _percentile_notes("job_ms", [1000.0 * value for value in stats.executed_job_s])
    summaries = [result.summaries[0] for result in fresh.values()]
    sim_time = float(np.mean([summary.convergence_time_s for summary in summaries]))
    sim_energy = float(np.mean([summary.global_energy_j for summary in summaries]))
    notes.append(
        f"sim_time_to_target_s {sim_time!r} s, sim_energy_to_target_j {sim_energy!r} J "
        f"(mean of {len(summaries)} executed jobs)"
    )
    if not traced:
        return Outcome(end_to_end, {}, notes, [])
    # Sim layers of the executed specs, run in-process through the public calls; each
    # traced run must equal its run_experiment reference too.
    untraced_s = traced_s = 0.0
    selected = []
    for spec_hash, reference in fresh.items():
        spec = reference.spec
        untraced_s += run_sim(spec).run_s
        observed = run_sim(spec, tracer=tracer)
        traced_s += observed.run_s
        selected.append(_mean_selected(observed.result))
        ledger.check(
            f"traced run of seed {spec.scenario.seed} equals run_experiment",
            (observed.result.summary(),) == reference.summaries,
        )
    spans = tracer.spans() + stats.spans
    num_devices = next(iter(fresh.values())).spec.scenario.num_devices
    per_layer = {
        **_sim_layers(spans, num_devices, float(np.mean(selected))),
        "tracing_overhead_pct": 100.0 * (1.0 - untraced_s / traced_s),
        "sim_time_to_target_s": sim_time,
        "sim_energy_to_target_j": sim_energy,
        "cli.import_s": cli_import_s(work),
        **_service_layers(spans),
    }
    return Outcome(end_to_end, per_layer, notes + _breakdown_notes(spans), spans)


# ---------------------------------------------------------------------- reporting
def _percentile_notes(label: str, samples: list[float]) -> list[str]:
    """Median plus every higher percentile with at least ten samples beyond it."""
    if not samples:
        return [f"{label}: no samples"]
    ordered = sorted(samples)
    parts = [f"p50 {statistics.median(ordered):.3f}"]
    for pct in (90, 99):
        if len(ordered) * (100 - pct) / 100 >= 10:
            parts.append(f"p{pct} {float(np.percentile(ordered, pct)):.3f}")
    return [f"{label}: {', '.join(parts)} (n={len(ordered)})"]


def _breakdown_notes(spans: list) -> list[str]:
    notes = []
    rounds = layers.round_breakdown(spans)
    if rounds["rounds"]:
        ms = rounds["ms"]
        parts = ", ".join(f"{name} {ms[name]:.3f}" for name in (*layers.ROUND_PHASES, "runner.self"))
        total = sum(ms[name] for name in (*layers.ROUND_PHASES, "runner.self"))
        notes.append(f"traced round (ms/round, n={rounds['rounds']}): {parts}")
        notes.append(f"  phases + residual = {total:.3f} ms; measured round = {ms['runner.round']:.3f} ms")
    jobs = layers.job_breakdown(spans)
    if jobs["jobs"]:
        ms = jobs["ms"]
        parts = ", ".join(f"{name} {ms[name]:.3f}" for name in (*layers.JOB_PHASES, "scheduler.self"))
        total = sum(ms[name] for name in (*layers.JOB_PHASES, "scheduler.self"))
        notes.append(f"traced job (ms/job, n={jobs['jobs']}): {parts}")
        notes.append(f"  phases + residual = {total:.3f} ms; measured job = {ms['scheduler.job']:.3f} ms")
    return notes


def write_trace(spans: list, stem: Path) -> None:
    """Spans as JSONL (for ``repro trace --spans``) and as a Chrome trace."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    write_chrome_trace(spans, stem.with_suffix(".trace.json"))


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, out: Path) -> dict:
    """Run one workload, print its report and return the JSON result object."""
    work = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        runner = run_sim_workload if workload in SIM_WORKLOADS else run_drain_workload
        outcome = runner(workload, seed, seconds, trace, tiny, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = PER_LAYER if trace else END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in declared}
    provenance = {**bench_provenance(), "nproc": os.cpu_count()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": "tiny" if tiny else "full",
        "provenance": provenance,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "notes": outcome.notes,
        "failures": ledger.failures,
    }
    stem = out / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if trace:
        write_trace(outcome.spans, stem)

    print(f"workload {workload} seed {seed} trace {int(trace)} ({record['scale']})")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"  {name:<28} {outcome.end_to_end[name]:>16.6f} {unit}")
    for name, unit in PER_LAYER if trace else ():
        print(f"  {name:<28} {outcome.per_layer[name]:>16.6f} {unit}")
    for note in outcome.notes:
        print(f"  {note}")
    failed_frac = len(ledger.failures) / max(1, ledger.attempted)
    print(f"  failed_frac {failed_frac} ({len(ledger.failures)} of {ledger.attempted})")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
