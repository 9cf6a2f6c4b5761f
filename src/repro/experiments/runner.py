"""Batch execution of declarative experiments: executors, caching and the result store.

A :class:`BatchRunner` takes a :class:`~repro.experiments.spec.Sweep` (or any iterable of
:class:`~repro.experiments.spec.ExperimentSpec`) and produces one
:class:`ExperimentResult` per grid point.  Points whose spec hash is already present in
the :class:`ResultStore` are served from cache — a re-run of an already-computed grid is
near-instant — and the misses fan out over a pluggable executor (serial, or one worker
process per core via :class:`MultiprocessExecutor`).
"""

from __future__ import annotations

import json
import os
import time
import traceback
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.selection import make_policy
from repro.exceptions import ConfigurationError, ExecutionError
from repro.experiments.spec import SPEC_SCHEMA_VERSION, ExperimentSpec, Sweep
from repro.fl.metrics import EfficiencySummary
from repro.sim.runner import FLSimulation, RoundObserver
from repro.sim.scenarios import build_environment, build_surrogate_backend

#: Bumped whenever the stored result payload's shape changes.
RESULT_SCHEMA_VERSION = 1

#: Default on-disk location of the JSONL result store (relative to the working directory).
DEFAULT_STORE_PATH = Path(".repro-results") / "results.jsonl"

#: Offset between the scenario seed and the policy RNG stream (kept distinct from the
#: environment and backend streams; mirrors the original harness seeding).
POLICY_SEED_OFFSET = 10_000


class StaleResultWarning(UserWarning):
    """A result-store entry was skipped because its spec schema is not the current one."""


def build_simulation(
    spec: ExperimentSpec, round_observer: RoundObserver | None = None
) -> FLSimulation:
    """Construct the ready-to-run simulation for one (single-seed) experiment spec.

    ``round_observer`` is forwarded to :class:`FLSimulation` — the validation subsystem
    attaches its invariant auditors here without touching the seeded RNG streams.
    """
    spec.validate()
    scenario = spec.scenario
    environment = build_environment(scenario)
    backend = build_surrogate_backend(environment, aggregator=scenario.aggregator)
    policy = make_policy(
        spec.policy, rng=np.random.default_rng(scenario.seed + POLICY_SEED_OFFSET)
    )
    return FLSimulation(
        environment=environment,
        policy=policy,
        backend=backend,
        max_rounds=scenario.max_rounds,
        stop_at_convergence=spec.stop_at_convergence,
        round_observer=round_observer,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of one experiment spec (averaged over its seed replicas)."""

    spec: ExperimentSpec
    summaries: tuple[EfficiencySummary, ...]
    elapsed_s: float = 0.0
    cached: bool = False

    def __post_init__(self) -> None:
        if not self.summaries:
            raise ConfigurationError("an experiment result needs at least one summary")

    # ------------------------------------------------------------------ averaged metrics
    @property
    def n_seeds(self) -> int:
        """Number of seed replicas aggregated in this result."""
        return len(self.summaries)

    @property
    def convergence_rate(self) -> float:
        """Fraction of seed replicas that reached the target accuracy."""
        return sum(summary.converged for summary in self.summaries) / self.n_seeds

    @property
    def mean_final_accuracy(self) -> float:
        """Final accuracy averaged over the seed replicas."""
        return float(np.mean([summary.final_accuracy for summary in self.summaries]))

    @property
    def mean_rounds(self) -> float:
        """Executed rounds averaged over the seed replicas."""
        return float(np.mean([summary.rounds_executed for summary in self.summaries]))

    @property
    def mean_convergence_time_s(self) -> float:
        """Convergence-reference time averaged over the seed replicas."""
        return float(
            np.mean([summary.convergence_speedup_reference_s for summary in self.summaries])
        )

    @property
    def mean_participant_energy_j(self) -> float:
        """Participant energy averaged over the seed replicas."""
        return float(np.mean([summary.participant_energy_j for summary in self.summaries]))

    @property
    def mean_global_energy_j(self) -> float:
        """Population-wide energy averaged over the seed replicas."""
        return float(np.mean([summary.global_energy_j for summary in self.summaries]))

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> dict:
        """JSON-serialisable payload (the result-store line body)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "hash": self.spec.spec_hash(),
            "spec": self.spec.to_dict(),
            "summaries": [asdict(summary) for summary in self.summaries],
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: dict, cached: bool = False) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            spec=ExperimentSpec.from_dict(payload["spec"]),
            summaries=tuple(
                EfficiencySummary(**summary) for summary in payload["summaries"]
            ),
            elapsed_s=payload.get("elapsed_s", 0.0),
            cached=cached,
        )


def run_experiment(spec: ExperimentSpec, validate: bool = False) -> ExperimentResult:
    """Run one experiment spec (all its seed replicas) in the current process.

    With ``validate=True`` every executed round and the finished trajectory are audited
    against the simulator's accounting invariants
    (:mod:`repro.validation.invariants`); a violation raises
    :class:`~repro.exceptions.ValidationError` instead of returning a tainted result.

    Seed replicas run through the batch engine's replicate axis (one stacked physics
    call per round instead of N serial loops), for every policy and with or without
    auditing; each replica's trajectory is byte-identical to running its seed alone.
    """
    start = time.perf_counter()
    units = spec.seed_specs()
    auditors = [None] * len(units)
    if validate:
        # Local import: the validation subsystem sits above the experiment layer.
        from repro.validation.invariants import InvariantAuditor

        auditors = [InvariantAuditor(num_devices=unit.scenario.num_devices) for unit in units]
    simulations = [
        build_simulation(unit, round_observer=auditor)
        for unit, auditor in zip(units, auditors)
    ]
    if len(simulations) == 1:
        results = [simulations[0].run()]
    else:
        results = FLSimulation.run_replicated(simulations)
    for auditor, result in zip(auditors, results):
        if auditor is not None:
            auditor.audit_result(result).raise_if_failed()
    return ExperimentResult(
        spec=spec,
        summaries=tuple(result.summary() for result in results),
        elapsed_s=time.perf_counter() - start,
    )


def _run_payload(payload: dict) -> dict:
    """Worker entry point: runs one serialised spec (module-level so it pickles)."""
    return run_experiment(
        ExperimentSpec.from_dict(payload["spec"]), validate=payload.get("validate", False)
    ).to_dict()


@dataclass(frozen=True)
class SpecFailure:
    """One grid point that failed during batch execution.

    Carries the failing spec's deterministic hash and the *original* worker traceback,
    so a multiprocess failure is debuggable instead of surfacing as an opaque pickle
    or ``BrokenProcessPool`` error.
    """

    spec: ExperimentSpec | None
    spec_hash: str
    error_type: str
    message: str
    traceback: str = ""

    def format(self) -> str:
        """Multi-line rendering: identity line plus the captured worker traceback."""
        label = self.spec.label if self.spec is not None else "<unknown>"
        lines = [f"spec {self.spec_hash[:12]} ({label}): {self.error_type}: {self.message}"]
        if self.traceback:
            lines.append(self.traceback.rstrip())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable payload (used by the orchestration job record)."""
        return {
            "spec_hash": self.spec_hash,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


def _run_payload_safe(payload: dict) -> dict:
    """Worker entry point that never raises: failures come back as tagged payloads.

    Catching in the worker keeps the process pool alive — one crashing spec no longer
    aborts (or poisons) the whole batch — and preserves the original traceback, which
    a pickled exception crossing the process boundary would lose.
    """
    try:
        return {"ok": True, "result": _run_payload(payload)}
    except Exception as exc:
        return {
            "ok": False,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }


#: Callback invoked with each finished result as soon as it is available (before the
#: whole batch completes); the BatchRunner uses it to flush results to the store so an
#: interrupted or partially-failed batch keeps its completed points.
OnResult = Callable[["ExperimentResult"], None]


class Executor(Protocol):
    """Structural interface of a batch executor."""

    name: str

    def map(
        self,
        specs: Sequence[ExperimentSpec],
        validate: bool = False,
        on_result: OnResult | None = None,
    ) -> list[ExperimentResult]:
        """Run every spec and return results in the same order."""
        ...


class SerialExecutor:
    """Runs every spec in the calling process, one after another (fail-fast)."""

    name = "serial"

    def map(
        self,
        specs: Sequence[ExperimentSpec],
        validate: bool = False,
        on_result: OnResult | None = None,
    ) -> list[ExperimentResult]:
        """Run every spec and return results in the same order."""
        results = []
        for spec in specs:
            result = run_experiment(spec, validate=validate)
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results


class MultiprocessExecutor:
    """Fans specs out over a process pool (one worker per core by default).

    Specs travel to the workers as JSON payloads and results come back the same way, so
    the executor works under any multiprocessing start method.  Failures are isolated
    per spec: a crashing grid point does not stop the others, and once every spec has
    had its chance the batch raises :class:`~repro.exceptions.ExecutionError` naming
    each failing spec's hash with its original worker traceback.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        # At least two workers even on single-core boxes, so batches always exercise the
        # real process-pool path (an explicit max_workers=1 still degrades to serial).
        self.max_workers = max_workers if max_workers is not None else max(2, os.cpu_count() or 1)

    def map(
        self,
        specs: Sequence[ExperimentSpec],
        validate: bool = False,
        on_result: OnResult | None = None,
    ) -> list[ExperimentResult]:
        """Run every spec and return results in the same order."""
        if not specs:
            return []
        workers = min(self.max_workers, len(specs))
        if workers == 1:
            return SerialExecutor().map(specs, validate=validate, on_result=on_result)
        payloads = [{"spec": spec.to_dict(), "validate": validate} for spec in specs]
        slots: list[ExperimentResult | None] = [None] * len(specs)
        failures: list[SpecFailure] = []
        # No `with` block: its __exit__ would join the running workers even after an
        # interrupt, stalling Ctrl-C for up to a full spec per worker.
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(_run_payload_safe, payload): index
                for index, payload in enumerate(payloads)
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        # The worker process died without reporting (segfault, OOM
                        # kill, broken pool): synthesise a failure naming the spec.
                        failures.append(
                            SpecFailure(
                                spec=specs[index],
                                spec_hash=specs[index].spec_hash(),
                                error_type=type(exc).__name__,
                                message=str(exc) or "worker process died",
                                traceback=(
                                    "worker process exited before reporting a "
                                    "traceback (crashed or was killed)"
                                ),
                            )
                        )
                        continue
                    if outcome["ok"]:
                        result = ExperimentResult.from_dict(outcome["result"])
                        slots[index] = result
                        if on_result is not None:
                            on_result(result)
                    else:
                        failures.append(
                            SpecFailure(
                                spec=specs[index],
                                spec_hash=specs[index].spec_hash(),
                                error_type=outcome["error_type"],
                                message=outcome["message"],
                                traceback=outcome["traceback"],
                            )
                        )
        except BaseException:
            # Return control immediately (completed results were already flushed
            # through on_result, so an interrupted batch is resumable); the in-flight
            # workers are abandoned to finish or die with the interpreter.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        if failures:
            completed = [slot for slot in slots if slot is not None]
            details = "\n".join(failure.format() for failure in failures)
            raise ExecutionError(
                f"{len(failures)} of {len(specs)} spec(s) failed "
                f"({len(completed)} completed and were kept):\n{details}",
                failures=failures,
                completed=completed,
            )
        return [slot for slot in slots if slot is not None]


#: Executor factories by CLI name.
EXECUTORS = {
    SerialExecutor.name: lambda jobs=None: SerialExecutor(),
    MultiprocessExecutor.name: lambda jobs=None: MultiprocessExecutor(max_workers=jobs),
}


def get_executor(name: str, jobs: int | None = None) -> Executor:
    """Instantiate an executor by name (``serial`` or ``process``)."""
    key = name.lower()
    if key not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor {name!r}; expected one of {sorted(EXECUTORS)}"
        )
    return EXECUTORS[key](jobs)


@runtime_checkable
class StoreBackend(Protocol):
    """Structural interface of a result-store backend.

    Anything with spec-hash keyed ``get``/``put`` (plus ``in``/``len``) can serve as
    the :class:`BatchRunner` cache: the flat JSONL :class:`ResultStore`, the SQLite
    :class:`~repro.service.store.ArtifactStore`, or an in-memory test double.  Serial
    and multiprocess execution and the orchestration scheduler all share one cache
    through this protocol.
    """

    def get(self, spec: "ExperimentSpec | str") -> "ExperimentResult | None":
        """Return the stored result for a spec (or raw hash), or ``None`` on a miss."""
        ...

    def put(self, result: "ExperimentResult") -> None:
        """Persist one result under its deterministic spec hash."""
        ...

    def __contains__(self, spec: "ExperimentSpec | str") -> bool: ...

    def __len__(self) -> int: ...


class ResultStore:
    """Append-only JSONL store of experiment results, keyed by deterministic spec hash.

    The file is loaded once at construction; on duplicate hashes the last line wins (so
    re-computing a point simply supersedes it).  Writes append a single JSON line,
    keeping concurrent readers safe and the file trivially greppable.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._results: dict[str, ExperimentResult] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    key = payload["hash"]
                    spec_payload = payload["spec"]
                    if not isinstance(spec_payload, dict):
                        raise TypeError(
                            f"spec must be an object, got {type(spec_payload).__name__}"
                        )
                    if spec_payload.get("schema") != SPEC_SCHEMA_VERSION:
                        # Stale entry from an older spec schema: its hash can never be
                        # looked up again (hashes embed the schema), so skip it rather
                        # than failing the whole store on a schema bump — but say so,
                        # naming both versions, or users chase phantom cache misses.
                        warnings.warn(
                            f"result store {self.path} line {line_number}: skipping "
                            f"stale entry with spec schema "
                            f"{spec_payload.get('schema')!r} (this version reads "
                            f"schema {SPEC_SCHEMA_VERSION}); re-run to refresh it",
                            StaleResultWarning,
                            stacklevel=3,
                        )
                        continue
                    result = ExperimentResult.from_dict(payload, cached=True)
                except (ValueError, KeyError, TypeError) as exc:
                    raise ConfigurationError(
                        f"corrupt result store {self.path} at line {line_number}: {exc}"
                    ) from exc
                self._results[key] = result

    def get(self, spec: ExperimentSpec | str) -> ExperimentResult | None:
        """Look up the stored result for a spec (or a raw spec hash)."""
        key = spec if isinstance(spec, str) else spec.spec_hash()
        return self._results.get(key)

    def results(self) -> dict[str, ExperimentResult]:
        """Snapshot of every loaded entry by spec hash (used by store migration)."""
        return dict(self._results)

    def put(self, result: ExperimentResult) -> None:
        """Persist one result (appends a JSONL line and updates the in-memory index)."""
        payload = result.to_dict()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._results[payload["hash"]] = replace(result, cached=True)

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, spec: ExperimentSpec | str) -> bool:
        key = spec if isinstance(spec, str) else spec.spec_hash()
        return key in self._results


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one :meth:`BatchRunner.run` call."""

    results: tuple[ExperimentResult, ...]
    cache_hits: int
    executed: int
    elapsed_s: float

    @property
    def total(self) -> int:
        """Number of grid points in the batch."""
        return len(self.results)


class BatchRunner:
    """Executes batches of experiment specs with spec-hash caching.

    Parameters
    ----------
    executor:
        Fan-out strategy for cache misses; defaults to :class:`SerialExecutor`.
    store:
        Optional :class:`StoreBackend` (the JSONL :class:`ResultStore`, the SQLite
        :class:`~repro.service.store.ArtifactStore`, …); when given, hits skip
        execution entirely and fresh results are persisted for the next run.  Results
        are flushed as they complete, so an interrupted or partially-failed batch
        keeps its finished points and a re-run resumes from them.
    validate:
        Self-check every executed grid point against the simulator's accounting
        invariants (:mod:`repro.validation.invariants`); a violation raises
        :class:`~repro.exceptions.ValidationError` instead of caching a tainted
        result.  Cache hits were validated when first computed and are served as-is.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        store: StoreBackend | None = None,
        validate: bool = False,
    ):
        self.executor = executor if executor is not None else SerialExecutor()
        self.store = store
        self.validate = validate

    def run(self, experiments: Sweep | Iterable[ExperimentSpec]) -> BatchReport:
        """Run a sweep (or spec list), serving already-computed points from the store."""
        start = time.perf_counter()
        specs = (
            experiments.expand()
            if isinstance(experiments, Sweep)
            else [spec.validate() for spec in experiments]
        )
        hashes = [spec.spec_hash() for spec in specs]
        slots: list[ExperimentResult | None] = [None] * len(specs)
        misses: dict[str, list[int]] = {}
        cache_hits = 0
        for index, (spec, spec_hash) in enumerate(zip(specs, hashes)):
            hit = self.store.get(spec_hash) if self.store is not None else None
            if hit is not None:
                slots[index] = replace(hit, cached=True)
                cache_hits += 1
            else:
                # Identical points appearing several times in one grid run only once.
                misses.setdefault(spec_hash, []).append(index)
        if misses:
            unique_specs = [specs[indices[0]] for indices in misses.values()]
            # Flush each result the moment its spec finishes (not after the whole
            # batch): a KeyboardInterrupt or per-spec failure then loses only the
            # points still in flight — the completed ones are already persisted and a
            # re-run resumes from them as cache hits.
            flush = self.store.put if self.store is not None else None
            try:
                fresh = self.executor.map(unique_specs, validate=self.validate, on_result=flush)
            except KeyboardInterrupt:
                raise  # Completed results were flushed above; the sweep is resumable.
            for indices, result in zip(misses.values(), fresh):
                for index in indices:
                    slots[index] = result
        results = tuple(slot for slot in slots if slot is not None)
        if len(results) != len(specs):  # pragma: no cover - defensive
            raise ConfigurationError("batch execution lost results for some grid points")
        return BatchReport(
            results=results,
            cache_hits=cache_hits,
            executed=len(misses),
            elapsed_s=time.perf_counter() - start,
        )
