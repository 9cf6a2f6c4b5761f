"""Outside-in layer spans for the end-to-end benchmark.

Every span is recorded by the benchmark itself, around public calls into one layer of
the program: the benchmark wraps methods of objects it built (instance patches) or, for
objects the program builds internally, the class method for the duration of a traced
section (class patches). Nothing under ``src/`` is instrumented for the benchmark.

Span names are the per-layer metric names without their unit suffix, so a trace opened
with ``python -m repro trace --spans`` reads in the same words as the benchmark output.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.telemetry import Span, SpanTracer

#: Direct children of a ``runner.round`` span, in the order a round runs them.
ROUND_PHASES: tuple[str, ...] = (
    "environment.sample",
    "core.select",
    "environment.faults",
    "round_engine.execute",
    "results.to_execution",
    "fl.train",
    "core.feedback",
)

#: Spans of one scheduler job window (claim → job_done), besides the residual.
JOB_PHASES: tuple[str, ...] = (
    "queue.claim",
    "store.get",
    "execute",
    "store.put",
    "queue.update",
    "events.emit",
)

Describe = Callable[[tuple, dict, object], dict]


def _traced(fn: Callable, tracer: SpanTracer, name: str, describe: Describe | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, category="bench") as span:
            result = fn(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

    return wrapper


@contextmanager
def patched(
    tracer: SpanTracer,
    targets: Iterable[tuple[object, str, str, Describe | None]],
) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``name`` for every target, then restore.

    ``owner`` is either a class (the function is wrapped, so ``self`` arrives as
    ``args[0]``) or an instance (its bound method is shadowed for the duration).
    """
    with ExitStack() as stack:
        for owner, attr, name, describe in targets:
            wrapper = _traced(getattr(owner, attr), tracer, name, describe)
            stack.enter_context(mock.patch.object(owner, attr, wrapper))
        yield


def sim_targets(environment, policy, backend) -> list[tuple[object, str, str, None]]:
    """Span targets for one simulation: the objects the benchmark built, plus the
    classes whose instances the runner creates itself (engine, batch result, round)."""
    from repro.sim.results import BatchRoundExecution
    from repro.sim.round_engine import RoundEngine
    from repro.sim.runner import FLSimulation

    return [
        (environment, "round_online_mask", "environment.sample", None),
        (environment, "sample_condition_arrays", "environment.sample", None),
        (environment, "sample_faults", "environment.faults", None),
        (policy, "select", "core.select", None),
        (policy, "feedback_batch", "core.feedback", None),
        (policy, "feedback", "core.feedback", None),
        (backend, "run_round", "fl.train", None),
        (RoundEngine, "execute_batch", "round_engine.execute", None),
        (BatchRoundExecution, "to_execution", "results.to_execution", None),
        (FLSimulation, "run_round", "runner.round", None),
    ]


def _claimed(args, kwargs, job) -> dict:
    return {"job": job.job_id if job is not None else None}


def _got(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _emitted(args, kwargs, result) -> dict:
    return {"event": args[1], "job": kwargs.get("job_id")}


def service_targets() -> list[tuple[object, str, str, Describe | None]]:
    """Class-level span targets for the service leg (the CLI and the scheduler build
    their own queue, store and event-log objects)."""
    from repro.service.events import EventLog
    from repro.service.queue import JobQueue
    from repro.service.store import ArtifactStore

    return [
        (JobQueue, "submit", "queue.submit", None),
        (JobQueue, "claim", "queue.claim", _claimed),
        (JobQueue, "update", "queue.update", None),
        (JobQueue, "complete", "queue.update", None),
        (ArtifactStore, "get", "store.get", _got),
        (ArtifactStore, "put", "store.put", None),
        (EventLog, "emit", "events.emit", _emitted),
    ]


def round_breakdown(spans: list[Span]) -> dict:
    """Split every ``runner.round`` span into its direct child phases plus residual.

    Returns per-round means in ms (``<phase>`` keys plus ``runner.self`` and
    ``runner.round``) and the round count. The residual is the round minus its
    direct children, so phases + residual equal the measured round by construction;
    a negative residual would mean overlapping spans and is reported as is.
    """
    rounds = [span for span in spans if span.name == "runner.round"]
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            by_parent[span.parent_id].append(span)
    totals = dict.fromkeys((*ROUND_PHASES, "runner.self", "runner.round"), 0.0)
    for round_span in rounds:
        covered = 0.0
        for child in by_parent[round_span.span_id]:
            if child.name in totals:
                totals[child.name] += child.dur_s
                covered += child.dur_s
        totals["runner.self"] += round_span.dur_s - covered
        totals["runner.round"] += round_span.dur_s
    count = max(1, len(rounds))
    return {
        "rounds": len(rounds),
        "ms": {name: 1000.0 * total / count for name, total in totals.items()},
    }


def job_breakdown(spans: list[Span]) -> dict:
    """Split every scheduler job window into layer phases plus scheduler residual.

    A window runs, on one worker thread, from the ``queue.claim`` that returned the
    job to the ``events.emit`` of its ``job_done`` (the scheduler computes the job's
    ``dur_s`` just before that emit). Spans of that thread inside the window are
    summed by name; ``scheduler.self`` is the window minus those spans.
    """
    by_tid: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_tid[span.tid].append(span)
    totals = dict.fromkeys((*JOB_PHASES, "scheduler.self", "scheduler.job"), 0.0)
    jobs = 0
    for thread_spans in by_tid.values():
        thread_spans.sort(key=lambda span: span.start_s)
        for index, claim in enumerate(thread_spans):
            if claim.name != "queue.claim" or claim.attrs.get("job") is None:
                continue
            job_id = claim.attrs["job"]
            end = next(
                (
                    span.start_s
                    for span in thread_spans[index + 1 :]
                    if span.name == "events.emit"
                    and span.attrs.get("event") == "job_done"
                    and span.attrs.get("job") == job_id
                ),
                None,
            )
            if end is None:
                continue
            window = [claim] + [
                span
                for span in thread_spans[index + 1 :]
                if span.start_s < end and span.name in totals
            ]
            covered = sum(span.dur_s for span in window)
            for span in window:
                totals[span.name] += span.dur_s
            totals["scheduler.self"] += (end - claim.start_s) - covered
            totals["scheduler.job"] += end - claim.start_s
            jobs += 1
    count = max(1, jobs)
    return {
        "jobs": jobs,
        "ms": {name: 1000.0 * total / count for name, total in totals.items()},
    }


def call_stats(spans: list[Span], name: str) -> tuple[int, float]:
    """(calls, mean ms per call) of every span with ``name``."""
    durations = [span.dur_s for span in spans if span.name == name]
    if not durations:
        return 0, 0.0
    return len(durations), 1000.0 * sum(durations) / len(durations)
