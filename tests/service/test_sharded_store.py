"""Tests for the sharded SQLite store and multi-host scheduling against it."""

import multiprocessing

import pytest
from _procs import join_or_kill

from repro.exceptions import ServiceError
from repro.experiments.runner import ResultStore, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EventLog
from repro.service.jobs import JobState, make_job
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore, ShardedStore, migrate_jsonl, open_store
from repro.sim.scenarios import ScenarioSpec


def _spec(seed=0):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=25, max_rounds=3, seed=seed), policy="fedavg-random"
    )


def _result(seed=0):
    return run_experiment(_spec(seed))


class TestSharding:
    def test_results_round_trip_and_spread_over_shards(self, tmp_path):
        store = ShardedStore(tmp_path / "store", shards=4)
        results = [_result(seed) for seed in range(6)]
        for result in results:
            store.put(result)
        assert len(store) == 6
        for result in results:
            got = store.get(result.spec)
            assert got is not None and got.cached
            assert result.spec in store
        assert sum(len(shard) for shard in store.shards) == 6
        assert len({id(store._shard_for(r.spec.spec_hash())) for r in results}) > 1

    def test_routing_is_deterministic_across_instances(self, tmp_path):
        first = ShardedStore(tmp_path / "store", shards=4)
        result = _result()
        first.put(result)
        second = ShardedStore(tmp_path / "store")  # shard count from the manifest
        assert second.n_shards == 4
        assert second.get(result.spec) is not None

    def test_manifest_pins_the_shard_count(self, tmp_path):
        ShardedStore(tmp_path / "store", shards=2)
        with pytest.raises(ServiceError, match="pinned to 2"):
            ShardedStore(tmp_path / "store", shards=8)

    def test_shard_count_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError, match="shards"):
            ShardedStore(tmp_path / "store", shards=0)

    def test_artifacts_route_by_job_id(self, tmp_path):
        store = ShardedStore(tmp_path / "store", shards=3)
        store.put_artifact("job-abc", "report", "validation-report", {"ok": False})
        (artifact,) = store.get_artifacts("job-abc")
        assert artifact["kind"] == "validation-report"
        assert ShardedStore(tmp_path / "store").get_artifacts("job-abc")

    def test_meta_lives_on_shard_zero(self, tmp_path):
        store = ShardedStore(tmp_path / "store", shards=2)
        store.set_meta("marker", "42")
        assert store.get_meta("marker") == "42"
        assert store.shards[0].get_meta("marker") == "42"

    def test_iter_results_and_count_by_schema_aggregate(self, tmp_path):
        store = ShardedStore(tmp_path / "store", shards=2)
        for seed in range(4):
            store.put(_result(seed), preset="p")
        drained = list(store.iter_results())
        assert len(drained) == 4
        assert all(preset == "p" for _result_, preset in drained)
        assert sum(store.count_by_schema().values()) == 4

    def test_migrate_jsonl_into_sharded_store(self, tmp_path):
        legacy = ResultStore(tmp_path / "legacy.jsonl")
        for seed in range(3):
            legacy.put(_result(seed))
        store = ShardedStore(tmp_path / "store", shards=2)
        assert migrate_jsonl(tmp_path / "legacy.jsonl", store) == 3
        assert len(store) == 3


class TestOpenStoreDispatch:
    def test_shards_flag_creates_a_sharded_store(self, tmp_path):
        store = open_store(tmp_path / "store", shards=2)
        assert isinstance(store, ShardedStore)
        assert store.n_shards == 2

    def test_manifest_directory_is_autodetected(self, tmp_path):
        ShardedStore(tmp_path / "store", shards=2)
        store = open_store(tmp_path / "store")  # no flag needed on reopen
        assert isinstance(store, ShardedStore)
        assert store.n_shards == 2

    def test_plain_path_stays_a_single_file_store(self, tmp_path):
        assert isinstance(open_store(tmp_path / "results.sqlite"), ArtifactStore)

    def test_jsonl_cannot_be_sharded(self, tmp_path):
        with pytest.raises(ServiceError, match="jsonl"):
            open_store(tmp_path / "results.jsonl", shards=2)


def _serve_one_host(root: str, host: str) -> None:
    """A 'host': its own queue handle, scheduler and shard connections."""
    queue = JobQueue(f"{root}/queue")
    store = ShardedStore(f"{root}/store")
    events = EventLog(f"{root}/events-{host}.jsonl")
    scheduler = Scheduler(queue, store, events, poll_s=0.02, worker_prefix=host)
    scheduler.serve(workers=2, drain=True, install_signals=False)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the two-host drain forks serve processes from the test",
)
class TestTwoHostDrain:
    def test_two_serve_processes_drain_one_store_without_double_execution(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        ShardedStore(tmp_path / "store", shards=4)  # pin the manifest up front
        flood_ids = [
            queue.submit(make_job(_spec(seed), lane="flood")) for seed in range(8)
        ]
        solo_id = queue.submit(make_job(_spec(100), lane="solo"))
        context = multiprocessing.get_context("fork")
        hosts = [
            context.Process(target=_serve_one_host, args=(str(tmp_path), f"host{index}"))
            for index in range(2)
        ]
        for host in hosts:
            host.start()
        join_or_kill(hosts)
        for job_id in [*flood_ids, solo_id]:
            job = queue.get(job_id)
            assert job.state is JobState.DONE
            assert job.attempts == 1  # claimed exactly once across both hosts
            assert (job.cache_hits, job.executed) in {(0, 1), (1, 0)}
        assert len(ShardedStore(tmp_path / "store")) == 9
        # Lane fairness across hosts: every claimer round-robins lanes on its own
        # credit, so whichever host served the solo job did so within its first two
        # claims — the 8-job flood never pushed it back.
        for index in range(2):
            log = EventLog(tmp_path / f"events-host{index}.jsonl")
            started = [
                event["job_id"] for event in log.read() if event["event"] == "job_started"
            ]
            if solo_id in started:
                assert solo_id in started[:2]
                break
        else:
            pytest.fail("the solo job never started on either host")
