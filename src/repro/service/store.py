"""SQLite-backed experiment store: indexed results, job artifacts and JSONL migration.

:class:`ArtifactStore` is the service-grade replacement of the flat JSONL
:class:`~repro.experiments.runner.ResultStore`.  It satisfies the same
:class:`~repro.experiments.runner.StoreBackend` protocol — ``get``/``put`` keyed by
deterministic spec hash, identical cache-hit semantics — but keeps results in an
indexed SQLite database so:

* lookups stay O(log n) without loading the whole store at open time;
* many worker processes can read and write concurrently (WAL journal + busy timeout);
* results are queryable by spec schema version, scenario preset, workload and policy;
* jobs can attach arbitrary artifacts (e.g. a failed run's ``ValidationReport``).

Existing JSONL stores migrate losslessly via :func:`migrate_jsonl` — every line's spec
hash is recomputed and verified during the copy — and :func:`open_store` picks the
backend from the path suffix, auto-migrating a legacy sibling ``.jsonl`` file the first
time a SQLite store opens next to one.

For horizontally scaled fleets, :class:`ShardedStore` spreads the same contract over
N SQLite shard files keyed by spec hash, so many ``repro serve`` hosts mounting one
directory share a single logical store without serialising every write behind one
database lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import warnings
from pathlib import Path

from repro.exceptions import ReproError, ServiceError
from repro.experiments.runner import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ResultStore,
    StoreBackend,
)
from repro.experiments.spec import SPEC_SCHEMA_VERSION, ExperimentSpec

#: Bumped whenever the database layout changes.
STORE_SCHEMA_VERSION = 1

#: Default on-disk location of the SQLite store (the service-era default backend).
DEFAULT_SQLITE_STORE_PATH = Path(".repro-results") / "results.sqlite"

_TABLES = """
CREATE TABLE IF NOT EXISTS results (
    hash          TEXT PRIMARY KEY,
    spec_schema   INTEGER NOT NULL,
    result_schema INTEGER NOT NULL,
    policy        TEXT NOT NULL,
    workload      TEXT NOT NULL,
    setting       TEXT NOT NULL,
    num_devices   INTEGER NOT NULL,
    seed          INTEGER NOT NULL,
    preset        TEXT,
    payload       TEXT NOT NULL,
    created_at    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_spec_schema ON results (spec_schema);
CREATE INDEX IF NOT EXISTS idx_results_scenario ON results (workload, policy, setting);
CREATE INDEX IF NOT EXISTS idx_results_preset ON results (preset);
CREATE TABLE IF NOT EXISTS artifacts (
    job_id     TEXT NOT NULL,
    name       TEXT NOT NULL,
    kind       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (job_id, name)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class ArtifactStore:
    """Concurrent, indexed result + artifact store over one SQLite file.

    Connections are per-process (re-opened transparently after ``fork``) and guarded by
    a lock so scheduler worker threads can share one store instance; cross-process
    writers are serialised by SQLite itself (WAL journal, 30 s busy timeout).
    """

    def __init__(self, path: str | os.PathLike, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        with self._connection() as conn:
            conn.executescript(_TABLES)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('store_schema', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )

    # ------------------------------------------------------------------ connection
    def _connection(self) -> sqlite3.Connection:
        # A forked worker must not reuse the parent's connection object; reconnect
        # whenever the pid changed since the connection was made.
        if self._conn is None or self._conn_pid != os.getpid():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=self.timeout_s, check_same_thread=False
            )
            conn.execute(f"PRAGMA busy_timeout={int(self.timeout_s * 1000)}")
            self._enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            self._conn = conn
            self._conn_pid = os.getpid()
        return self._conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Put the file in WAL mode unless it already is (the mode is persistent).

        Switching the journal mode needs an exclusive lock, and SQLite can refuse it
        with ``database is locked`` without waiting on the busy timeout while another
        process is creating the same fresh file — so the switch retries, bounded by
        the store's timeout.
        """
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                    conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        """Close the current process's connection (reopened lazily on next use)."""
        with self._lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None

    # ------------------------------------------------------------------ results
    def get(self, spec: ExperimentSpec | str) -> ExperimentResult | None:
        """Look up the stored result for a spec (or raw spec hash); hits are ``cached``."""
        key = spec if isinstance(spec, str) else spec.spec_hash()
        with self._lock:
            row = (
                self._connection()
                .execute("SELECT payload FROM results WHERE hash = ?", (key,))
                .fetchone()
            )
        if row is None:
            return None
        return ExperimentResult.from_dict(json.loads(row[0]), cached=True)

    def put(self, result: ExperimentResult, preset: str | None = None) -> None:
        """Persist one result (idempotent: a re-computed point supersedes its row)."""
        payload = result.to_dict()
        scenario = result.spec.scenario
        with self._lock, self._connection() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results (hash, spec_schema, result_schema, "
                "policy, workload, setting, num_devices, seed, preset, payload, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    payload["hash"],
                    payload["spec"]["schema"],
                    RESULT_SCHEMA_VERSION,
                    result.spec.policy,
                    scenario.workload,
                    scenario.setting,
                    scenario.num_devices,
                    scenario.seed,
                    preset,
                    json.dumps(payload, sort_keys=True),
                    time.time(),
                ),
            )

    def __contains__(self, spec: ExperimentSpec | str) -> bool:
        key = spec if isinstance(spec, str) else spec.spec_hash()
        with self._lock:
            row = (
                self._connection()
                .execute("SELECT 1 FROM results WHERE hash = ?", (key,))
                .fetchone()
            )
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection().execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def iter_results(self):
        """Yield every current-schema ``(result, preset)`` pair, oldest first.

        This is the warehouse-ingest seam: the analytics layer drains the whole store
        through it without learning any SQL.  Rows written under an older spec schema
        are skipped with the usual :class:`~repro.experiments.runner.StaleResultWarning`
        (their hashes can never be looked up again anyway).
        """
        from repro.experiments.runner import StaleResultWarning

        with self._lock:
            rows = self._connection().execute(
                "SELECT payload, preset FROM results ORDER BY created_at, hash"
            ).fetchall()
        for payload, preset in rows:
            try:
                result = ExperimentResult.from_dict(json.loads(payload), cached=True)
            except ReproError as exc:
                warnings.warn(
                    f"result store {self.path}: skipping stale entry ({exc})",
                    StaleResultWarning,
                    stacklevel=2,
                )
                continue
            yield result, preset

    def count_by_schema(self) -> dict[int, int]:
        """Stored results per spec schema version (stale generations stay queryable)."""
        with self._lock:
            rows = self._connection().execute(
                "SELECT spec_schema, COUNT(*) FROM results GROUP BY spec_schema"
            ).fetchall()
        return {int(schema): int(count) for schema, count in rows}

    # ------------------------------------------------------------------ artifacts
    def put_artifact(self, job_id: str, name: str, kind: str, payload: dict) -> None:
        """Attach a JSON artifact to a job (e.g. a failed run's validation report)."""
        with self._lock, self._connection() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts (job_id, name, kind, payload, "
                "created_at) VALUES (?, ?, ?, ?, ?)",
                (job_id, name, kind, json.dumps(payload, sort_keys=True), time.time()),
            )

    def get_artifacts(self, job_id: str) -> list[dict]:
        """All artifacts attached to a job, as ``{name, kind, payload, created_at}``."""
        with self._lock:
            rows = self._connection().execute(
                "SELECT name, kind, payload, created_at FROM artifacts "
                "WHERE job_id = ? ORDER BY name",
                (job_id,),
            ).fetchall()
        return [
            {
                "name": name,
                "kind": kind,
                "payload": json.loads(payload),
                "created_at": created_at,
            }
            for name, kind, payload, created_at in rows
        ]

    # ------------------------------------------------------------------ meta
    def get_meta(self, key: str) -> str | None:
        """Read one meta marker (store schema, migration receipts)."""
        with self._lock:
            row = (
                self._connection()
                .execute("SELECT value FROM meta WHERE key = ?", (key,))
                .fetchone()
            )
        return None if row is None else str(row[0])

    def set_meta(self, key: str, value: str) -> None:
        """Write one meta marker."""
        with self._lock, self._connection() as conn:
            conn.execute("INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value))


#: Default shard count of a freshly-created :class:`ShardedStore`.
DEFAULT_STORE_SHARDS = 4


class ShardedStore:
    """One logical result store spread over N SQLite shard files in a directory.

    A single SQLite file serialises all writers behind one database lock; with a
    fleet of ``serve`` hosts hammering the same store, that lock becomes the
    bottleneck.  ``ShardedStore`` keeps the exact :class:`StoreBackend` contract but
    routes every result to ``shard-<k>.sqlite`` by its deterministic spec hash (and
    every job artifact by its job id), so unrelated writes land on unrelated files
    and contention drops by roughly the shard count.  Because routing is pure hash
    arithmetic, any number of hosts mounting the same directory agree on placement
    with no coordination beyond the ``shards.json`` manifest, which pins the shard
    count at creation time (resharding is a migration, not a config change).
    """

    MANIFEST = "shards.json"

    def __init__(
        self, root: str | os.PathLike, shards: int | None = None, timeout_s: float = 30.0
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest_path = self.root / self.MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            pinned = int(manifest["shards"])
            if shards is not None and shards != pinned:
                raise ServiceError(
                    f"store {self.root} is pinned to {pinned} shard(s); requested "
                    f"{shards} (resharding requires a migration, not a flag)"
                )
            self.n_shards = pinned
        else:
            self.n_shards = shards if shards is not None else DEFAULT_STORE_SHARDS
            if self.n_shards < 1:
                raise ServiceError(f"shards must be >= 1, got {self.n_shards}")
            # Atomic create: racing hosts both write the same content, last wins.
            staging = self.root / f".{self.MANIFEST}.{os.getpid()}"
            staging.write_text(
                json.dumps({"shards": self.n_shards, "store_schema": STORE_SCHEMA_VERSION})
                + "\n",
                encoding="utf-8",
            )
            os.replace(staging, manifest_path)
        self.shards = tuple(
            ArtifactStore(self.root / f"shard-{index:02d}.sqlite", timeout_s=timeout_s)
            for index in range(self.n_shards)
        )

    # ------------------------------------------------------------------ routing
    def _shard_for(self, key: str) -> ArtifactStore:
        """Route a spec hash (hex) to its shard; non-hex keys hash structurally."""
        try:
            bucket = int(key[:8], 16)
        except ValueError:
            bucket = int.from_bytes(key.encode("utf-8")[:8], "big")
        return self.shards[bucket % self.n_shards]

    def _job_shard(self, job_id: str) -> ArtifactStore:
        digest = hashlib.sha1(job_id.encode("utf-8")).hexdigest()
        return self.shards[int(digest[:8], 16) % self.n_shards]

    # ------------------------------------------------------------------ results
    def get(self, spec: ExperimentSpec | str) -> ExperimentResult | None:
        key = spec if isinstance(spec, str) else spec.spec_hash()
        return self._shard_for(key).get(key)

    def put(self, result: ExperimentResult, preset: str | None = None) -> None:
        self._shard_for(result.spec.spec_hash()).put(result, preset=preset)

    def __contains__(self, spec: ExperimentSpec | str) -> bool:
        key = spec if isinstance(spec, str) else spec.spec_hash()
        return key in self._shard_for(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def iter_results(self):
        """Every shard's ``(result, preset)`` pairs (shard-major, oldest first)."""
        for shard in self.shards:
            yield from shard.iter_results()

    def count_by_schema(self) -> dict[int, int]:
        merged: dict[int, int] = {}
        for shard in self.shards:
            for schema, count in shard.count_by_schema().items():
                merged[schema] = merged.get(schema, 0) + count
        return merged

    # ------------------------------------------------------------------ artifacts
    def put_artifact(self, job_id: str, name: str, kind: str, payload: dict) -> None:
        self._job_shard(job_id).put_artifact(job_id, name, kind, payload)

    def get_artifacts(self, job_id: str) -> list[dict]:
        return self._job_shard(job_id).get_artifacts(job_id)

    # ------------------------------------------------------------------ meta
    def get_meta(self, key: str) -> str | None:
        """Meta markers live on shard 0 (they are store-wide, not per-hash)."""
        return self.shards[0].get_meta(key)

    def set_meta(self, key: str, value: str) -> None:
        self.shards[0].set_meta(key, value)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


def migrate_jsonl(
    jsonl_path: str | os.PathLike,
    store: "ArtifactStore | ShardedStore",
    verify_hashes: bool = True,
) -> int:
    """Copy every current-schema entry of a JSONL store into ``store``; returns the count.

    The copy is lossless and verified: each line is rebuilt through the normal
    :class:`ResultStore` loader (stale-schema lines are skipped with the usual warning)
    and, with ``verify_hashes``, the spec hash is recomputed from the rebuilt spec and
    checked against the stored key, so a corrupted line can never silently poison the
    indexed store.  Already-present hashes are left untouched, making migration
    idempotent and safe to run concurrently from several processes.
    """
    jsonl_path = Path(jsonl_path)
    if not jsonl_path.exists():
        return 0
    migrated = 0
    legacy = ResultStore(jsonl_path)
    for spec_hash, result in legacy.results().items():
        if verify_hashes and result.spec.spec_hash() != spec_hash:
            raise ServiceError(
                f"JSONL store {jsonl_path}: entry keyed {spec_hash[:12]} rebuilds to "
                f"spec hash {result.spec.spec_hash()[:12]}; refusing to migrate a "
                "store whose keys do not match their specs"
            )
        if spec_hash not in store:
            store.put(result)
            migrated += 1
    return migrated


def open_store(path: str | os.PathLike, shards: int | None = None) -> StoreBackend:
    """Open a result store, picking the backend from the path (and ``shards``).

    ``*.jsonl`` opens the legacy flat-file :class:`ResultStore`.  A directory
    carrying a ``shards.json`` manifest — or any path opened with ``shards`` set —
    opens (creating if needed) a :class:`ShardedStore`, the multi-host backend.
    Anything else opens a single-file SQLite :class:`ArtifactStore`; when it sits
    next to a legacy ``.jsonl`` sibling (the pre-service default layout), the
    sibling is migrated in on first open and a receipt recorded in ``meta`` so later
    opens skip the scan.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        if shards is not None:
            raise ServiceError(f"a .jsonl store cannot be sharded: {path}")
        return ResultStore(path)
    if shards is not None or (path.is_dir() and (path / ShardedStore.MANIFEST).exists()):
        return ShardedStore(path, shards=shards)
    store = ArtifactStore(path)
    legacy = path.with_suffix(".jsonl")
    receipt_key = f"migrated:{legacy.name}"
    if legacy.exists() and store.get_meta(receipt_key) is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Stale legacy lines already warned once.
            migrated = migrate_jsonl(legacy, store)
        store.set_meta(
            receipt_key,
            json.dumps({"migrated": migrated, "at": time.time(), "spec_schema": SPEC_SCHEMA_VERSION}),
        )
    return store
