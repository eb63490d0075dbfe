"""SQLite trace store: spans, counters and annotations, queryable.

One ``trace.db`` file holds everything a traced campaign emitted.  The
database is opened in WAL mode (readers — the dashboard CLI — never block
the single writer), inserts are batched into one transaction per flush,
and the query helpers answer the dashboard's questions directly: slowest
spans, per-name aggregates with p50/p95, wave timelines, counter totals.

Write ownership is per process: the :class:`TraceDB` remembers the pid
that opened it and refuses writes from any other (a forked child that
inherited the handle must open its own database).  SQLite connections
are not fork-safe, and two processes appending to one WAL file is
exactly the torn-row hazard this guard exists to make impossible.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import TraceError

#: Default trace database file name inside a trace directory.
TRACE_DB_FILENAME = "trace.db"

#: Schema version stamped into the ``meta`` table.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS spans (
    span_id    TEXT PRIMARY KEY,
    parent_id  TEXT,
    name       TEXT NOT NULL,
    kind       TEXT NOT NULL,
    start_ts   REAL NOT NULL,
    duration_s REAL NOT NULL,
    status     TEXT NOT NULL,
    pid        INTEGER,
    thread     TEXT,
    attrs      TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS spans_by_kind ON spans (kind, duration_s);
CREATE INDEX IF NOT EXISTS spans_by_name ON spans (name);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS annotations (
    span_id TEXT,
    ts      REAL NOT NULL,
    message TEXT NOT NULL,
    attrs   TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation.

    The single percentile convention of the repo: the mapping pipeline's
    per-stage p50/p95 and the trace DB's aggregates go through this exact
    function, so the campaign report and ``python -m repro.trace stages``
    can never disagree on the same data.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def duration_summary(durations: Sequence[float]) -> Dict[str, float]:
    """count/total/mean/p50/p95/max of a duration sample (seconds)."""
    if not durations:
        return {"count": 0, "total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    total = float(sum(durations))
    return {
        "count": len(durations),
        "total": total,
        "mean": total / len(durations),
        "p50": percentile(durations, 0.50),
        "p95": percentile(durations, 0.95),
        "max": float(max(durations)),
    }


class TraceDB:
    """One SQLite trace database (spans/counters/annotations).

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an in-process scratch DB
        that leaves no file behind.
    readonly:
        Open for queries only; writes raise :class:`~repro.errors.TraceError`.
        The file must already exist.
    """

    def __init__(self, path: Union[str, Path] = ":memory:", readonly: bool = False) -> None:
        self.path = None if str(path) == ":memory:" else Path(path)
        self.readonly = readonly
        self._pid = os.getpid()
        self._lock = threading.Lock()
        if self.path is not None:
            if readonly and not self.path.is_file():
                raise TraceError(f"no trace database at {self.path}")
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # One connection, shared across threads behind the lock: the
        # writer is the collector's flush path, readers are query helpers.
        self._connection = sqlite3.connect(str(path), check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        if not readonly:
            if self.path is not None:
                # WAL lets the dashboard CLI read while a campaign writes.
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.executescript(_SCHEMA)
            self.set_meta("schema_version", str(SCHEMA_VERSION))
            self._connection.commit()

    # ------------------------------------------------------------------
    # Write guards
    # ------------------------------------------------------------------
    def _writable(self) -> None:
        if self.readonly:
            raise TraceError(f"trace database {self.path} is open read-only")
        if os.getpid() != self._pid:
            raise TraceError(
                "trace databases are single-writer: this handle belongs to "
                f"pid {self._pid}, not {os.getpid()} — a forked child must "
                "open its own trace database, not write through this one"
            )

    # ------------------------------------------------------------------
    # Batched inserts
    # ------------------------------------------------------------------
    def insert_spans(self, records: Sequence[Mapping[str, Any]]) -> int:
        """Insert finished span records in one transaction."""
        if not records:
            return 0
        self._writable()
        rows = [
            (
                record["span_id"],
                record.get("parent_id"),
                record["name"],
                record.get("kind", "span"),
                float(record.get("start_ts", 0.0)),
                float(record.get("duration_s", 0.0)),
                record.get("status", "ok"),
                record.get("pid"),
                record.get("thread"),
                json.dumps(record.get("attrs", {}), sort_keys=True),
            )
            for record in records
        ]
        with self._lock, self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO spans VALUES (?,?,?,?,?,?,?,?,?,?)", rows
            )
        return len(rows)

    def add_counters(self, deltas: Mapping[str, float]) -> None:
        """Fold counter deltas into their running totals (upsert)."""
        if not deltas:
            return
        self._writable()
        with self._lock, self._connection:
            self._connection.executemany(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
                [(name, float(value)) for name, value in deltas.items()],
            )

    def insert_annotations(self, records: Sequence[Mapping[str, Any]]) -> int:
        if not records:
            return 0
        self._writable()
        rows = [
            (
                record.get("span_id"),
                float(record.get("ts", 0.0)),
                record["message"],
                json.dumps(record.get("attrs", {}), sort_keys=True),
            )
            for record in records
        ]
        with self._lock, self._connection:
            self._connection.executemany("INSERT INTO annotations VALUES (?,?,?,?)", rows)
        return len(rows)

    def set_meta(self, key: str, value: str) -> None:
        self._writable()
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
            )

    def get_meta(self, key: str) -> Optional[str]:
        row = self._query("SELECT value FROM meta WHERE key = ?", (key,))
        return row[0]["value"] if row else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query(self, sql: str, parameters: Tuple = ()) -> List[sqlite3.Row]:
        with self._lock:
            return self._connection.execute(sql, parameters).fetchall()

    @staticmethod
    def _span_row(row: sqlite3.Row) -> dict:
        record = dict(row)
        record["attrs"] = json.loads(record.pop("attrs") or "{}")
        return record

    def span_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return int(self._query("SELECT COUNT(*) AS n FROM spans")[0]["n"])
        return int(
            self._query("SELECT COUNT(*) AS n FROM spans WHERE kind = ?", (kind,))[0]["n"]
        )

    def kind_counts(self) -> Dict[str, int]:
        """Span counts per kind (the summary dashboard's top table)."""
        return {
            row["kind"]: int(row["n"])
            for row in self._query(
                "SELECT kind, COUNT(*) AS n FROM spans GROUP BY kind ORDER BY kind"
            )
        }

    def spans(self, kind: Optional[str] = None, limit: Optional[int] = None) -> List[dict]:
        """Spans in start order, optionally filtered by kind."""
        sql = "SELECT * FROM spans"
        parameters: Tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            parameters = (kind,)
        sql += " ORDER BY start_ts"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [self._span_row(row) for row in self._query(sql, parameters)]

    def slowest_spans(self, limit: int = 10, kind: Optional[str] = None) -> List[dict]:
        """The ``limit`` slowest spans, optionally restricted to one kind."""
        sql = "SELECT * FROM spans"
        parameters: Tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            parameters = (kind,)
        sql += f" ORDER BY duration_s DESC LIMIT {int(limit)}"
        return [self._span_row(row) for row in self._query(sql, parameters)]

    def aggregates(self, kind: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per-span-name duration summaries (count, total, mean, p50, p95, max).

        Percentiles are computed in Python over the fetched durations —
        SQLite has no percentile function, and the samples per name are
        small (one per stage execution or wave).
        """
        sql = "SELECT name, duration_s FROM spans"
        parameters: Tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            parameters = (kind,)
        samples: Dict[str, List[float]] = {}
        for row in self._query(sql, parameters):
            samples.setdefault(row["name"], []).append(float(row["duration_s"]))
        return {name: duration_summary(values) for name, values in sorted(samples.items())}

    def wave_timeline(self, suite: Optional[str] = None) -> List[dict]:
        """Wave spans in start order (the dashboard's rate/convergence input)."""
        waves = self.spans(kind="wave")
        if suite is not None:
            waves = [span for span in waves if span["attrs"].get("suite") == suite]
        return waves

    def counters(self) -> Dict[str, float]:
        return {
            row["name"]: float(row["value"])
            for row in self._query("SELECT name, value FROM counters ORDER BY name")
        }

    def counter(self, name: str) -> float:
        row = self._query("SELECT value FROM counters WHERE name = ?", (name,))
        return float(row[0]["value"]) if row else 0.0

    def annotations(self, span_id: Optional[str] = None) -> List[dict]:
        sql = "SELECT * FROM annotations"
        parameters: Tuple = ()
        if span_id is not None:
            sql += " WHERE span_id = ?"
            parameters = (span_id,)
        sql += " ORDER BY ts"
        return [
            {**dict(row), "attrs": json.loads(row["attrs"] or "{}")}
            for row in self._query(sql, parameters)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush_wal(self) -> None:
        """Checkpoint the WAL into the main database file (best effort)."""
        if self.path is None or self.readonly:
            return
        with self._lock:
            self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "TraceDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
