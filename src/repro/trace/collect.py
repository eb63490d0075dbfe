"""Adapters wiring the tracer into the repo's existing seams.

Nothing in here computes anything new — each adapter stands at a place
the engine already passes through and mirrors what it sees into the
installed tracer:

* :class:`TracingWaveObserver` — a :class:`~repro.observers.CampaignObserver`
  that opens one span per evaluation wave and folds results into the
  campaign counters (``wave.count``, ``result.count``,
  ``result.source.*``, ``result.feasible``, ``frontier.updates``,
  plus ``flow.node.*``/``flow.routed.*`` from flow-graph node events);
* :class:`TraceCollector` — owns the live :class:`~repro.trace.spans.Tracer`
  and the :class:`~repro.trace.db.TraceDB` it drains into; the campaign
  runner installs it for the duration of a traced run;
* :func:`open_trace` — resolves a CLI target (a ``trace.db`` or a
  directory holding one) into a read-only :class:`TraceDB`.

The per-stage spans and store counters live directly in
:mod:`repro.mapping.pipeline`, :mod:`repro.engine.cache` and
:mod:`repro.engine.artifacts` — each calls
:func:`~repro.trace.spans.get_tracer` at its own choke point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.engine.executor import WaveOutcome
from repro.engine.frontier import ParetoFrontier
from repro.errors import TraceError
from repro.observers import CampaignObserver
from repro.trace.db import TRACE_DB_FILENAME, TraceDB
from repro.trace.spans import Span, Tracer, set_tracer


# ----------------------------------------------------------------------
# Wave observation
# ----------------------------------------------------------------------
class TracingWaveObserver(CampaignObserver):
    """Mirrors one suite's waves into spans and counters.

    The observer keeps its own feasible-point frontier (an incremental
    :class:`~repro.engine.frontier.ParetoFrontier`) so
    ``frontier.updates`` counts genuine front insertions, not merely
    feasible results.
    """

    def __init__(self, tracer: Tracer, suite: str) -> None:
        self.tracer = tracer
        self.suite = suite
        self.frontier = ParetoFrontier(num_objectives=2)
        self._open: Dict[int, Span] = {}
        self._sources: Dict[str, int] = {}
        self._feasible = 0

    def _count_result(self, evaluation, source: str, feasible) -> int:
        """Fold one result into local tallies; 1 if it moved the frontier."""
        self._sources[source] = self._sources.get(source, 0) + 1
        if not feasible:
            return 0
        self._feasible += 1
        vector = (evaluation.area_slices, evaluation.total_execution_time_ns)
        return 1 if self.frontier.add(vector) else 0

    def _emit_counts(self, results: int, frontier_updates: int) -> None:
        """Ship the tallies accumulated since the previous emit (one lock
        round per counter name instead of one per result — the observer
        sits on the engine's wave hot path)."""
        tracer = self.tracer
        if results:
            tracer.counter("result.count", float(results))
        for source, count in self._sources.items():
            tracer.counter(f"result.source.{source}", float(count))
        self._sources.clear()
        if self._feasible:
            tracer.counter("result.feasible", float(self._feasible))
            self._feasible = 0
        if frontier_updates:
            tracer.counter("frontier.updates", float(frontier_updates))

    def base_evaluated(self, key, evaluation, source, feasible) -> None:
        self._emit_counts(1, self._count_result(evaluation, source, feasible))

    def wave_started(self, wave_index: int, job_count: int) -> None:
        self._open[wave_index] = self.tracer.span(
            "wave", kind="wave", suite=self.suite, wave=wave_index, jobs=job_count
        )

    def wave_finished(self, outcome: WaveOutcome) -> None:
        self.tracer.counter("wave.count")
        frontier_updates = 0
        for result in outcome.results:
            frontier_updates += self._count_result(
                result.evaluation, result.source, result.feasible
            )
        self._emit_counts(len(outcome.results), frontier_updates)
        if outcome.rejected:
            self.tracer.counter("result.rejected", float(len(outcome.rejected)))
        span = self._open.pop(outcome.wave_index, None)
        if span is not None:
            span.set("results", len(outcome.results))
            span.set("rejected", len(outcome.rejected))
            span.set("frontier_size", len(self.frontier))
            span.end()

    def node_finished(self, event) -> None:
        """Fold flow-graph node events into campaign counters.

        The per-stage *spans* already flow through ``PipelineStats.record``;
        here only the routing decisions are counted, so the dashboard can
        show which conditional/raced branches a campaign actually took.
        """
        if event.routed:
            self.tracer.counter(f"flow.routed.{event.node}")


# ----------------------------------------------------------------------
# The collector: one tracer, one DB, one traced run
# ----------------------------------------------------------------------
class TraceCollector:
    """Owns the live tracer of one traced run and drains it into a DB.

    Parameters
    ----------
    directory:
        Trace directory; the DB lands at ``<directory>/trace.db``.
    db_path:
        Explicit database file instead of a directory.
    campaign:
        Optional campaign name stamped into the DB's ``meta`` table.

    The collector's tracer buffers in memory; :meth:`flush` moves the
    buffer into SQLite in one batched transaction.  Only the creating
    process ever writes (see :mod:`repro.trace.spans`).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        db_path: Optional[Union[str, Path]] = None,
        campaign: Optional[str] = None,
    ) -> None:
        if (directory is None) == (db_path is None):
            raise TraceError("pass exactly one of directory= or db_path=")
        path = Path(directory) / TRACE_DB_FILENAME if directory is not None else Path(db_path)
        self.db = TraceDB(path)
        self.tracer = Tracer()
        self.campaign = campaign
        if campaign is not None:
            self.db.set_meta("campaign", campaign)
        self.spans_flushed = 0
        self.counter_totals: Dict[str, float] = {}
        self._previous = None
        self._installed = False
        self._closed = False
        self.summary_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Global installation
    # ------------------------------------------------------------------
    def install(self) -> "TraceCollector":
        """Make this collector's tracer the process-wide tracer."""
        if not self._installed:
            self._previous = set_tracer(self.tracer)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore whatever tracer was installed before :meth:`install`."""
        if self._installed:
            set_tracer(self._previous)
            self._previous = None
            self._installed = False

    def observer(self, suite: str) -> TracingWaveObserver:
        """A wave observer mirroring ``suite`` into this collector."""
        return TracingWaveObserver(self.tracer, suite)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Drain the tracer into the DB; returns the spans written."""
        batch = self.tracer.drain()
        written = 0
        if batch.spans:
            written = self.db.insert_spans(batch.spans)
            self.spans_flushed += written
        if batch.counters:
            self.db.add_counters(batch.counters)
            for name, value in batch.counters.items():
                self.counter_totals[name] = self.counter_totals.get(name, 0.0) + value
        if batch.annotations:
            self.db.insert_annotations(batch.annotations)
        return written

    def maybe_flush(self, threshold: int = 256) -> int:
        """Flush only once ``threshold`` spans are buffered (long-lived hosts)."""
        if self.tracer.pending >= threshold:
            return self.flush()
        return 0

    def summary(self) -> Dict[str, object]:
        """Flush, then report what this run traced (the report's ``trace`` block)."""
        self.flush()
        return {
            "db": str(self.db.path),
            "spans": self.spans_flushed,
            "counters": {
                name: int(value) if float(value).is_integer() else value
                for name, value in sorted(self.counter_totals.items())
            },
        }

    def close(self) -> Dict[str, object]:
        """Final flush + WAL checkpoint; returns the :meth:`summary` facts."""
        if self._closed:
            return self.summary_cache
        facts = self.summary()
        self.summary_cache = facts
        self.db.flush_wal()
        self.db.close()
        self._closed = True
        return facts

    def __enter__(self) -> "TraceCollector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
        self.close()


def open_trace(target: Union[str, Path]) -> TraceDB:
    """Resolve a dashboard target into a read-only :class:`TraceDB`.

    Accepts a ``.db`` file or a directory holding a ``trace.db`` (a
    campaign's ``--trace`` directory).
    """
    path = Path(target)
    if path.is_dir():
        path = path / TRACE_DB_FILENAME
        if not path.is_file():
            raise TraceError(f"{path.parent} holds no {TRACE_DB_FILENAME}")
    elif not path.is_file():
        raise TraceError(f"no trace database or directory at {path}")
    elif path.suffix != ".db":
        raise TraceError(f"{path} is not a trace database (a .db file)")
    return TraceDB(path, readonly=True)
