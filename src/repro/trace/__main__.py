"""Dashboard CLI: ``python -m repro.trace``.

Renders a trace database as terminal dashboards::

    python -m repro.trace summary .repro_trace        # counts, rates, hit rates
    python -m repro.trace tail .repro_trace -n 20     # most recent spans
    python -m repro.trace slow .repro_trace --kind stage
    python -m repro.trace stages .repro_trace         # per-stage p50/p95 table
    python -m repro.trace export .repro_trace --output trace.json

The target may be a ``trace.db`` file or a directory containing one (the
campaign's ``--trace`` directory).  ``summary --json`` emits the
machine-readable form the CI smoke job compares against the campaign
report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.errors import TraceError
from repro.trace.collect import open_trace
from repro.trace.db import TraceDB, duration_summary
from repro.utils.tabulate import format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect a campaign trace database.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def target(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "target",
            help="trace.db file or a directory holding one",
        )

    summary = commands.add_parser("summary", help="wave rate, result and hit-rate overview")
    target(summary)
    summary.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    tail = commands.add_parser("tail", help="most recent spans")
    target(tail)
    tail.add_argument("-n", "--count", type=int, default=20, help="spans to show (default 20)")
    tail.add_argument("--kind", default=None, help="only spans of this kind")

    slow = commands.add_parser("slow", help="slowest spans")
    target(slow)
    slow.add_argument("-n", "--count", type=int, default=10, help="spans to show (default 10)")
    slow.add_argument("--kind", default=None, help="only spans of this kind")

    stages = commands.add_parser("stages", help="per-stage duration aggregates (p50/p95)")
    target(stages)

    export = commands.add_parser("export", help="dump spans/counters/annotations as JSON")
    target(export)
    export.add_argument("--output", default=None, help="write here instead of stdout")
    return parser


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def _compact_attrs(attrs: Dict[str, object], width: int = 60) -> str:
    text = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return text if len(text) <= width else text[: width - 1] + "…"

def _hit_rate(hits: float, misses: float) -> str:
    lookups = hits + misses
    if not lookups:
        return "-"
    return f"{int(hits)}h/{int(misses)}m ({100.0 * hits / lookups:.1f}%)"


def _summary_facts(db: TraceDB) -> Dict[str, object]:
    counters = db.counters()
    waves = db.wave_timeline()
    wave_rate = None
    if len(waves) >= 1:
        first_start = min(span["start_ts"] for span in waves)
        last_end = max(span["start_ts"] + span["duration_s"] for span in waves)
        elapsed = last_end - first_start
        if elapsed > 0:
            wave_rate = len(waves) / elapsed
    frontier_sizes = [
        span["attrs"]["frontier_size"]
        for span in waves
        if "frontier_size" in span["attrs"]
    ]
    sources = {
        name.split(".", 2)[2]: int(value)
        for name, value in counters.items()
        if name.startswith("result.source.")
    }
    return {
        "db": str(db.path) if db.path is not None else ":memory:",
        "campaign": db.get_meta("campaign"),
        "spans": db.span_count(),
        "kinds": db.kind_counts(),
        "counters": counters,
        "waves": int(counters.get("wave.count", 0)),
        "wave_spans": len(waves),
        "wave_rate_per_s": wave_rate,
        "results": int(counters.get("result.count", 0)),
        "result_sources": sources,
        "feasible": int(counters.get("result.feasible", 0)),
        "frontier_updates": int(counters.get("frontier.updates", 0)),
        "frontier_sizes": frontier_sizes,
        "eval_store": {
            "hits": int(counters.get("store.eval.hit", 0)),
            "misses": int(counters.get("store.eval.miss", 0)),
            "stores": int(counters.get("store.eval.store", 0)),
        },
        "artifact_store": {
            "hits": int(counters.get("store.artifact.hit", 0)),
            "misses": int(counters.get("store.artifact.miss", 0)),
            "stores": int(counters.get("store.artifact.store", 0)),
        },
    }


def _cmd_summary(db: TraceDB, as_json: bool) -> int:
    facts = _summary_facts(db)
    if as_json:
        print(json.dumps(facts, indent=2, sort_keys=True))
        return 0
    campaign = f" (campaign {facts['campaign']!r})" if facts["campaign"] else ""
    print(f"trace: {facts['db']}{campaign}")
    kinds = "  ".join(f"{kind}: {count}" for kind, count in facts["kinds"].items())
    print(f"spans: {facts['spans']}" + (f"  [{kinds}]" if kinds else ""))
    rate = (
        f"  rate: {facts['wave_rate_per_s']:.2f}/s"
        if facts["wave_rate_per_s"] is not None
        else ""
    )
    sources = " / ".join(
        f"{count} {source}" for source, count in sorted(facts["result_sources"].items())
    )
    print(
        f"waves: {facts['waves']}{rate}  results: {facts['results']}"
        + (f" ({sources})" if sources else "")
        + f"  feasible: {facts['feasible']}"
    )
    sizes: List[int] = facts["frontier_sizes"]
    convergence = f", size {sizes[0]} -> {sizes[-1]}" if sizes else ""
    print(f"frontier: {facts['frontier_updates']} update(s){convergence}")
    evals = facts["eval_store"]
    artifacts = facts["artifact_store"]
    print(
        f"store: evals {_hit_rate(evals['hits'], evals['misses'])}"
        f"  artifacts {_hit_rate(artifacts['hits'], artifacts['misses'])}"
    )
    stage_rows = _stage_rows(db)
    if stage_rows:
        print()
        print(
            format_table(
                stage_rows,
                headers=["stage", "n", "hits", "misses", "total(s)", "p50(ms)", "p95(ms)"],
                float_format=".3f",
                title="stages",
            )
        )
    return 0


def _cmd_tail(db: TraceDB, count: int, kind: Optional[str]) -> int:
    spans = db.spans(kind=kind)
    if not spans:
        print("no spans")
        return 0
    origin = spans[0]["start_ts"]
    rows = [
        [
            f"+{span['start_ts'] - origin:.3f}s",
            span["name"],
            span["kind"],
            span["duration_s"] * 1e3,
            span["status"],
            _compact_attrs(span["attrs"]),
        ]
        for span in spans[-count:]
    ]
    print(
        format_table(
            rows,
            headers=["start", "name", "kind", "ms", "status", "attrs"],
            float_format=".3f",
        )
    )
    return 0


def _cmd_slow(db: TraceDB, count: int, kind: Optional[str]) -> int:
    spans = db.slowest_spans(limit=count, kind=kind)
    if not spans:
        print("no spans")
        return 0
    rows = [
        [
            span["name"],
            span["kind"],
            span["duration_s"] * 1e3,
            span["status"],
            _compact_attrs(span["attrs"]),
        ]
        for span in spans
    ]
    print(
        format_table(
            rows,
            headers=["name", "kind", "ms", "status", "attrs"],
            float_format=".3f",
            title=f"slowest {len(rows)} span(s)" + (f" of kind {kind!r}" if kind else ""),
        )
    )
    return 0


def _stage_rows(db: TraceDB) -> List[List[object]]:
    """Per-stage table rows: aggregates + hit/miss splits from span attrs."""
    samples: Dict[str, List[float]] = {}
    hits: Dict[str, int] = {}
    misses: Dict[str, int] = {}
    for span in db.spans(kind="stage"):
        name = span["name"]
        samples.setdefault(name, []).append(span["duration_s"])
        if span["attrs"].get("hit"):
            hits[name] = hits.get(name, 0) + 1
        else:
            misses[name] = misses.get(name, 0) + 1
    rows: List[List[object]] = []
    for name in sorted(samples):
        stats = duration_summary(samples[name])
        rows.append(
            [
                name,
                stats["count"],
                hits.get(name, 0),
                misses.get(name, 0),
                stats["total"],
                stats["p50"] * 1e3,
                stats["p95"] * 1e3,
            ]
        )
    return rows


def _cmd_stages(db: TraceDB) -> int:
    rows = _stage_rows(db)
    if not rows:
        print("no stage spans")
        return 0
    print(
        format_table(
            rows,
            headers=["stage", "n", "hits", "misses", "total(s)", "p50(ms)", "p95(ms)"],
            float_format=".3f",
        )
    )
    return 0


def _cmd_export(db: TraceDB, output: Optional[str]) -> int:
    document = {
        "campaign": db.get_meta("campaign"),
        "schema_version": db.get_meta("schema_version"),
        "spans": db.spans(),
        "counters": db.counters(),
        "annotations": db.annotations(),
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"exported {len(document['spans'])} span(s) to {output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        db = open_trace(args.target)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.command == "summary":
            status = _cmd_summary(db, args.json)
        elif args.command == "tail":
            status = _cmd_tail(db, args.count, args.kind)
        elif args.command == "slow":
            status = _cmd_slow(db, args.count, args.kind)
        elif args.command == "stages":
            status = _cmd_stages(db)
        else:
            status = _cmd_export(db, args.output)
        # Flush here so that a closed pipe surfaces inside this try block.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``| head``).  Python flushes stdout again
        # at exit; point it at devnull so that flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    finally:
        db.close()


if __name__ == "__main__":
    sys.exit(main())
