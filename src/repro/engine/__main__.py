"""Command-line entry point: ``python -m repro.engine``.

Runs a multi-suite exploration campaign and writes a JSON report, e.g.::

    python -m repro.engine --suite paper --output report.json
    python -m repro.engine --suite livermore --suite dsp \\
        --early-reject --cache-dir .repro_engine_cache

The cache directory persists across invocations; a second identical run
is served almost entirely from it (the report's ``cache_hits`` /
``cache_misses`` counters show the effect).  The mapping-artifact store
(``--artifact-dir``, defaulting to the cache directory) does the same for
the mapping stages: warm runs fetch base schedules and profiles by
content hash instead of re-scheduling, which the report's
``artifact_hits`` counter and per-stage ``mapping_stages`` timings show.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.exploration import ExplorationConstraints
from repro.engine.jobs import SUITE_NAMES, CampaignSpec
from repro.engine.runner import SUMMARY_HEADERS, CampaignRunner
from repro.errors import ReproError
from repro.utils.serialization import to_json
from repro.utils.tabulate import format_table


def _max_age(text: str) -> float:
    """Argparse type for ``--gc-max-age``: non-negative seconds.

    Checked while parsing, so a bad value fails before any mapping.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid age: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value:g}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Run an RSP design-space exploration campaign.",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        dest="suites",
        help="kernel suite to explore (repeatable; default: paper)",
    )
    parser.add_argument("--name", default="campaign", help="campaign name used in the report")
    parser.add_argument(
        "--backend",
        default="serial",
        help="evaluation backend; only serial remains (the thread and "
        "process backends were removed)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="evaluation workers; only 1 remains"
    )
    parser.add_argument("--chunk-size", type=int, default=8, help="candidates per evaluation wave")
    parser.add_argument(
        "--max-rows-shared", type=int, default=2, help="largest shr in the candidate grid"
    )
    parser.add_argument(
        "--max-cols-shared", type=int, default=2, help="largest shc in the candidate grid"
    )
    parser.add_argument(
        "--stages",
        type=int,
        nargs="+",
        default=(1, 2),
        help="pipeline-stage options of the grid (default: 1 2)",
    )
    parser.add_argument(
        "--max-execution-time-ratio",
        type=float,
        default=None,
        help="reject candidates slower than this multiple of the base",
    )
    parser.add_argument(
        "--max-stall-cycles",
        type=int,
        default=None,
        help="reject candidates with more total estimated stall cycles",
    )
    parser.add_argument(
        "--early-reject",
        action="store_true",
        help="skip provably dominated candidates before stall estimation",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".repro_engine_cache"),
        help="persistent evaluation cache directory (default: .repro_engine_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the persistent evaluation cache"
    )
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="persistent mapping-artifact store directory (default: the "
        "evaluation cache directory; --no-cache therefore also disables "
        "the store unless an explicit --artifact-dir is given)",
    )
    parser.add_argument(
        "--no-artifact-cache",
        action="store_true",
        help="disable the persistent mapping-artifact store "
        "(base schedules and profiles are recomputed every run)",
    )
    parser.add_argument(
        "--gc-max-age",
        type=_max_age,
        default=None,
        metavar="SECONDS",
        help="after the campaign, evict store entries not written or read "
        "for this many seconds",
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="after the campaign, compact the stores (drop superseded and "
        "corrupt records and leftover temporary files)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the JSON campaign report here"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary table")
    return parser


def _store_summary(report) -> str:
    """One ``store:`` line: entry/disk totals and the janitor outcome."""
    stats = report.store_stats
    janitor = stats.get("janitor")
    artifacts = stats.get("artifacts")
    evaluations = stats.get("evaluations") or []
    entries = sum(snapshot.entries for snapshot in evaluations)
    disk = sum(snapshot.disk_bytes for snapshot in evaluations)
    parts = [f"evaluations: {entries} records / {disk} B"]
    if artifacts is not None:
        parts.insert(0, f"artifacts: {artifacts.entries} entries / {artifacts.disk_bytes} B")
    line = "store: " + "  ".join(parts)
    if janitor:
        evicted = sum(
            sweep.evicted
            for sweep in list(janitor.get("evaluations") or [])
            + ([janitor["artifacts"]] if janitor.get("artifacts") else [])
        )
        line += f"  janitor: {evicted} evicted, compacted={janitor.get('compacted')}"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.backend != "serial" or args.workers != 1:
        raise ReproError(
            "the parallel evaluation backends were removed: every campaign "
            "evaluates serially in batched waves; drop --backend/--workers "
            "or pass --backend serial --workers 1"
        )
    spec = CampaignSpec(
        name=args.name,
        suites=tuple(args.suites or ("paper",)),
        max_rows_shared=args.max_rows_shared,
        max_cols_shared=args.max_cols_shared,
        stage_options=tuple(args.stages),
        constraints=ExplorationConstraints(
            max_execution_time_ratio=args.max_execution_time_ratio,
            max_stall_cycles=args.max_stall_cycles,
        ),
        chunk_size=args.chunk_size,
        early_reject=args.early_reject,
    )
    artifact_dir = None
    if not args.no_artifact_cache:
        if args.artifact_dir is not None:
            artifact_dir = args.artifact_dir
        elif not args.no_cache:
            artifact_dir = args.cache_dir
    runner = CampaignRunner(
        spec,
        cache_dir=None if args.no_cache else args.cache_dir,
        artifact_dir=artifact_dir,
        gc_max_age=args.gc_max_age,
        compact=args.compact,
    )
    report, _ = runner.run()

    if not args.quiet:
        print(
            format_table(
                report.summary_rows(),
                headers=list(SUMMARY_HEADERS),
                title=f"campaign {report.campaign!r} "
                f"[chunk {report.chunk_size}]",
            )
        )
        print(
            f"jobs: {report.total_jobs}  cache: {report.cache_hits} hits / "
            f"{report.cache_misses} misses ({100.0 * report.cache_hit_rate:.1f}% hit rate)  "
            f"early-rejected: {report.early_rejected}  "
            f"wall: {report.wall_seconds:.2f}s"
        )
        stage_summary = "  ".join(
            f"{stage}: {timing['seconds']:.3f}s"
            f" ({timing['hits']}h/{timing['misses']}m"
            f", p50 {1e3 * timing.get('p50', 0.0):.2f}ms"
            f"/p95 {1e3 * timing.get('p95', 0.0):.2f}ms)"
            for stage, timing in report.mapping_stages.items()
        )
        print(
            f"artifacts: {report.artifact_hits} hits / {report.artifact_misses} misses  "
            f"mapping: {report.mapping_seconds:.3f}s"
            + (f"  [{stage_summary}]" if stage_summary else "")
        )
        print(_store_summary(report))

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "report": report,
            "cache_hit_rate": report.cache_hit_rate,
            "suite_selections": {
                suite.suite: {"selected": suite.selected, "kind": suite.selected_kind}
                for suite in report.suites
            },
        }
        args.output.write_text(to_json(payload) + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
