"""Command-line entry point: ``python -m repro.service``.

Serves a store directory to processes or machines sharing one store, e.g.::

    python -m repro.service --root /srv/repro-store --port 8731

    # elsewhere, any number of times, on any machine:
    python -m repro.engine --suite paper --store-url http://store-host:8731

The default ``pickle`` backend accepts every value a campaign sends
(evaluation records as JSON, mapping artifacts as opaque binary);
``--backend jsonl`` serves a records-only store that rejects binary
payloads with ``415``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.service.server import StoreServer
from repro.store import PickleDirBackend, ShardedJsonlBackend


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a store directory over HTTP to processes or "
        "machines sharing one store.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        required=True,
        help="store directory the service owns (created on demand)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8731, help="listen port (default: 8731; 0 = ephemeral)"
    )
    parser.add_argument(
        "--backend",
        choices=("pickle", "jsonl"),
        default="pickle",
        help="storage backend: pickle accepts any value (default), "
        "jsonl is records-only (binary payloads get 415)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="record one service.request span per handled request into "
        "DIR/trace.db (inspect with python -m repro.trace slow DIR "
        "--kind request)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the startup banner")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.root.mkdir(parents=True, exist_ok=True)
    if args.backend == "jsonl":
        backend = ShardedJsonlBackend(args.root / "records.jsonl")
    else:
        backend = PickleDirBackend(args.root)
    collector = None
    access_log = None
    if args.trace is not None:
        from repro.trace.collect import TraceCollector

        collector = TraceCollector(args.trace, campaign="repro.service").install()
        # Flush opportunistically from the request path: a long-lived
        # service otherwise buffers spans forever.
        access_log = lambda *event: collector.maybe_flush(64)  # noqa: E731
    server = StoreServer(backend, host=args.host, port=args.port, access_log=access_log)
    if not args.quiet:
        print(
            f"repro store service: {args.backend} backend on {args.root} at {server.url}",
            flush=True,
        )
    # SIGTERM (systemd, docker stop, CI teardown) must drain the trace
    # buffer like Ctrl-C does, not kill the process mid-flush.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        server.httpd.server_close()
        if collector is not None:
            collector.uninstall()
            collector.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
