"""``shamfinder`` command-line interface.

Sub-commands:

* ``build-db``  — build the SimChar database (and optionally merge UC) and
  write it to a JSON file;
* ``detect``    — detect IDN homographs of a reference list among candidate
  domains given on the command line or in files;
* ``inspect``   — describe a single domain (scripts, IDNA validity, warning
  dialog content if it looks like a homograph);
* ``measure``   — run the full synthetic measurement study (detection plus
  the concurrent enrichment pipeline, with ``--streaming``/``--jobs``/
  ``--stages``/``--resume``) and print the paper-shaped tables;
* ``scan``      — streaming zone-scale scan: chunked input, sharded workers,
  JSONL result sink with checkpoint/resume;
* ``track``     — longitudinal day-over-day tracking of dated zone
  snapshots: diff-driven incremental scans, persistent homograph timeline
  store with checkpoint/resume (paper Tables 6-7, Section 6.4);
* ``query``     — one-shot online homograph queries against a load-once
  reference index (optionally persisted in an ``--index-dir`` artifact);
* ``serve``     — online query service: by default a line-oriented loop
  (domains from stdin or a FIFO, one JSONL verdict per line); with
  ``--listen HOST:PORT`` a concurrent asyncio JSONL/HTTP server with
  micro-batching, backpressure, mmap-shared worker processes, and hot
  index reload (see ``docs/OPERATIONS.md``).

``scan`` and ``track`` accept the same ``--index-dir`` so long-running jobs
reuse the prebuilt reference index instead of re-preparing it per run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

# Importing numpy starts one OpenBLAS thread per CPU, and those threads spin
# while the import runs.  Nothing here calls BLAS, so one thread is enough;
# a value the user set is kept.  Must precede the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .detection.index import (
    ReferenceIndex,
    ReferenceIndexStore,
    build_reference_index,
    cached_reference_index,
)
from .detection.service import OnlineDetector
from .detection.shamfinder import ShamFinder
from .homoglyph.cache import cached_build, resolve_cache
from .homoglyph.confusables import load_confusables
from .homoglyph.database import HomoglyphDatabase
from .homoglyph.registry import (
    BuildContext,
    UnknownSourceError,
    default_registry,
)
from .idn.domain import DomainName
from .idn.idna_codec import IDNAError

if TYPE_CHECKING:
    from .detection.stream import ScanStats
    from .measurement.longitudinal import DayReport

# The measurement stack (and the DNS, web and language layers under it),
# the streaming scanner and the SimChar builder with its fonts are imported
# by the sub-commands that run them, so ``serve`` and ``query`` start
# without them.

__all__ = ["main", "build_parser", "positive_int", "CLIError"]


class CLIError(Exception):
    """A user-facing CLI failure: printed as one line, never a traceback."""

    def __init__(self, message: str, exit_code: int = 2) -> None:
        super().__init__(message)
        #: the exit status: 2 for a usage or input error, 1 for a failed run
        self.exit_code = exit_code


def _scan_workers_checked(handler: Callable[[argparse.Namespace], int]):
    """Wrap a sub-command that scans: a scan worker that died becomes one
    ``error:`` line and exit status 1."""

    @functools.wraps(handler)
    def run(args: argparse.Namespace) -> int:
        from .detection.stream import ScanWorkerError

        try:
            return handler(args)
        except ScanWorkerError as exc:
            raise CLIError(f"{exc}; rerun with --resume to continue from the last commit",
                           exit_code=1) from exc

    return run


def positive_int(text: str) -> int:
    """argparse type for 1-or-more integer options (``--jobs``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="shamfinder",
        description="Detect IDN homographs with the SimChar/UC homoglyph databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-db", help="build the homoglyph database")
    build.add_argument("--output", "-o", type=Path, required=True, help="output JSON path")
    build.add_argument("--threshold", type=int, default=4, help="pixel-difference threshold θ")
    build.add_argument("--no-uc", action="store_true", help="do not merge the UC confusables")
    build.add_argument("--databases", metavar="NAMES", default=None,
                       help="comma-separated database sources to union "
                            "(simchar,uc,invisible; default: simchar,uc)")
    build.add_argument("--jobs", "-j", type=positive_int, default=None,
                       help="worker processes for the pairwise scan (default: CPU count)")
    build.add_argument("--cache-dir", type=Path, default=None,
                       help="persist/reuse the built SimChar database in this directory")
    build.add_argument("--force", action="store_true",
                       help="rebuild even when a matching cache entry exists")

    detect = sub.add_parser("detect", help="detect homographs among candidate domains")
    detect.add_argument("candidates", nargs="*", help="candidate domain names")
    detect.add_argument("--candidates-file", type=Path, help="file with one candidate per line")
    detect.add_argument("--reference", nargs="*", default=None, help="reference domains")
    detect.add_argument("--reference-file", type=Path, help="file with one reference per line")
    detect.add_argument("--database", type=Path, help="homoglyph database JSON (default: build)")
    detect.add_argument("--font", type=Path, default=None,
                        help=".hex font file for the SimChar build (default: synthetic font)")
    detect.add_argument("--cache-dir", type=Path, default=None,
                        help="SimChar build cache used when no --database is given")
    detect.add_argument("--databases", metavar="NAMES", default=None,
                        help="comma-separated database sources to union "
                             "(simchar,uc,invisible; default: simchar,uc)")
    detect.add_argument("--json", action="store_true", help="emit JSON instead of text")

    def add_online_options(command: argparse.ArgumentParser) -> None:
        """Options shared by the two online-query subcommands."""
        command.add_argument("--reference", nargs="*", default=None, help="reference domains")
        command.add_argument("--reference-file", type=Path,
                             help="file with one reference per line")
        command.add_argument("--database", type=Path,
                             help="homoglyph database JSON (default: build)")
        command.add_argument("--font", type=Path, default=None,
                             help=".hex font file for the SimChar build (default: synthetic font)")
        command.add_argument("--cache-dir", type=Path, default=None,
                             help="SimChar build cache used when no --database is given")
        command.add_argument("--databases", metavar="NAMES", default=None,
                             help="comma-separated database sources to union "
                                  "(simchar,uc,invisible; default: simchar,uc)")
        command.add_argument("--index-dir", type=Path, default=None,
                             help="reference-index artifact store (load-once cold start)")
        command.add_argument("--build-index", action="store_true",
                             help="create the index dir if missing and force a rebuild "
                                  "of its artifact")
        command.add_argument("--revert", action="store_true",
                             help="include the Section 6.4 recovered original in each verdict")
        command.add_argument("--stats", action="store_true",
                             help="print service statistics to stderr at end of run")

    query = sub.add_parser("query", help="online homograph query for individual domains")
    query.add_argument("domains", nargs="+", help="domain names to query")
    add_online_options(query)
    query.add_argument("--json", action="store_true", help="emit JSONL instead of text")

    serve = sub.add_parser(
        "serve", help="online query service: stdin/FIFO loop or --listen TCP server")
    serve.add_argument("--input", "-i", type=Path, default=None,
                       help="read domains from this file or FIFO (default: stdin)")
    add_online_options(serve)
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve JSONL-over-TCP (+ minimal HTTP) on this address "
                            "instead of the stdin loop; PORT 0 picks a free port")
    serve.add_argument("--workers", type=positive_int, default=None,
                       help="worker processes executing query batches against the "
                            "mmap-shared index (requires --listen and --index-dir; "
                            "default: in-process execution)")
    serve.add_argument("--batch-window", type=float, default=0.005, metavar="SECONDS",
                       help="how long the batcher waits to coalesce queued queries "
                            "into one query_many call (default: 0.005)")
    serve.add_argument("--max-batch", type=positive_int, default=256,
                       help="largest coalesced batch (default: 256)")
    serve.add_argument("--max-pending", type=positive_int, default=1024,
                       help="bound on queued queries before new ones are rejected "
                            "with a retry-after error (default: 1024)")

    inspect = sub.add_parser("inspect", help="inspect a single domain")
    inspect.add_argument("domain", help="domain name (Unicode or xn-- form)")
    inspect.add_argument("--reference", nargs="*", default=None, help="reference domains")
    inspect.add_argument("--cache-dir", type=Path, default=None,
                         help="SimChar build cache directory")

    measure = sub.add_parser("measure", help="run the synthetic measurement study")
    measure.add_argument("--scale", type=float, default=0.05,
                         help="population scale relative to the default benchmark size")
    measure.add_argument("--seed", type=int, default=20190917)
    measure.add_argument("--cache-dir", type=Path, default=None,
                         help="SimChar build cache directory")
    measure.add_argument("--json", action="store_true", help="emit JSON instead of text")
    measure.add_argument("--streaming", action="store_true",
                         help="detect through the chunked streaming scan pipeline")
    measure.add_argument("--jobs", "-j", type=positive_int, default=1,
                         help="detection worker shards and enrichment executor threads")
    measure.add_argument("--chunk-size", type=positive_int, default=2000,
                         help="streaming-detection input lines per chunk")
    measure.add_argument("--batch-size", type=positive_int, default=256,
                         help="enrichment items per batch (stage checkpoint granularity)")
    measure.add_argument("--stages", type=str, default=None,
                         help="comma-separated enrichment stage subset "
                              "(dns,portscan,popularity,classify,blacklist,revert); "
                              "dependencies are pulled in automatically")
    measure.add_argument("--output-dir", type=Path, default=None,
                         help="directory for the detection sink and per-stage "
                              "JSONL outputs + checkpoints")
    measure.add_argument("--resume", action="store_true",
                         help="continue an interrupted study from --output-dir checkpoints")

    scan = sub.add_parser("scan", help="streaming scan of a domain-list file")
    scan.add_argument("--input", "-i", type=Path, required=True,
                      help="domain list, one name per line (# comments allowed)")
    scan.add_argument("--output", "-o", type=Path, required=True,
                      help="JSONL result sink (one detection per line)")
    scan.add_argument("--reference", nargs="*", default=None, help="reference domains")
    scan.add_argument("--reference-file", type=Path, help="file with one reference per line")
    scan.add_argument("--database", type=Path, help="homoglyph database JSON (default: build)")
    scan.add_argument("--cache-dir", type=Path, default=None,
                      help="SimChar build cache used when no --database is given")
    scan.add_argument("--databases", metavar="NAMES", default=None,
                      help="comma-separated database sources to union "
                           "(simchar,uc,invisible; default: simchar,uc)")
    scan.add_argument("--jobs", "-j", type=positive_int, default=1,
                      help="worker processes for the chunk shards")
    scan.add_argument("--chunk-size", type=positive_int, default=2000,
                      help="input lines per chunk (a checkpoint covers whole chunks)")
    scan.add_argument("--checkpoint", type=Path, default=None,
                      help="checkpoint file (default: <output>.checkpoint)")
    scan.add_argument("--resume", action="store_true",
                      help="continue a killed scan from its checkpoint")
    scan.add_argument("--all-domains", action="store_true",
                      help="match every input name, not only the xn-- IDNs")
    scan.add_argument("--progress-every", type=positive_int, default=None,
                      help="print a progress line each time the chunk count "
                           "passes a multiple of N")
    scan.add_argument("--index-dir", type=Path, default=None,
                      help="reuse/persist the prepared reference index in this artifact store")
    scan.add_argument("--build-index", action="store_true",
                      help="create the index dir if missing and force a rebuild of its artifact")

    track = sub.add_parser("track", help="longitudinal tracking of dated zone snapshots")
    track.add_argument("--snapshot", "-s", action="append", required=True,
                       metavar="DATE=PATH",
                       help="dated zone snapshot (YYYY-MM-DD=zonefile); repeatable")
    track.add_argument("--state-dir", type=Path, required=True,
                       help="directory for the timeline store and checkpoint")
    track.add_argument("--reference", nargs="*", default=None, help="reference domains")
    track.add_argument("--reference-file", type=Path, help="file with one reference per line")
    track.add_argument("--database", type=Path, help="homoglyph database JSON (default: build)")
    track.add_argument("--cache-dir", type=Path, default=None,
                       help="SimChar build cache used when no --database is given")
    track.add_argument("--jobs", "-j", type=positive_int, default=1,
                       help="worker processes for the per-day scan shards")
    track.add_argument("--chunk-size", type=positive_int, default=2000,
                       help="scan input lines per chunk")
    track.add_argument("--resume", action="store_true",
                       help="continue from the state-dir checkpoint, skipping "
                            "already-processed dates")
    track.add_argument("--report", type=Path, default=None,
                       help="write the per-day markdown report to this path")
    track.add_argument("--json", action="store_true", help="emit JSON instead of text")
    track.add_argument("--index-dir", type=Path, default=None,
                       help="reuse/persist the prepared reference index in this artifact store")
    track.add_argument("--build-index", action="store_true",
                       help="create the index dir if missing and force a rebuild of its artifact")

    return parser


def _load_lines(path: Path | None) -> list[str]:
    if path is None:
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return [line.strip() for line in text.splitlines() if line.strip()]


def _load_font(font_path: Path | None):
    """Load a ``.hex`` font file, or ``None`` for the default synthetic font."""
    if font_path is None:
        return None
    from .fonts.hexfont import HexFont

    try:
        return HexFont.from_file(font_path)
    except OSError as exc:
        raise CLIError(f"cannot read font file {font_path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CLIError(f"font file {font_path} is not a valid .hex font: {exc}") from exc


def _parse_databases(text: str | None) -> list[str] | None:
    """``--databases`` value → validated source-name list (None passthrough)."""
    if text is None:
        return None
    names = [token.strip().lower() for token in text.split(",") if token.strip()]
    if not names:
        raise CLIError("--databases expects a comma-separated list of source names")
    registry = default_registry()
    for name in names:
        if name not in registry:
            raise CLIError(
                f"unknown database source {name!r} "
                f"(known: {', '.join(registry.names())})"
            )
    return names


def _default_finder(
    database_path: Path | None,
    cache_dir: Path | None = None,
    font_path: Path | None = None,
    databases: str | None = None,
) -> ShamFinder:
    selection = _parse_databases(databases)
    if database_path is not None:
        if selection is not None:
            raise CLIError(
                "--database and --databases are mutually exclusive "
                "(a database file already fixes the pair set)"
            )
        try:
            return ShamFinder(HomoglyphDatabase.load(database_path))
        except OSError as exc:
            raise CLIError(
                f"cannot read homoglyph database {database_path}: {exc.strerror or exc}"
            ) from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise CLIError(
                f"homoglyph database {database_path} is not a valid database file: {exc}"
            ) from exc
    try:
        return ShamFinder.with_default_databases(
            font=_load_font(font_path), cache_dir=cache_dir, databases=selection,
        )
    except (UnknownSourceError, ValueError) as exc:
        raise CLIError(str(exc)) from exc


def _resolve_reference(args: argparse.Namespace) -> list[str]:
    reference = list(args.reference or []) + _load_lines(args.reference_file)
    if not reference:
        from .measurement.alexa import ReferenceList

        reference = ReferenceList.top_sites(1000).domains()
    return reference


def _resolve_index(
    finder: ShamFinder,
    reference: list[str],
    index_dir: Path | None,
    build_index: bool,
) -> ReferenceIndex:
    """Attach-or-build the reference index through an ``--index-dir`` store.

    A missing directory is only created under ``--build-index`` — a typo'd
    path must not silently trigger a full index build somewhere new.
    Without an index dir the index is built and held in memory.
    """
    if index_dir is None:
        return build_reference_index(finder, reference)
    if not index_dir.exists():
        if not build_index:
            raise CLIError(
                f"index directory {index_dir} does not exist "
                "(pass --build-index to create it)"
            )
    elif not index_dir.is_dir():
        raise CLIError(f"index directory {index_dir} is not a directory")
    elif not os.access(index_dir, os.R_OK):
        raise CLIError(f"index directory {index_dir} is not readable")
    store = ReferenceIndexStore(index_dir)
    index, _hit = cached_reference_index(finder, reference, store, force=build_index)
    return index


def _cmd_build_db(args: argparse.Namespace) -> int:
    from .homoglyph.simchar import SimCharBuilder

    if args.databases is not None and args.no_uc:
        raise CLIError("--databases and --no-uc are mutually exclusive "
                       "(select the sources explicitly instead)")
    selection = _parse_databases(args.databases)
    if selection is not None:
        builder = SimCharBuilder(threshold=args.threshold, jobs=args.jobs)
        registry = default_registry()
        try:
            built = registry.build(selection, context=BuildContext(
                simchar_builder=builder, cache_dir=args.cache_dir,
                force_rebuild=args.force,
            ))
        except (UnknownSourceError, ValueError) as exc:
            raise CLIError(str(exc)) from exc
        built.database.save(args.output)
        summary = {"output": str(args.output),
                   "databases": list(built.selection),
                   "source_config": built.source_config,
                   "merged_pairs": built.database.pair_count,
                   "invisible_codepoints": (len(built.invisible)
                                            if built.invisible is not None else 0),
                   "jobs": builder.jobs}
        print(json.dumps(summary, indent=2))
        return 0
    builder = SimCharBuilder(threshold=args.threshold, jobs=args.jobs)
    cache = resolve_cache(args.cache_dir)
    result, cache_hit = cached_build(builder, cache, force=args.force)
    database = result.database
    if not args.no_uc:
        uc = load_confusables().to_database().restricted_to_idna(name="UC∩IDNA")
        database = database.union(uc, name="UC∪SimChar")
    database.save(args.output)
    summary = {"output": str(args.output), **result.summary(),
               "merged_pairs": database.pair_count,
               "jobs": builder.jobs,
               "cache": {
                   "enabled": cache is not None,
                   "hit": cache_hit,
                   "dir": str(cache.cache_dir) if cache is not None else None,
               }}
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    candidates = list(args.candidates) + _load_lines(args.candidates_file)
    if not candidates:
        print("no candidate domains given", file=sys.stderr)
        return 2
    reference = _resolve_reference(args)
    finder = _default_finder(args.database, args.cache_dir, args.font, args.databases)
    report = finder.detect(candidates, reference)
    if args.json:
        payload = [
            {
                "idn": d.idn,
                "unicode": d.idn_unicode,
                "reference": d.reference,
                "substitutions": [s.describe() for s in d.substitutions],
                "sources": sorted(d.sources),
            }
            for d in report
        ]
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        if not len(report):
            print("no homographs detected")
        for detection in report:
            print(detection.describe())
    return 0


def _online_detector(args: argparse.Namespace) -> OnlineDetector:
    """Shared ``query``/``serve`` wiring: finder + index + detector."""
    reference = _resolve_reference(args)
    finder = _default_finder(args.database, args.cache_dir, args.font, args.databases)
    index = _resolve_index(finder, reference, args.index_dir, args.build_index)
    return OnlineDetector(finder, index, include_revert=args.revert)


def _render_verdict(verdict) -> str:
    """One human-readable line per verdict (the non-``--json`` format)."""
    if verdict.error is not None:
        return f"{verdict.domain}: invalid ({verdict.error})"
    if not verdict.is_homograph:
        suffix = " [IDN]" if verdict.is_idn else ""
        return f"{verdict.domain}: no homograph match{suffix}"
    targets = ", ".join(sorted({d.reference for d in verdict.detections}))
    revert = f"; reverts to {verdict.revert}" if verdict.revert else ""
    return f"{verdict.domain}: homograph of {targets} ({verdict.unicode}){revert}"


def _cmd_query(args: argparse.Namespace) -> int:
    detector = _online_detector(args)
    verdicts = detector.query_many(args.domains)
    for verdict in verdicts:
        if args.json:
            print(json.dumps(verdict.as_dict(), ensure_ascii=False))
        else:
            print(_render_verdict(verdict))
    if args.stats:
        print(json.dumps(detector.stats(), indent=2), file=sys.stderr)
    return 0 if all(v.error is None for v in verdicts) else 1


def _parse_listen(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) → ``(host, port)``."""
    host, _, port_text = text.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise CLIError(f"--listen expects HOST:PORT, got {text!r}") from None
    if not 0 <= port <= 65535:
        raise CLIError(f"--listen port out of range: {port}")
    return host, port


@contextlib.contextmanager
def _collector_paused():
    """Run ``serve`` set-up without cyclic collections, then freeze its objects.

    Everything set-up allocates (homoglyph pairs, the index, module state)
    lives as long as the server, so a collection during set-up only rescans
    it.  On success the survivors are frozen out of every later pass (and
    out of forked workers' copy-on-write pages); the caller unfreezes them
    when the command returns.  The collector is restored in any case.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if collecting:
            gc.enable()


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """The ``serve --listen`` network server (see docs/OPERATIONS.md)."""
    import asyncio

    from .serving import HomographServer, ServeConfig, WorkerPool

    started = time.perf_counter()
    host, port = _parse_listen(args.listen)
    workers = args.workers or 0
    if workers and args.index_dir is None:
        raise CLIError("--workers requires --index-dir "
                       "(worker processes attach to the packed index artifact)")
    if args.batch_window < 0:
        raise CLIError("--batch-window must be >= 0")
    with _collector_paused():
        reference = _resolve_reference(args)
        finder = _default_finder(args.database, args.cache_dir, args.font, args.databases)
        finder_ready = time.perf_counter()
        index = _resolve_index(finder, reference, args.index_dir, args.build_index)
        detector = OnlineDetector(finder, index, include_revert=args.revert)
        index_ready = time.perf_counter()

    pool = None
    if workers:
        if not detector.index.mapped:
            raise CLIError("--workers needs an mmap-able index artifact "
                           "(rebuild the --index-dir with --build-index)")
        try:
            pool = WorkerPool(finder, detector.index.prepared.path,
                              detector.index.fingerprint,
                              workers=workers, include_revert=args.revert)
            pool.warm()
        except Exception as exc:
            if pool is not None:
                pool.close()
            raise CLIError(f"worker pool failed to start: {exc}") from exc

    def reloader() -> ReferenceIndex:
        # Re-resolve the reference list so an edited --reference-file is
        # picked up, then rebuild/reload through the store when one exists.
        fresh = _resolve_reference(args)
        store = ReferenceIndexStore(args.index_dir) if args.index_dir is not None else None
        return cached_reference_index(finder, fresh, store)[0]

    config = ServeConfig(host=host, port=port, batch_window=args.batch_window,
                         max_batch=args.max_batch, max_pending=args.max_pending,
                         workers=workers)
    server = HomographServer(detector, config, pool=pool, reloader=reloader)

    async def _run() -> None:
        bound_host, bound_port = await server.start()
        listening = time.perf_counter()
        print(json.dumps({
            "listening": f"{bound_host}:{bound_port}",
            "workers": workers,
            "fingerprint": server.fingerprint,
            # Milliseconds since the command started (imports not included).
            "setup_ms": {
                "finder": round((finder_ready - started) * 1000, 1),
                "index": round((index_ready - finder_ready) * 1000, 1),
                "total": round((listening - started) * 1000, 1),
            },
        }), file=sys.stderr, flush=True)
        await server.run()

    asyncio.run(_run())
    if args.stats:
        print(json.dumps(server.stats(), indent=2), file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        try:
            return _cmd_serve_listen(args)
        finally:
            gc.unfreeze()   # what _collector_paused froze
    if args.workers:
        raise CLIError("--workers requires --listen")
    detector = _online_detector(args)
    if args.input is None:
        handle = sys.stdin
    else:
        try:
            # line-buffered so a FIFO writer sees each verdict promptly
            handle = open(args.input, "r", encoding="utf-8", errors="replace")
        except OSError as exc:
            raise CLIError(f"cannot read {args.input}: {exc.strerror or exc}") from exc
    try:
        for line in handle:
            domain = line.strip()
            if not domain or domain.startswith("#"):
                continue
            verdict = detector.query(domain)
            print(json.dumps(verdict.as_dict(), ensure_ascii=False), flush=True)
    finally:
        if handle is not sys.stdin:
            handle.close()
    if args.stats:
        print(json.dumps(detector.stats(), indent=2), file=sys.stderr)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        name = DomainName(args.domain)
    except (IDNAError, ValueError) as exc:
        print(f"invalid domain name: {exc}", file=sys.stderr)
        return 2
    print(f"ascii:     {name.ascii}")
    print(f"unicode:   {name.unicode}")
    print(f"idn:       {name.is_idn}")
    print(f"scripts:   {', '.join(sorted(name.scripts)) or 'none'}")
    print(f"mixed:     {name.is_mixed_script}")
    if name.has_idn_registrable_label:
        from .countermeasure.warning import WarningGenerator
        from .measurement.alexa import ReferenceList

        finder = ShamFinder.with_default_databases(cache_dir=args.cache_dir)
        reference = args.reference or ReferenceList.top_sites(1000).domains()
        generator = WarningGenerator(finder.database, reference)
        warning = generator.warning_for(name)
        if warning is not None:
            print()
            print(warning.render_text())
    return 0


@_scan_workers_checked
def _cmd_measure(args: argparse.Namespace) -> int:
    from .measurement.domainlists import ZoneConfig, generate_population
    from .measurement.pipeline import PipelineError
    from .measurement.study import MeasurementStudy
    from .detection.stream import ScanResumeError

    if args.resume and args.output_dir is None:
        print("--resume requires --output-dir", file=sys.stderr)
        return 2
    config = ZoneConfig.paper_scaled(scale=args.scale, seed=args.seed)
    population = generate_population(config)
    finder = ShamFinder.with_default_databases(cache_dir=args.cache_dir)
    study = MeasurementStudy(population, finder)
    try:
        results = study.run(
            streaming=args.streaming,
            chunk_size=args.chunk_size,
            jobs=args.jobs,
            batch_size=args.batch_size,
            stages=[s.strip() for s in args.stages.split(",") if s.strip()]
            if args.stages else None,
            output_dir=args.output_dir,
            resume=args.resume,
        )
    except (PipelineError, ScanResumeError) as exc:
        print(f"cannot run study: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = results.summary()
        if results.stage_timings:
            payload["stage_timings"] = [t.as_dict() for t in results.stage_timings]
        print(json.dumps(payload, ensure_ascii=False, indent=2, default=str))
        return 0
    print("== Dataset (Table 6) ==")
    for source, domains, idns in results.dataset_table:
        print(f"  {source:<18} {domains:>10,} domains  {idns:>8,} IDNs")
    print("== Languages (Table 7) ==")
    for language, count, fraction in results.language_table[:5]:
        print(f"  {language:<12} {count:>8,}  {fraction:5.1f}%")
    print("== Detections (Table 8) ==")
    for database, count in results.detection_counts.items():
        print(f"  {database:<14} {count:>6,}")
    print("== Top targets (Table 9) ==")
    for domain, count in results.top_targets:
        print(f"  {domain:<24} {count:>4}")
    print("== Port scan (Table 10) ==")
    for label, count in results.portscan.as_table_rows():
        print(f"  {label:<18} {count:>6,}")
    print("== Classification (Table 12) ==")
    for label, count in results.classification.as_table_rows():
        print(f"  {label:<16} {count:>6,}")
    print("== Blacklists (Table 14) ==")
    for database, feeds in results.blacklist_table.items():
        feed_text = ", ".join(f"{name}: {count}" for name, count in feeds.items())
        print(f"  {database:<14} {feed_text}")
    if results.stage_timings:
        print("== Enrichment stages ==")
        for timing in results.stage_timings:
            resumed = "  (resumed)" if timing.resumed else ""
            print(f"  {timing.name:<12} {timing.batches:>4} batches "
                  f"{timing.records:>6} records  {timing.seconds:8.3f}s{resumed}")
    return 0


def _scan_progress(every: int) -> Callable[[ScanStats], None]:
    """A scan progress callback printing a line to stderr whenever
    ``chunks_done`` crosses a multiple of *every*.

    One commit may cover several chunks, so a multiple can be passed over
    rather than hit; each commit prints at most one line.  The count of
    crossed multiples starts at zero, so a resumed scan prints at its
    first commit past chunk *every*.
    """
    printed = 0

    def progress(stats: ScanStats) -> None:
        nonlocal printed
        if stats.chunks_done // every > printed:
            printed = stats.chunks_done // every
            print(
                f"chunk {stats.chunks_done}: {stats.domains_seen:,} domains, "
                f"{stats.detection_count:,} detections, "
                f"{stats.skipped_count:,} skipped",
                file=sys.stderr,
            )

    return progress


@_scan_workers_checked
def _cmd_scan(args: argparse.Namespace) -> int:
    from .detection.stream import ScanResumeError, StreamingScanner

    reference = _resolve_reference(args)
    finder = _default_finder(args.database, args.cache_dir, None, args.databases)
    index = _resolve_index(finder, reference, args.index_dir, args.build_index)
    scanner = StreamingScanner(
        finder,
        reference,
        chunk_size=args.chunk_size,
        jobs=args.jobs,
        idn_only=not args.all_domains,
        prepared=index.prepared,
    )

    try:
        stats = scanner.scan_file(
            args.input,
            args.output,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            progress=_scan_progress(args.progress_every) if args.progress_every else None,
        )
    except ScanResumeError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"output": str(args.output), **stats.as_dict()}, indent=2))
    return 0


@_scan_workers_checked
def _cmd_track(args: argparse.Namespace) -> int:
    from .measurement.longitudinal import LongitudinalTracker, TrackResumeError
    from .measurement.reporting import render_tracking_report

    snapshots: list[tuple[str, str]] = []
    for item in args.snapshot:
        date, separator, path = item.partition("=")
        if not separator or not date or not path:
            print(f"--snapshot must be DATE=PATH, got {item!r}", file=sys.stderr)
            return 2
        snapshots.append((date, path))
    reference = _resolve_reference(args)
    finder = _default_finder(args.database, args.cache_dir)
    index = _resolve_index(finder, reference, args.index_dir, args.build_index)
    tracker = LongitudinalTracker(
        finder,
        reference,
        args.state_dir,
        chunk_size=args.chunk_size,
        jobs=args.jobs,
        prepared=index.prepared,
    )

    def progress(report: DayReport) -> None:
        print(
            f"{report.date}: {report.idns:,} IDNs "
            f"(+{report.added}/-{report.removed}), scanned {report.scanned:,}, "
            f"{report.new_homographs} new / {report.retired_homographs} retired, "
            f"{report.active_homographs} active"
            + (" [full rescan]" if report.full_rescan else ""),
            file=sys.stderr,
        )

    try:
        result = tracker.track(snapshots, resume=args.resume, progress=progress)
    except (TrackResumeError, ValueError) as exc:
        print(f"cannot track: {exc}", file=sys.stderr)
        return 2
    if args.report is not None:
        args.report.write_text(render_tracking_report(result), encoding="utf-8")
    if args.json:
        payload = {
            "state_dir": str(args.state_dir),
            "stats": result.stats.as_dict(),
            "days": [report.as_dict() for report in result.day_reports],
            "active": [entry.as_dict() for entry in result.timeline.active_entries()],
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0
    print(f"== Tracking ({len(result.day_reports)} days) ==")
    for report in result.day_reports:
        print(f"  {report.date}  {report.idns:>8,} IDNs  +{report.added:<5} "
              f"-{report.removed:<5} {report.new_homographs:>4} new  "
              f"{report.retired_homographs:>4} retired  "
              f"{report.active_homographs:>5} active")
    print("== Active homographs ==")
    for entry in result.timeline.active_entries():
        revert = f"  reverts to {entry.revert}" if entry.revert else ""
        print(f"  {entry.unicode:<28} imitates {', '.join(entry.references)} "
              f"(first seen {entry.first_seen}){revert}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build-db": _cmd_build_db,
        "detect": _cmd_detect,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "inspect": _cmd_inspect,
        "measure": _cmd_measure,
        "scan": _cmd_scan,
        "track": _cmd_track,
    }
    try:
        return handlers[args.command](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
