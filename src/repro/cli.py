"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``describe``
    Print the Table 1 system configuration.
``list-benchmarks``
    List the SPEC models and PowerGraph applications.
``compare``
    Run one workload on the baseline and Silent Shredder systems and
    print the four headline metrics.
``figure``
    Regenerate one of the paper's figures/tables and print its data.
``events``
    Run one workload and print its flight-recorder event log (shreds,
    zero-fill elisions, counter overflows, ...) as canonical
    JSON-lines, optionally filtered with ``--match``.
``cache sweep``
    Apply LRU size/age bounds to the persistent result cache.
``stats``
    Render a ``--emit-metrics`` JSON-lines dump as a table,
    Prometheus text, or a chrome://tracing span trace.
``analyze``
    Run the repo's static invariant checker (``REPRO###`` rules) as
    one cold pass over every file; see ``docs/ANALYSIS.md``.
    ``--import-graph dot`` exports the layered import graph instead.

``compare``, ``figure`` and ``events`` run through one
:class:`~repro.exec.Runner`: ``--jobs N`` fans the batch out over a
local fork pool, with stdout byte-identical to the serial run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from .analysis import (ablation_policies, fig12_counter_cache_sweep,
                       fig4_memset, fig5_zeroing_writes, render_table,
                       rows_to_csv, run_pair, table2_mechanisms)
from .analysis.figures import fig8_to_11_study, study_summary
from .config import bench_config, default_config
from .exec import (ProgressEvent, Runner, powergraph_experiment,
                   spec_experiment)
from .workloads import SPEC_BENCHMARKS

POWERGRAPH_NAMES = ("PAGERANK", "SIMPLE_COLORING", "KCORE")

FIGURES = ("fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
           "table2", "policies")


def _cmd_describe(args: argparse.Namespace) -> int:
    config = default_config() if args.full else bench_config()
    title = "Table 1 (full-size)" if args.full else "benchmark (scaled) system"
    print(f"# {title}")
    print(config.describe())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("SPEC CPU2006 models:")
    for name in SPEC_BENCHMARKS:
        print(f"  {name}")
    print("PowerGraph applications:")
    for name in POWERGRAPH_NAMES:
        print(f"  {name}")
    return 0


def _cli_progress(event: ProgressEvent) -> None:
    suffix = "" if event.source == "worker" else f" ({event.source})"
    print(f"[{event.completed}/{event.total}] {event.label}{suffix}",
          file=sys.stderr, flush=True)


@contextlib.contextmanager
def _runner_context(args: argparse.Namespace):
    """The execution engine for a CLI invocation, with lifecycle.

    ``--jobs`` picks serial or a local fork pool; progress goes to
    stderr when it is above 1. On exit, ``--emit-metrics PATH`` writes
    the run's merged registry (simulation metrics folded in from every
    completed report, plus batch telemetry) and recorded spans as a
    JSON-lines dump.
    """
    from .obs import MetricsRegistry, default_tracer, write_jsonl
    metrics = MetricsRegistry()
    progress = _cli_progress if args.jobs > 1 else None
    runner = Runner(jobs=args.jobs, use_cache=not args.no_cache,
                    progress=progress, metrics=metrics)
    yield runner
    if args.emit_metrics:
        with open(args.emit_metrics, "w") as stream:
            write_jsonl(metrics.snapshot(), stream,
                        spans=default_tracer().snapshot(),
                        meta={"command": args.command,
                              "jobs": runner.jobs})
        print(f"(metrics written to {args.emit_metrics})",
              file=sys.stderr)


def _cmd_compare(args: argparse.Namespace) -> int:
    name = args.benchmark.upper()
    if name in SPEC_BENCHMARKS:
        experiment = spec_experiment(name, cores=args.cores, scale=args.scale)
    elif name in POWERGRAPH_NAMES:
        experiment = powergraph_experiment(name, num_nodes=args.nodes)
    else:
        print(f"unknown benchmark {args.benchmark!r}; try list-benchmarks",
              file=sys.stderr)
        return 2
    with _runner_context(args) as runner:
        result = run_pair(experiment, runner=runner)
    print(render_table([result.row()],
                       title=f"{name} — baseline vs Silent Shredder"))
    return 0


def _emit_rows(args: argparse.Namespace, rows, title: str) -> None:
    print(render_table(rows, title=title))
    if getattr(args, "csv", None):
        with open(args.csv, "w", newline="") as stream:
            rows_to_csv(rows, stream)
        print(f"(csv written to {args.csv})")


def _cmd_figure(args: argparse.Namespace) -> int:
    which = args.name.lower()
    from .obs import span
    with _runner_context(args) as runner, \
            span(f"figure.{which}", attrs={"scale": args.scale}):
        return _run_figure(args, which, runner)


def _run_figure(args: argparse.Namespace, which: str, runner: Runner) -> int:
    if which == "fig4":
        sizes = [256 << 10, 512 << 10, 1 << 20, 2 << 20]
        rows = fig4_memset(sizes)
        _emit_rows(args, rows, "Figure 4 — memset timing")
    elif which == "fig5":
        rows = fig5_zeroing_writes(list(POWERGRAPH_NAMES), num_nodes=1200)
        _emit_rows(args, rows, "Figure 5 — zeroing writes")
    elif which in ("fig8", "fig9", "fig10", "fig11"):
        benchmarks = None
        if args.benchmarks:
            benchmarks = [name.strip().upper()
                          for name in args.benchmarks.split(",") if name.strip()]
        results = fig8_to_11_study(benchmarks=benchmarks, scale=args.scale,
                                   cores=args.cores, runner=runner)
        column = {"fig8": ("write_savings_pct", "Figure 8 — write savings"),
                  "fig9": ("read_savings_pct", "Figure 9 — read savings"),
                  "fig10": ("read_speedup", "Figure 10 — read speedup"),
                  "fig11": ("relative_ipc", "Figure 11 — relative IPC")}[which]
        rows = [{"benchmark": r.workload, column[0]: r.row()[column[0]]}
                for r in results]
        _emit_rows(args, rows, column[1])
        summary = study_summary(results)
        print()
        for key, value in summary.items():
            print(f"{key}: {value:.2f}")
    elif which == "fig12":
        sizes = [2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10]
        rows = fig12_counter_cache_sweep(sizes, scale=args.scale,
                                         runner=runner)
        _emit_rows(args, rows, "Figure 12 — counter cache sweep")
    elif which == "table2":
        rows = table2_mechanisms(runner=runner)
        _emit_rows(args, rows, "Table 2 — mechanisms")
    elif which == "policies":
        rows = ablation_policies(runner=runner)
        _emit_rows(args, rows, "Shred-policy ablation (section 4.2)")
    else:
        print(f"unknown figure {args.name!r}; choose from {FIGURES}",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# The flight recorder (repro events)
# ---------------------------------------------------------------------------

def _events_experiment(args: argparse.Namespace, name: str):
    """The experiment one ``repro events`` invocation runs."""
    if name in SPEC_BENCHMARKS:
        return spec_experiment(name, cores=args.cores, scale=args.scale)
    if name in POWERGRAPH_NAMES:
        return powergraph_experiment(name, num_nodes=args.nodes)
    print(f"unknown benchmark {args.benchmark!r}; try list-benchmarks",
          file=sys.stderr)
    return None


def _cmd_events(args: argparse.Namespace) -> int:
    from .obs import write_events_jsonl
    experiment = _events_experiment(args, args.benchmark.upper())
    if experiment is None:
        return 2
    experiment = experiment.baseline_variant() if args.baseline \
        else experiment.shredder_variant()
    with _runner_context(args) as runner:
        report = runner.run([experiment])[0]
    count = write_events_jsonl(report.events, sys.stdout, match=args.match)
    print(f"({count} of {len(report.events)} recorded events shown)",
          file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .errors import ObservabilityError
    from .obs import (read_jsonl, render_metrics_table, render_spans_table,
                      to_prometheus, to_trace_events, write_jsonl)
    try:
        with open(args.path) as stream:
            dump = read_jsonl(stream)
    except (OSError, ObservabilityError) as error:
        print(f"error: cannot read metrics dump {args.path}: {error}",
              file=sys.stderr)
        return 2
    if args.format == "prom":
        sys.stdout.write(to_prometheus(dump.metrics))
    elif args.format == "jsonl":
        write_jsonl(dump.metrics, sys.stdout, spans=dump.spans,
                    meta=dump.meta)
    elif args.format == "trace":
        json.dump(to_trace_events(dump.spans), sys.stdout)
        sys.stdout.write("\n")
    else:
        print(render_metrics_table(dump.metrics, prefix=args.prefix or "",
                                   title=f"metrics — {args.path}"))
        if dump.spans and not args.prefix:
            print()
            print(render_spans_table(dump.spans, title="spans"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Exit 0 clean, 1 violations, 2 internal/usage error."""
    import json

    from .lint import (Analyzer, render_json, render_sarif, render_text,
                       rule_catalog)
    if args.list_rules:
        for code, entry in rule_catalog().items():
            print(f"{code}  [{entry['pass']}]  {entry['summary']}")
        return 0
    try:
        analyzer = Analyzer(args.root, select=args.select,
                            ignore=args.ignore)
        if args.import_graph:
            from .lint.passes.layering import render_import_graph
            sys.stdout.write(
                render_import_graph(analyzer.source_files(args.paths or None),
                                    fmt=args.import_graph))
            return 0
        report = analyzer.run(args.paths or None)
    except Exception as error:  # internal error, not a finding
        print(f"analyze: internal error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        rendered = json.dumps(render_json(report), indent=2,
                              sort_keys=True) + "\n"
    elif args.format == "sarif":
        rendered = json.dumps(render_sarif(report), indent=2,
                              sort_keys=True) + "\n"
    else:
        rendered = render_text(report) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


def _parse_size(text: str) -> int:
    """``'512'``, ``'64K'``, ``'100M'``, ``'2G'`` → bytes."""
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    cleaned = text.strip().upper()
    factor = 1
    if cleaned and cleaned[-1] in suffixes:
        factor = suffixes[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(cleaned) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; use an integer with optional K/M/G suffix")
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0, got {text!r}")
    return value


def _cmd_cache_sweep(args: argparse.Namespace) -> int:
    from .exec import ResultCache, default_cache
    if args.max_bytes is None and args.max_age_days is None:
        print("cache sweep needs --max-bytes and/or --max-age-days",
              file=sys.stderr)
        return 2
    cache = ResultCache(args.dir) if args.dir else default_cache()
    result = cache.sweep(max_bytes=args.max_bytes,
                         max_age_days=args.max_age_days)
    print(f"{cache.directory}: {result.describe()}")
    return 0


def _cmd_export_config(args: argparse.Namespace) -> int:
    from .serialization import save_config
    config = default_config() if args.full else bench_config()
    save_config(config, args.path)
    print(f"config written to {args.path}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _runner_flags() -> argparse.ArgumentParser:
    """The parent parser of ``compare``, ``figure`` and ``events``: each
    runner flag is defined once, so its spelling, default and help text
    agree across the three."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the experiment runner "
                             "(default: 1, serial)")
    parent.add_argument("--no-cache", action="store_true",
                        help="ignore and do not populate the persistent "
                             "result cache")
    parent.add_argument("--emit-metrics", metavar="PATH", default=None,
                        help="write the run's merged metrics registry and "
                             "spans as a JSON-lines dump (read it back "
                             "with 'repro stats')")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Silent Shredder (ASPLOS 2016) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    runner_flags = _runner_flags()

    describe = sub.add_parser("describe", help="print the system config")
    describe.add_argument("--full", action="store_true",
                          help="the paper's full-size Table 1 instead of "
                               "the scaled benchmark system")
    describe.set_defaults(func=_cmd_describe)

    listing = sub.add_parser("list-benchmarks", help="list workloads")
    listing.set_defaults(func=_cmd_list)

    compare = sub.add_parser("compare", parents=[runner_flags],
                             help="baseline vs Silent Shredder on one workload")
    compare.add_argument("--benchmark", default="GCC")
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("--cores", type=int, default=2)
    compare.add_argument("--nodes", type=int, default=1500,
                         help="graph size for PowerGraph workloads")
    compare.set_defaults(func=_cmd_compare)

    figure = sub.add_parser("figure", parents=[runner_flags],
                            help="regenerate a paper figure/table")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--scale", type=float, default=0.5)
    figure.add_argument("--cores", type=int, default=2)
    figure.add_argument("--csv", help="also write the rows as CSV")
    figure.add_argument("--benchmarks",
                        help="comma-separated subset for fig8-fig11 "
                             "(default: the full SPEC + PowerGraph suite)")
    figure.set_defaults(func=_cmd_figure)

    export = sub.add_parser("export-config",
                            help="write a system config as JSON")
    export.add_argument("path")
    export.add_argument("--full", action="store_true",
                        help="the full-size Table 1 system")
    export.set_defaults(func=_cmd_export_config)

    events = sub.add_parser(
        "events", parents=[runner_flags],
        help="run one workload and print its flight-recorder event log "
             "(shreds, zero-fill elisions, counter overflows, IV "
             "regenerations) as canonical JSON-lines")
    events.add_argument("--benchmark", default="GCC",
                        help="SPEC or PowerGraph name")
    events.add_argument("--scale", type=float, default=0.5)
    events.add_argument("--cores", type=int, default=2)
    events.add_argument("--nodes", type=int, default=1500,
                        help="graph size for PowerGraph workloads")
    events.add_argument("--baseline", action="store_true",
                        help="run the baseline (non-shredder) system "
                             "instead of Silent Shredder")
    events.add_argument("--match", default=None, metavar="SUBSTR",
                        help="only print events whose canonical JSON line "
                             "contains SUBSTR")
    events.set_defaults(func=_cmd_events)

    cache = sub.add_parser("cache", help="persistent result cache upkeep")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    sweep = cache_sub.add_parser(
        "sweep", help="LRU-evict entries past size/age bounds")
    sweep.add_argument("--max-bytes", type=_parse_size, default=None,
                       metavar="SIZE",
                       help="keep at most SIZE bytes of newest entries "
                            "(accepts K/M/G suffixes)")
    sweep.add_argument("--max-age-days", type=float, default=None,
                       metavar="DAYS",
                       help="drop entries older than DAYS")
    sweep.add_argument("--dir", default=None,
                       help="cache directory (default: the resolved "
                            "shared cache)")
    sweep.set_defaults(func=_cmd_cache_sweep)

    analyze = sub.add_parser(
        "analyze",
        help="run the repo's static invariant checker (REPRO### rules)")
    analyze.add_argument("paths", nargs="*",
                         help="files or directories to check (default: the "
                              "repo's source roots under --root)")
    analyze.add_argument("--root", default=".",
                         help="repository root for module names, docs "
                              "lookups, and default paths (default: .)")
    analyze.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text",
                         help="report format (default: text, one clickable "
                              "path:line per violation; sarif emits a "
                              "2.1.0 log for code-scanning upload)")
    analyze.add_argument("--output", default=None, metavar="FILE",
                         help="write the report to FILE instead of stdout")
    analyze.add_argument("--select", default=None, metavar="CODES",
                         help="only enforce these comma-separated REPRO### "
                              "codes")
    analyze.add_argument("--ignore", default=None, metavar="CODES",
                         help="skip these comma-separated REPRO### codes")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the rule catalog and exit")
    analyze.add_argument("--import-graph", choices=("dot",), default=None,
                         metavar="FORMAT",
                         help="export the package import graph (module-"
                              "level and function-local edges, annotated "
                              "with layer ranks) instead of checking rules")
    analyze.set_defaults(func=_cmd_analyze)

    stats = sub.add_parser(
        "stats", help="render an --emit-metrics JSON-lines dump")
    stats.add_argument("path", help="dump file written by --emit-metrics")
    stats.add_argument("--format",
                       choices=("table", "prom", "jsonl", "trace"),
                       default="table",
                       help="output format (default: table; 'trace' emits "
                            "the dump's spans as chrome://tracing JSON)")
    stats.add_argument("--prefix", default=None, metavar="NAME",
                       help="only show metrics under this dotted prefix "
                            "(e.g. mem.nvm)")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # ``repro stats ... | head`` closes stdout early. Point the
        # descriptor at devnull so the interpreter's exit-time flush
        # doesn't raise again, and exit quietly like other CLIs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
