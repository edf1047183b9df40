"""Command-line interface: ``repro <command>`` or ``python -m repro``.

Commands:

- ``repro analyze <file.als>`` — run every command of a specification.
- ``repro repair <file.als> --technique ATR`` — repair one specification.
- ``repro table1 | figure2 | figure3 | hybrid`` — regenerate a paper artifact.
- ``repro all`` — regenerate everything and write EXPERIMENTS-report.txt.
- ``repro lint <spec>`` — static analysis: type-based and structural lints.
- ``repro validate-corpus`` — check the ground-truth model corpus.
- ``repro trace <file.jsonl>`` — summarize a trace: top spans, slowest cells.
- ``repro profile <file.jsonl>...`` — per-technique metric rollup.
- ``repro serve`` — the repair service daemon (jobs over a unix socket);
  every daemon is a replica of a lease-fenced cluster (``--cluster-dir``,
  default ``<socket>.cluster``).
- ``repro submit | jobs`` — clients for a running daemon (a comma-separated
  ``--socket`` list fails over across replicas).
- ``repro loadgen`` — drive a synthetic client fleet, report availability;
  ``--replicas N`` hosts and load-balances a whole cluster.
- ``repro chaos [--service|--cluster]`` — fault-injection drills (engine,
  daemon, or replicated tier with a mid-job ``kill -9``).

Experiment commands accept ``--scale`` (fraction of the Alloy4Fun benchmark,
default 0.05 for laptop-friendly runs; 1.0 is the paper-sized benchmark),
``--seed``, ``--jobs N`` (1 runs serially in-process, more runs a process
pool of N workers; results are bit-identical either way), ``--techniques``
(a comma-separated subset of registered techniques),
``--trace``/``--trace-out`` (capture spans + metrics to a trace JSONL), and
``--verbose`` (per-shard timing lines).
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
"""The input (file, specification, cache) was unusable."""
EXIT_INTERNAL = 4
"""An unclassified crash — almost certainly a bug in this repository."""


def _scale_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1], got {value}"
        )
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _timeout_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard timeout must be a number of seconds, got {text!r}"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"shard timeout must be > 0, got {value}"
        )
    return value


def _sites_arg(text: str) -> tuple[str, ...] | None:
    from repro.chaos import SITES

    if text.strip() == "all":
        return None
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("sites list is empty")
    unknown = [name for name in names if name not in SITES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown injection site(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SITES))})"
        )
    return names


def _techniques_arg(text: str) -> tuple[str, ...]:
    from repro.repair import registry

    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("techniques list is empty")
    unknown = [name for name in names if not registry.is_registered(name)]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown technique(s): {', '.join(unknown)} "
            f"(registered: {', '.join(registry.names())})"
        )
    return names


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=_scale_arg,
        default=0.05,
        help="fraction of the Alloy4Fun benchmark to run (1.0 = full)",
    )
    parser.add_argument("--seed", type=_seed_arg, default=0)
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore cached results"
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first failing (spec, technique) cell instead of "
        "isolating it and continuing",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="parallel workers for the experiment engine: 1 runs serially "
        "in-process, more runs a process pool (results are bit-identical "
        "to a serial run)",
    )
    parser.add_argument(
        "--techniques",
        type=_techniques_arg,
        default=None,
        metavar="A,B,...",
        help="comma-separated subset of registered techniques "
        "(default: all twelve standard techniques)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="capture spans and metrics for every executed cell and write "
        "a trace JSONL per benchmark (inspect with `repro trace` / "
        "`repro profile`); never changes results",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.jsonl",
        help="trace file destination (implies --trace); multi-benchmark "
        "commands append the benchmark name to the stem",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print a one-line timing summary for every completed shard",
    )
    parser.add_argument(
        "--shard-timeout",
        type=_timeout_arg,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per shard (one spec's cells); overdue "
        "shards record a shard.timeout failure and their pending cells "
        "are abandoned instead of blocking the run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards More Dependable Specifications' "
        "(DSN 2025): traditional vs. LLM-based Alloy repair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="run a specification's commands and render its static "
        "analysis (dependency graph, command slices, cardinality "
        "findings)",
    )
    analyze.add_argument(
        "file",
        nargs="?",
        default=None,
        help="a .als file path or a registered ground-truth model name",
    )
    analyze.add_argument(
        "--all-models",
        action="store_true",
        help="static-only analysis of every registered ground-truth model "
        "(no commands are executed; exits non-zero on any A5xx finding)",
    )

    repair = sub.add_parser("repair", help="repair one faulty specification")
    repair.add_argument("file")
    repair.add_argument(
        "--technique",
        default="ATR",
        help="any registered technique: ATR, BeAFix, ARepair, ICEBAR, "
        "Single-Round_<setting>, Multi-Round_<feedback>, Dynamic",
    )
    repair.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="statically analyze specifications (type-based + structural "
        "lints with source positions)",
    )
    lint.add_argument(
        "targets",
        nargs="*",
        metavar="SPEC",
        help="a .als file path or a registered ground-truth model name",
    )
    lint.add_argument(
        "--all-models",
        action="store_true",
        help="lint every registered ground-truth model",
    )
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="minimum severity that makes the command exit non-zero "
        "(default: error)",
    )

    for name in ("table1", "figure2", "figure3", "hybrid", "all"):
        command = sub.add_parser(name, help=f"regenerate {name}")
        _add_experiment_args(command)

    stats = sub.add_parser("stats", help="describe a generated benchmark")
    stats.add_argument("benchmark", choices=["arepair", "alloy4fun"])
    stats.add_argument("--scale", type=_scale_arg, default=0.05)
    stats.add_argument("--seed", type=_seed_arg, default=0)

    ablations = sub.add_parser("ablations", help="run the ablation sweeps")
    ablations.add_argument("--samples", type=_positive_int, default=5)
    ablations.add_argument("--seed", type=_seed_arg, default=0)
    ablations.add_argument(
        "--parallel",
        action="store_true",
        help="also sweep experiment-engine parallelism (times a small "
        "matrix at --jobs 1/2/4)",
    )

    trace = sub.add_parser(
        "trace", help="summarize a trace JSONL: top spans, slowest cells"
    )
    trace.add_argument("trace_file", help="a trace written by --trace")
    trace.add_argument(
        "--top",
        type=_positive_int,
        default=12,
        help="rows per section (default 12)",
    )

    profile = sub.add_parser(
        "profile", help="per-technique metric rollup from trace files"
    )
    profile.add_argument(
        "trace_files", nargs="+", help="one or more traces written by --trace"
    )

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection drills: verify that the "
        "resilience invariants hold under injected faults",
    )
    chaos.add_argument("--seed", type=_seed_arg, default=0)
    chaos.add_argument(
        "--sites",
        type=_sites_arg,
        default=None,
        metavar="A,B,... | all",
        help="comma-separated injection sites to exercise (default: all)",
    )
    chaos.add_argument(
        "--jobs",
        type=_positive_int,
        default=2,
        help="process-pool workers for the pooled arm of the drills",
    )
    chaos.add_argument("--scale", type=_scale_arg, default=0.05)
    chaos.add_argument(
        "--report",
        default=None,
        metavar="FILE.json",
        help="where to write the JSON report (deterministic bytes: two "
        "same-seed runs produce identical files); default "
        "chaos-report.json, or service-/cluster-chaos-report.json with "
        "--service/--cluster",
    )
    chaos.add_argument(
        "--list-sites",
        action="store_true",
        help="print the known injection sites and exit",
    )
    suite = chaos.add_mutually_exclusive_group()
    suite.add_argument(
        "--service",
        dest="suite",
        action="store_const",
        const="service",
        default="engine",
        help="drill the live service daemon instead of the batch engine: "
        "availability under all injection sites, backpressure, circuit "
        "breakers, drain/resume (report defaults to "
        "service-chaos-report.json)",
    )
    suite.add_argument(
        "--cluster",
        dest="suite",
        action="store_const",
        const="cluster",
        help="drill a replicated service tier: kill -9 a random replica "
        "mid-job under the full fault plan and assert zero lost jobs, no "
        "double commits, and fencing monotonicity (report defaults to "
        "cluster-chaos-report.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the repair service daemon: a job API over a local unix "
        "socket, backed by the experiment engine (drain with SIGTERM)",
    )
    serve.add_argument(
        "--socket", default="repro.sock", help="unix socket path to listen on"
    )
    serve.add_argument(
        "--benchmark", choices=["arepair", "alloy4fun"], default="arepair"
    )
    serve.add_argument(
        "--scale",
        type=_scale_arg,
        default=None,
        help="corpus scale; default: the benchmark's full service corpus "
        "(1.0 for arepair, 0.05 for alloy4fun)",
    )
    serve.add_argument("--seed", type=_seed_arg, default=0)
    serve.add_argument(
        "--workers", type=_positive_int, default=2, help="warm worker threads"
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="queued-job bound; submissions beyond it are rejected with a "
        "retry_after hint",
    )
    serve.add_argument(
        "--bucket-capacity",
        type=float,
        default=8.0,
        help="per-tenant token bucket size",
    )
    serve.add_argument(
        "--bucket-refill",
        type=float,
        default=4.0,
        help="per-tenant tokens refilled per second",
    )
    serve.add_argument(
        "--job-timeout",
        type=_timeout_arg,
        default=30.0,
        metavar="SECONDS",
        help="per-job deadline (shard_timeout semantics); 0 via "
        "--no-job-timeout",
    )
    serve.add_argument(
        "--no-job-timeout",
        action="store_true",
        help="disable the per-job deadline (and the wedge watchdog)",
    )
    serve.add_argument(
        "--cluster-dir",
        default=None,
        metavar="DIR",
        help="the cluster directory this daemon is a replica of "
        "(ledger-journaled jobs, fenced leases, shared store, durable "
        "quotas); share it to run a fleet (default: <socket>.cluster)",
    )
    serve.add_argument(
        "--replica-id",
        default=None,
        metavar="NAME",
        help="this replica's name in the cluster (default: r<pid>)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="lease lifetime without renewal before peers adopt the job "
        "(renewed every lease-ttl / 3)",
    )
    serve.add_argument(
        "--chaos-plan",
        default=None,
        metavar="FILE.json",
        help="install a serialized fault plan (FaultPlan.to_json) around "
        "job executions and store flushes — how the cluster drill ships "
        "one plan to every subprocess replica",
    )

    submit = sub.add_parser(
        "submit", help="submit one repair job to a running service daemon"
    )
    submit.add_argument(
        "--socket",
        default="repro.sock",
        help="daemon socket; a comma-separated list enables failover "
        "across replicas",
    )
    submit.add_argument(
        "--retry-seed",
        type=_seed_arg,
        default=0,
        help="seed for the deterministic reconnect/failover backoff jitter",
    )
    submit.add_argument(
        "--spec",
        default=None,
        metavar="SPEC_ID",
        help="a spec id from the daemon's benchmark corpus",
    )
    submit.add_argument(
        "--file",
        default=None,
        metavar="FILE.als",
        help="submit an ad-hoc specification file instead of a corpus spec",
    )
    submit.add_argument(
        "--benchmark",
        choices=["arepair", "alloy4fun"],
        default="arepair",
        help="corpus the spec id belongs to (ignored with --file)",
    )
    submit.add_argument(
        "--techniques",
        type=_techniques_arg,
        default=("ATR",),
        metavar="A,B,...",
    )
    submit.add_argument("--seed", type=_seed_arg, default=0)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--no-watch",
        action="store_true",
        help="return after the ack instead of streaming events until the "
        "job finishes",
    )
    submit.add_argument(
        "--no-retry",
        action="store_true",
        help="give up on the first rejection instead of honoring the "
        "retry_after backpressure hints",
    )

    jobs = sub.add_parser(
        "jobs", help="list a running daemon's jobs (or --stats)"
    )
    jobs.add_argument(
        "--socket",
        default="repro.sock",
        help="daemon socket; a comma-separated list enables failover "
        "across replicas",
    )
    jobs.add_argument(
        "--retry-seed",
        type=_seed_arg,
        default=0,
        help="seed for the deterministic reconnect/failover backoff jitter",
    )
    jobs.add_argument(
        "--stats",
        action="store_true",
        help="print service statistics (queues, breakers, latency) instead",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="load-test the service: host a daemon, drive a fleet of "
        "concurrent synthetic clients, report the availability ledger",
    )
    loadgen.add_argument("--clients", type=_positive_int, default=50)
    loadgen.add_argument("--jobs-per-client", type=_positive_int, default=2)
    loadgen.add_argument(
        "--benchmark", choices=["arepair", "alloy4fun"], default="arepair"
    )
    loadgen.add_argument(
        "--scale",
        type=_scale_arg,
        default=0.05,
        help="corpus scale for the hosted daemon(s)",
    )
    loadgen.add_argument("--seed", type=_seed_arg, default=0)
    loadgen.add_argument("--workers", type=_positive_int, default=4)
    loadgen.add_argument("--max-queue", type=_positive_int, default=16)
    loadgen.add_argument(
        "--techniques", type=_techniques_arg, default=None, metavar="A,B,..."
    )
    loadgen.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="host this many daemon replicas against a shared cluster "
        "directory and spread the client fleet across their sockets",
    )

    sub.add_parser("validate-corpus", help="check the ground-truth models")
    return parser


def _print_static_analysis(source: str) -> int:
    """The static section of ``repro analyze``: dependency-graph shape,
    one backward slice per command, and the A5xx cardinality findings.
    Returns the number of findings so ``--all-models`` can gate on it."""
    from repro.alloy.parser import parse_module
    from repro.alloy.resolver import resolve_module
    from repro.analysis import (
        build_depgraph,
        backward_slice,
        lint_module,
        render_diagnostics,
    )
    from repro.analysis.slice import render_slice

    module = parse_module(source)
    info = resolve_module(module)
    graph = build_depgraph(module, info)
    stats = graph.stats()
    counts = ", ".join(
        f"{stats[kind]} {kind}" for kind in
        ("sig", "field", "fact", "pred", "fun", "assert", "command")
        if stats[kind]
    )
    print(f"dependency graph: {counts}; {stats['edges']} edges")
    groups = graph.recursion_groups()
    if groups:
        rendered = "; ".join(
            ", ".join(str(member) for member in group) for group in groups
        )
        print(f"recursion groups: {rendered}")
    for node in graph.nodes:
        if node.kind != "command":
            continue
        cone = backward_slice(graph, node)
        print(f"slice[{node.name}]: {render_slice(cone, root=node)}")
    findings = [d for d in lint_module(module, info) if d.code.startswith("A5")]
    if findings:
        print("cardinality findings:")
        print(render_diagnostics(findings))
    else:
        print("cardinality findings: none")
    return len(findings)


def _cmd_analyze(args) -> int:
    import os

    from repro.analyzer import Analyzer
    from repro.benchmarks.models import registry as model_registry

    if args.all_models:
        # Corpus sweep: static analysis only (running every model's
        # commands is the analyzer's job, not a lint gate's).
        flagged = 0
        for model in model_registry.all_models():
            print(f"== {model.name}")
            flagged += _print_static_analysis(model.source)
        if flagged:
            print(f"{flagged} cardinality finding(s)", file=sys.stderr)
            return EXIT_FAILURE
        return EXIT_OK
    if args.file is None:
        print(
            "error: pass a spec or --all-models", file=sys.stderr
        )
        return EXIT_USAGE
    if os.path.exists(args.file):
        with open(args.file) as handle:
            source = handle.read()
    else:
        try:
            source = model_registry.get_model(args.file).source
        except KeyError:
            print(
                f"error: {args.file!r}: no such file or registered model",
                file=sys.stderr,
            )
            return EXIT_INPUT
    analyzer = Analyzer(source)
    for result in analyzer.execute_all():
        marker = "" if result.meets_expectation else "  (UNEXPECTED)"
        print(f"{result.kind} {result.name}: {'SAT' if result.sat else 'UNSAT'}{marker}")
        if result.instance is not None:
            print(result.instance.describe(analyzer.info))
    print()
    _print_static_analysis(source)
    return EXIT_OK


def _cmd_repair(args) -> int:
    from pathlib import Path

    from repro.benchmarks.faults import FaultySpec
    from repro.llm.prompts import RepairHints
    from repro.repair import RepairTask, registry

    with open(args.file) as handle:
        source = handle.read()
    task = RepairTask.from_source(source)
    technique = args.technique
    # An ad-hoc file has no separate ground truth and no curated hints:
    # the spec doubles as its own oracle source (suite generation reads
    # truth_source), hints stay empty.
    name = Path(args.file).stem
    spec = FaultySpec(
        spec_id=name,
        benchmark="adhoc",
        domain="adhoc",
        model_name=name,
        faulty_source=source,
        truth_source=source,
        fault_description="",
        depth=0,
        hints=RepairHints(),
    )
    try:
        tool = registry.create(technique, spec, args.seed)
    except ValueError:
        print(f"unknown technique {technique!r}", file=sys.stderr)
        return 2
    from repro.analysis import verdict_sharing

    # verdict_sharing lets composite techniques (ICEBAR, the selector)
    # replay evidence and verdicts across their inner tools' oracles.
    with verdict_sharing():
        result = tool.repair(task)
    print(f"status: {result.status.value} ({result.detail})")
    if result.candidate_source:
        print(result.candidate_source)
    return 0


def _matrices(args):
    from repro.experiments import ConsoleListener, RunConfig, run_matrix
    from repro.experiments.runner import derive_trace_out

    listener = ConsoleListener(verbose=getattr(args, "verbose", False))
    fail_fast = getattr(args, "fail_fast", False)
    trace = getattr(args, "trace", False)
    trace_out = getattr(args, "trace_out", None)
    common = dict(
        seed=args.seed,
        techniques=args.techniques,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        fail_fast=fail_fast,
        listener=listener,
        shard_timeout=getattr(args, "shard_timeout", None),
    )
    matrices = []
    for benchmark, scale in (("arepair", 1.0), ("alloy4fun", args.scale)):
        matrix = run_matrix(
            RunConfig(
                benchmark=benchmark,
                scale=scale,
                trace=trace,
                trace_out=derive_trace_out(trace_out, trace, benchmark, args.seed),
                **common,
            )
        )
        if matrix.telemetry is not None:
            print(
                f"  [{benchmark}] trace written to "
                f"{matrix.telemetry['trace_path']}",
                file=sys.stderr,
            )
        elif trace or trace_out:
            print(
                f"  [{benchmark}] fully cached run: nothing executed, no "
                f"trace written (re-run with --no-cache to trace)",
                file=sys.stderr,
            )
        matrices.append(matrix)
    return tuple(matrices)


def _cmd_experiment(args) -> int:
    from repro.experiments import (
        compute_figure2,
        compute_figure3,
        compute_hybrid,
        compute_table1,
        generate_report,
        render_figure2,
        render_figure3,
        render_figure4,
        render_table1,
        render_table2,
    )

    if args.command == "all":
        report = generate_report(
            scale=args.scale,
            seed=args.seed,
            use_cache=not args.no_cache,
            progress=True,
            fail_fast=args.fail_fast,
            jobs=args.jobs,
            trace=args.trace,
            trace_out=args.trace_out,
            verbose=args.verbose,
            shard_timeout=args.shard_timeout,
        )
        print(report.text)
        with open("EXPERIMENTS-report.txt", "w") as handle:
            handle.write(report.text + "\n")
        print("\n(written to EXPERIMENTS-report.txt)")
        return 0

    arepair, alloy4fun = _matrices(args)
    techniques = list(args.techniques) if args.techniques else None
    sections: list[str] = []
    if args.command in ("table1", "all"):
        sections.append(
            render_table1(compute_table1(arepair, alloy4fun, techniques))
        )
    if args.command in ("figure2", "all"):
        sections.append(
            render_figure2(compute_figure2([arepair, alloy4fun], techniques))
        )
    if args.command in ("figure3", "all"):
        sections.append(
            render_figure3(compute_figure3([arepair, alloy4fun], techniques))
        )
    if args.command in ("hybrid", "all"):
        analysis = compute_hybrid([arepair, alloy4fun])
        sections.append(render_table2(analysis))
        sections.append(render_figure4(analysis))
    report = "\n\n".join(sections)
    print(report)
    return 0


def _cmd_stats(args) -> int:
    from repro.benchmarks import load_benchmark, render_stats, summarize

    scale = args.scale if args.benchmark == "alloy4fun" else 1.0
    specs = load_benchmark(args.benchmark, seed=args.seed, scale=scale)
    print(render_stats(summarize(specs), f"{args.benchmark} benchmark"))
    return 0


def _cmd_ablations(args) -> int:
    from repro.benchmarks import load_benchmark
    from repro.experiments.ablations import (
        beafix_pruning_ablation,
        icebar_budget_ablation,
        multi_round_budget_ablation,
        parallel_speedup_ablation,
        suite_size_ablation,
    )

    specs = load_benchmark("alloy4fun", seed=args.seed, scale=0.02)
    sample = specs[: args.samples]
    sweeps = [
        beafix_pruning_ablation(sample),
        icebar_budget_ablation(sample),
        multi_round_budget_ablation(sample, seed=args.seed),
        suite_size_ablation(sample),
    ]
    if args.parallel:
        sweeps.append(parallel_speedup_ablation(seed=args.seed))
    for sweep in sweeps:
        print(sweep.render())
        print()
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.obs.export import read_trace, render_trace

    print(render_trace(read_trace(Path(args.trace_file)), top=args.top))
    return 0


def _cmd_profile(args) -> int:
    from pathlib import Path

    from repro.obs.export import merge_trace_data, read_trace, render_profile

    data = merge_trace_data(
        [read_trace(Path(f)) for f in args.trace_files]
    )
    print(render_profile(data))
    return 0


def _cmd_lint(args) -> int:
    import os

    from repro.analysis import Severity, lint_source, render_diagnostics
    from repro.benchmarks.models import registry as model_registry

    threshold = Severity.parse(args.fail_on)
    targets: list[tuple[str, str]] = []  # (display name, source)
    if args.all_models:
        for model in model_registry.all_models():
            targets.append((model.name, model.source))
    for target in args.targets:
        if os.path.exists(target):
            with open(target) as handle:
                targets.append((target, handle.read()))
            continue
        try:
            model = model_registry.get_model(target)
        except KeyError:
            print(
                f"error: {target!r} is neither a file nor a registered "
                f"model", file=sys.stderr,
            )
            return EXIT_INPUT
        targets.append((model.name, model.source))
    if not targets:
        print("error: nothing to lint (pass a spec or --all-models)",
              file=sys.stderr)
        return EXIT_USAGE
    failing = 0
    for name, source in targets:
        diagnostics = lint_source(source)
        print(f"== {name}")
        print(render_diagnostics(diagnostics))
        failing += sum(1 for d in diagnostics if d.severity >= threshold)
    if failing:
        print(
            f"{failing} finding(s) at or above --fail-on={args.fail_on}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_validate_corpus() -> int:
    from repro.benchmarks import validate_corpus

    problems = validate_corpus()
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("corpus OK: every model meets its command expectations")
    return 0


def _cmd_chaos(args) -> int:
    from pathlib import Path

    from repro.chaos import SITES
    from repro.chaos.harness import (
        ENGINE_SUITE,
        render_report,
        run_drills,
        write_report,
    )
    from repro.service.drill import (
        CLUSTER_SUITE,
        SERVICE_SUITE,
        run_cluster_drills,
        run_service_drills,
    )

    if args.list_sites:
        width = max(len(name) for name in SITES)
        for name in sorted(SITES):
            print(f"{name:<{width}}  {SITES[name]}")
        return EXIT_OK
    suites = {
        "engine": (
            ENGINE_SUITE,
            lambda: run_drills(args.seed, args.sites, args.jobs, args.scale),
        ),
        "service": (
            SERVICE_SUITE,
            lambda: run_service_drills(args.seed, args.sites, args.scale),
        ),
        "cluster": (
            CLUSTER_SUITE,
            lambda: run_cluster_drills(args.seed, args.sites, args.scale),
        ),
    }
    suite, run = suites[args.suite]
    report = run()
    report_path = args.report or suite.report_file
    write_report(Path(report_path), report)
    print(render_report(report, suite))
    print(f"(report written to {report_path})", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_FAILURE


def _service_scale(scale, benchmark: str) -> float:
    """An explicit ``--scale`` is honored for either benchmark; the
    default is the benchmark's full service corpus (all of arepair, the
    standard 5% slice of alloy4fun)."""
    if scale is not None:
        return scale
    return 0.05 if benchmark == "alloy4fun" else 1.0


def _load_chaos_plan(path: str | None):
    if path is None:
        return None
    import json
    from pathlib import Path

    from repro.chaos.plan import FaultPlan

    return FaultPlan.from_json(json.loads(Path(path).read_text()))


def _config_error(command: str, error: ValueError) -> int:
    """A rejected :class:`ServiceConfig` value is a usage error, not a crash."""
    print(f"repro {command}: error: {error}", file=sys.stderr)
    return EXIT_USAGE


def _service_config(args, chaos):
    from repro.service.daemon import ServiceConfig

    job_timeout = None if args.no_job_timeout else args.job_timeout
    return ServiceConfig(
        socket=args.socket,
        benchmark=args.benchmark,
        scale=_service_scale(args.scale, args.benchmark),
        seed=args.seed,
        workers=args.workers,
        max_queue=args.max_queue,
        bucket_capacity=args.bucket_capacity,
        bucket_refill=args.bucket_refill,
        job_timeout=job_timeout,
        chaos=chaos,
        cluster_dir=args.cluster_dir,
        replica_id=args.replica_id,
        lease_ttl=args.lease_ttl,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.daemon import ReproService

    chaos = _load_chaos_plan(args.chaos_plan)
    try:
        config = _service_config(args, chaos)
    except ValueError as error:
        return _config_error("serve", error)
    service = ReproService(config)
    print(
        f"repro service: benchmark={args.benchmark} "
        f"specs={len(service.jobs_corpus_ids())} workers={args.workers} "
        f"socket={args.socket}",
        file=sys.stderr,
    )
    # serve() runs on the main thread so SIGTERM/SIGINT reach the loop's
    # handlers and trigger a graceful drain.
    asyncio.run(service.serve())
    print("repro service: drained", file=sys.stderr)
    return EXIT_OK


def _cmd_submit(args) -> int:
    from pathlib import Path

    from repro.service.client import ServiceClient
    from repro.service.protocol import JobSpec

    if (args.spec is None) == (args.file is None):
        print("error: pass exactly one of --spec or --file", file=sys.stderr)
        return EXIT_USAGE
    if args.file is not None:
        source = Path(args.file).read_text()
        spec = JobSpec(
            benchmark="adhoc",
            spec_id=Path(args.file).stem,
            techniques=args.techniques,
            seed=args.seed,
            tenant=args.tenant,
            priority=args.priority,
            source=source,
        )
    else:
        spec = JobSpec(
            benchmark=args.benchmark,
            spec_id=args.spec,
            techniques=args.techniques,
            seed=args.seed,
            tenant=args.tenant,
            priority=args.priority,
        )
    client = ServiceClient(
        [s for s in args.socket.split(",") if s], retry_seed=args.retry_seed
    )
    if args.no_retry:
        outcome = client.submit(spec, watch=not args.no_watch)
    else:
        outcome = client.submit_retrying(spec, watch=not args.no_watch)
    if not outcome.accepted:
        last = outcome.rejections[-1] if outcome.rejections else {}
        print(
            f"rejected: {last.get('reason', '?')} "
            f"(retry_after {last.get('retry_after', '?')}s, "
            f"{len(outcome.rejections)} attempt(s))",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    print(f"job {outcome.job_id}: {outcome.state}")
    if args.no_watch:
        return EXIT_OK
    for technique, cell in sorted(outcome.outcomes.items()):
        line = (
            f"  {technique}: {cell.get('status')} rep={cell.get('rep')} "
            f"tm={cell.get('tm', 0):.3f} sm={cell.get('sm', 0):.3f}"
        )
        if cell.get("error_code"):
            line += f" [{cell['error_code']}]"
        print(line)
    if outcome.from_store:
        print("  (served from the result store)")
    if outcome.error:
        print(f"  error: {outcome.error}", file=sys.stderr)
    return EXIT_OK if outcome.state == "done" else EXIT_FAILURE


def _cmd_jobs(args) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(
        [s for s in args.socket.split(",") if s], retry_seed=args.retry_seed
    )
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return EXIT_OK
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return EXIT_OK
    for job in jobs:
        star = "*" if job.get("from_store") else " "
        print(
            f"{job['job_id']}  {job['state']:<8} {star} "
            f"{job['benchmark']}/{job['spec_id']} "
            f"[{','.join(job['techniques'])}] tenant={job['tenant']}"
        )
    return EXIT_OK


def _cmd_loadgen(args) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.service.daemon import ServiceConfig
    from repro.service.loadgen import DEFAULT_TECHNIQUES, run_load

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        try:
            config = ServiceConfig(
                socket=str(Path(tmp) / "loadgen.sock"),
                benchmark=args.benchmark,
                scale=args.scale if args.benchmark == "alloy4fun" else 1.0,
                seed=args.seed,
                workers=args.workers,
                max_queue=args.max_queue,
                job_timeout=None,
            )
        except ValueError as error:
            return _config_error("loadgen", error)
        ledger = run_load(
            config,
            clients=args.clients,
            jobs_per_client=args.jobs_per_client,
            techniques=args.techniques or DEFAULT_TECHNIQUES,
            replicas=args.replicas,
        )
    print(json.dumps(ledger, indent=2, sort_keys=True))
    return EXIT_OK if ledger["ok"] else EXIT_FAILURE


def _dispatch(args) -> int:
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "repair":
        return _cmd_repair(args)
    if args.command == "validate-corpus":
        return _cmd_validate_corpus()
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "ablations":
        return _cmd_ablations(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    return _cmd_experiment(args)


def main(argv: list[str] | None = None) -> int:
    from repro.alloy.errors import AlloyError
    from repro.runtime.errors import ReproError, classify_exception

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: conventional silent exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except FileNotFoundError as error:
        print(f"error: no such file: {error.filename or error}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except AlloyError as error:
        print(f"specification error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except ReproError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as error:  # the last-resort guard: no tracebacks to users
        print(
            f"internal error [{classify_exception(error)}]: {error}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
