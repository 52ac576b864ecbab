"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``validate <view.xml>`` — parse and validate a quality view against
  the IQ model; exit status 1 on errors.
* ``compile <view.xml>`` — compile a view (with the standard services
  deployed) and print the resulting quality workflow as SCUFL-like XML.
  ``--explain`` prints the optimization-pass pipeline, per-pass IR
  deltas and the wavefront schedule instead; ``--disable-pass NAME``
  switches individual passes off; ``--observed-outputs PORTS``
  restricts the output contract (arming filter pushdown / aggressive
  evidence pruning).  Disabling all four passes prints the plain
  Sec. 6.1 translation.
* ``demo [--spots N] [--seed S]`` — run the paper's Figure-7 experiment
  and print the significance-ratio table.
* ``batch [--workers W] [--spots N]`` — drive the concurrent execution
  runtime: one quality-view job per sample through the job queue and
  worker pool, with per-job and aggregate metrics.  ``--fault-rate`` /
  ``--retry-attempts`` / ``--job-retries`` / ``--on-failure`` exercise
  the resilience layer; ``--telemetry <path>`` dumps the full JSON
  telemetry snapshot (metrics + breaker health + runtime aggregates +
  events + spans) after the batch; the exit status is non-zero when
  any job fails or is dead-lettered.
* ``metrics [--port P] [--oneshot]`` — run a small instrumented
  workload, then expose the metric registry: an HTTP endpoint serving
  Prometheus text (``/metrics``) and a JSON snapshot
  (``/metrics.json``), or — with ``--oneshot`` — a single scrape
  printed to stdout.
* ``serve [--port P] [--workers W] [--quota-rate R]`` — run the
  long-lived multi-tenant quality-view server over a synthetic
  proteomics deployment: ``PUT /views/{name}`` registers views (the
  compiled-plan cache shares one compilation per view fingerprint
  across tenants), ``POST /views/{name}/enact`` routes submissions
  through the execution runtime under per-tenant token-bucket quotas
  (429 + ``Retry-After`` on exhaustion or queue backpressure), plus
  job lifecycle (``/jobs``), dead letters, ``/metrics``, and
  ``/healthz``.  ``--register-example`` pre-registers the Sec. 5.1
  example view; ``--store-dir PATH`` makes the deployment durable —
  registered views and persistent annotation repositories live in
  paged stores under PATH and are re-served after restart
  without re-registration; Ctrl-C shuts down cleanly.
* ``stream [--events FILE] [--cursor-dir PATH]`` — run the streaming
  quality-view engine over a delta feed: each record is absorbed
  incrementally (only touched items re-annotated, QA verdicts served
  from the memo table when unaffected), the surviving fraction feeds
  tumbling/sliding windows and EWMA/CUSUM drift detectors, and drift
  raises events through the observability event log.  Without
  ``--events`` a seeded synthetic feed is generated (``--items``,
  ``--steps``, ``--delta-ratio``, ``--drift-after``);
  ``--emit-events`` writes that feed to a JSON-lines file instead of
  running.  ``--cursor-dir`` persists the watermark after every
  record, so a killed-and-restarted stream resumes where it stopped
  without reprocessing or duplicate drift events; ``--verify`` checks
  every incremental result byte-equal against a full recompute.
* ``store load|info|compact|snapshot|verify`` — manage durable
  (paged) triple stores: ``load`` streams an N-Triples file into a fresh store
  through the bulk loader (no per-triple WAL traffic, reports
  triples/sec), ``info`` prints a store's manifest/recovery summary
  (plus any stream cursor files checkpointing into the directory),
  ``compact`` folds every run + the WAL into one fresh run,
  ``snapshot`` writes a consistent copy to a new directory, and
  ``verify`` re-checksums a store offline.  A store written by the
  retired disk engine is refused with a machine-readable error.
* ``query <sparql> [--data FILE] [--explain]`` — run a SPARQL query
  over an RDF file (or a synthetic annotation store) through the
  planned execution path; ``--explain`` prints the chosen join order,
  per-pattern cardinality estimates and plan-cache statistics instead
  of rows; ``--no-planner`` / ``--no-cache`` select the naive
  evaluator or disable plan reuse for comparison.
* ``info`` — one-paragraph description and component inventory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qurator quality views (Missier et al., VLDB 2006)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate a quality-view XML file"
    )
    validate.add_argument("file", help="path to the quality-view XML")

    compile_cmd = commands.add_parser(
        "compile", help="compile a view and print the quality workflow"
    )
    compile_cmd.add_argument("file", help="path to the quality-view XML")
    compile_cmd.add_argument(
        "--explain", action="store_true",
        help="print the pass pipeline and per-pass IR deltas instead "
             "of the workflow XML",
    )
    compile_cmd.add_argument(
        "--disable-pass", action="append", default=[], metavar="NAME",
        dest="disabled_passes",
        help="switch off one optimization pass by name (repeatable); "
             "see the --explain output for registered names",
    )
    compile_cmd.add_argument(
        "--observed-outputs", metavar="PORTS", default=None,
        help="comma-separated workflow outputs the caller consumes; "
             "omitting annotationMap arms filter pushdown and "
             "aggressive evidence pruning",
    )

    demo = commands.add_parser(
        "demo", help="run the Figure-7 experiment on synthetic data"
    )
    demo.add_argument("--spots", type=int, default=10)
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--proteins", type=int, default=400)
    demo.add_argument(
        "--filter",
        dest="filter_condition",
        default="ScoreClass in q:high",
        help="the action condition applied to identifications",
    )

    batch = commands.add_parser(
        "batch", help="run concurrent quality-view jobs through the runtime"
    )
    batch.add_argument("--spots", type=int, default=8)
    batch.add_argument("--proteins", type=int, default=200)
    batch.add_argument("--seed", type=int, default=42)
    batch.add_argument("--workers", type=int, default=4)
    batch.add_argument(
        "--backend", choices=("thread", "process"), default=None,
        help="execution backend (default: thread, or the "
             "REPRO_RUNTIME_BACKEND environment variable)",
    )
    batch.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="worker processes of the process backend "
             "(0 derives the count from --workers)",
    )
    batch.add_argument("--queue-size", type=int, default=32)
    batch.add_argument(
        "--policy", choices=("block", "reject"), default="block",
        help="admission control when the job queue is full",
    )
    batch.add_argument(
        "--parallel-enactment", action="store_true",
        help="also parallelise processors inside each job (wavefront)",
    )
    batch.add_argument(
        "--latency", type=float, default=0.0, metavar="MS",
        help="simulated WSDL round-trip per service call, in milliseconds",
    )
    batch.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="inject a ServiceFault into this fraction of service calls",
    )
    batch.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault-injection streams",
    )
    batch.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="per-invocation attempts under the resilience policy "
             "(default: 3 whenever faults are injected; omit both for "
             "the bare, non-resilient invocation path)",
    )
    batch.add_argument(
        "--job-retries", type=int, default=0,
        help="whole-job re-runs before a failed job is dead-lettered",
    )
    batch.add_argument(
        "--on-failure", choices=("fail", "skip", "default_annotation"),
        default="fail",
        help="degradation policy of service-backed processors",
    )
    batch.add_argument(
        "--filter",
        dest="filter_condition",
        default="ScoreClass in q:high",
        help="the action condition applied to identifications",
    )
    batch.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write the JSON telemetry snapshot here after the batch",
    )

    metrics = commands.add_parser(
        "metrics",
        help="expose execution metrics (Prometheus text + JSON snapshot)",
    )
    metrics.add_argument("--spots", type=int, default=4)
    metrics.add_argument("--proteins", type=int, default=120)
    metrics.add_argument("--seed", type=int, default=42)
    metrics.add_argument("--workers", type=int, default=2)
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument(
        "--port", type=int, default=9464,
        help="HTTP port for /metrics (0 binds an ephemeral port)",
    )
    metrics.add_argument(
        "--oneshot", action="store_true",
        help="print one scrape to stdout instead of serving HTTP",
    )
    metrics.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="--oneshot output: Prometheus text or the JSON snapshot",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant quality-view server (HTTP/JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8099,
        help="HTTP port (0 binds an ephemeral port)",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--backend", choices=("thread", "process"), default=None,
        help="execution backend (default: thread, or the "
             "REPRO_RUNTIME_BACKEND environment variable)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="worker processes of the process backend "
             "(0 derives the count from --workers)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bound of the job queue backing admission control",
    )
    serve.add_argument(
        "--parallel-enactment", action="store_true",
        help="wavefront-parallel enactment inside each job",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=50.0, metavar="R",
        help="per-tenant refill rate, requests/second (0 disables quotas)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=100.0, metavar="B",
        help="per-tenant burst capacity, tokens",
    )
    serve.add_argument(
        "--plan-cache-size", type=int, default=128, metavar="N",
        help="LRU capacity of the shared compiled-plan cache",
    )
    serve.add_argument(
        "--register-example", action="store_true",
        help="pre-register the Sec. 5.1 example view as "
             "'protein-id-quality'",
    )
    serve.add_argument(
        "--spots", type=int, default=8,
        help="protein spots of the synthetic backing scenario",
    )
    serve.add_argument("--proteins", type=int, default=200)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--store-dir", metavar="PATH", default=None,
        help="durable state root: registered views and persistent "
             "annotation repositories survive restart (omit for "
             "in-memory serving)",
    )
    serve.add_argument(
        "--store-sync", choices=("always", "batch", "none"),
        default="batch",
        help="WAL fsync policy of the durable stores",
    )

    stream = commands.add_parser(
        "stream",
        help="run the streaming quality-view engine over a delta feed",
    )
    stream.add_argument(
        "--events", metavar="PATH", default=None,
        help="JSON-lines delta feed to consume (default: a seeded "
             "synthetic feed)",
    )
    stream.add_argument(
        "--follow", action="store_true",
        help="tail --events for appended records instead of stopping "
             "at end of file",
    )
    stream.add_argument(
        "--emit-events", metavar="PATH", default=None,
        help="write the synthetic feed to this JSON-lines file and exit",
    )
    stream.add_argument(
        "--cursor-dir", metavar="PATH", default=None,
        help="directory for the persistent stream cursor; a restarted "
             "stream resumes from the recorded watermark",
    )
    stream.add_argument(
        "--cursor-name", default="default", metavar="NAME",
        help="cursor file name (stream-<NAME>.cursor)",
    )
    stream.add_argument("--items", type=int, default=40,
                        help="items in the synthetic feed's data set")
    stream.add_argument("--steps", type=int, default=20,
                        help="update batches in the synthetic feed")
    stream.add_argument(
        "--delta-ratio", type=float, default=0.1, metavar="R",
        help="fraction of items each synthetic delta touches",
    )
    stream.add_argument("--seed", type=int, default=42)
    stream.add_argument(
        "--drift-after", type=int, default=None, metavar="K",
        help="degrade synthetic evidence quality after K update steps",
    )
    stream.add_argument(
        "--window", type=float, default=5.0, metavar="SIZE",
        help="window length over the quality signal (event time)",
    )
    stream.add_argument(
        "--slide", type=float, default=None, metavar="S",
        help="window hop (default: tumbling, hop == size)",
    )
    stream.add_argument(
        "--max-records", type=int, default=None, metavar="N",
        help="stop after processing N records",
    )
    stream.add_argument(
        "--verify", action="store_true",
        help="differentially check every incremental result byte-equal "
             "against a full recompute (slow)",
    )
    stream.add_argument(
        "--filter",
        dest="filter_condition",
        default="ScoreClass in q:high",
        help="the view's action condition",
    )

    store = commands.add_parser(
        "store", help="manage durable triple-store directories"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_load = store_commands.add_parser(
        "load", help="bulk-load an N-Triples file into a fresh store"
    )
    store_load.add_argument("file", help="source N-Triples file")
    store_load.add_argument("directory", help="store directory to create")
    store_info = store_commands.add_parser(
        "info", help="print a store's manifest and recovery summary"
    )
    store_info.add_argument("directory", help="store directory")
    store_compact = store_commands.add_parser(
        "compact", help="fold every run + the WAL into one fresh run"
    )
    store_compact.add_argument("directory", help="store directory")
    store_snapshot = store_commands.add_parser(
        "snapshot", help="write a consistent copy to a new directory"
    )
    store_snapshot.add_argument("directory", help="source store directory")
    store_snapshot.add_argument("destination", help="directory to create")
    store_verify = store_commands.add_parser(
        "verify",
        help="re-checksum all runs, term banks and the WAL offline "
             "(exits non-zero on the first mismatch)",
    )
    store_verify.add_argument("directory", help="store directory")

    query = commands.add_parser(
        "query",
        help="run a SPARQL query through the planner (--explain shows the plan)",
    )
    query.add_argument(
        "sparql", nargs="?", default=None,
        help="the query text (omit when using --query-file)",
    )
    query.add_argument(
        "--query-file", metavar="PATH", default=None,
        help="read the query from this file instead",
    )
    query.add_argument(
        "--data", metavar="PATH", default=None,
        help="RDF file to query (default: a synthetic annotation store)",
    )
    query.add_argument(
        "--data-format", choices=("ntriples", "nt", "turtle", "ttl"),
        default=None,
        help="format of --data (default: guessed from the extension)",
    )
    query.add_argument(
        "--synthetic-items", type=int, default=200, metavar="N",
        help="data items in the synthetic store when --data is omitted",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print join order, cardinality estimates and plan-cache "
             "stats instead of executing",
    )
    query.add_argument(
        "--no-planner", action="store_true",
        help="use the naive reference evaluator instead of the planner",
    )
    query.add_argument(
        "--no-cache", action="store_true",
        help="compile the plan fresh, bypassing the prepared-query cache",
    )
    query.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="execute N times and report per-run timing (exercises the "
             "plan cache)",
    )

    commands.add_parser("info", help="describe this reproduction")
    return parser


def _cmd_validate(path: str) -> int:
    from repro.ontology import build_iq_model
    from repro.qv import parse_quality_view, validate_quality_view

    try:
        spec = parse_quality_view(_read(path))
    except ValueError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    report = validate_quality_view(spec, build_iq_model())
    for warning in report.warnings:
        print(f"warning: {warning}")
    if not report.ok():
        for error in report.errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: {spec.name!r} ({len(spec.annotators)} annotators, "
        f"{len(spec.assertions)} assertions, {len(spec.actions)} actions)"
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.core.framework import QuratorFramework
    from repro.core.ispider import LiveImprintAnnotator, ResultSetHolder
    from repro.qv.passes import CompileOptions
    from repro.workflow.scufl import workflow_to_xml

    framework = QuratorFramework()
    framework.register_standard_services()
    framework.deploy_annotation_service(
        "ImprintOutputAnnotator", LiveImprintAnnotator(ResultSetHolder())
    )
    options = CompileOptions(
        disabled_passes=frozenset(args.disabled_passes),
        observed_outputs=(
            frozenset(
                port.strip()
                for port in args.observed_outputs.split(",")
                if port.strip()
            )
            if args.observed_outputs is not None
            else None
        ),
    )
    try:
        view = framework.quality_view(_read(args.file))
        workflow, report = framework.compiler.compile_with_report(
            view.spec, options=options
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.explain:
        schedule = workflow.ensure_schedule()
        print(f"view: {view.name!r}  fingerprint: "
              f"{workflow.source_fingerprint[:16]}…")
        print(report.render(), end="")
        print("schedule:")
        for index, stage in enumerate(schedule.stages):
            print(f"  wave {index}: {', '.join(stage)}")
        return 0
    print(workflow_to_xml(workflow))
    return 0


def _cmd_demo(
    spots: int, seed: int, proteins: int, filter_condition: str
) -> int:
    from repro.core.ispider import build_deployment
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.workflows import go_term_frequencies

    scenario = ProteomicsScenario.generate(
        seed=seed, n_proteins=proteins, n_spots=spots
    )
    deployment = build_deployment(scenario, filter_condition=filter_condition)
    baseline = deployment.run_unfiltered()
    filtered = deployment.run()
    base = go_term_frequencies(baseline["goTerms"])
    kept = go_term_frequencies(filtered["goTerms"])
    print(f"spots: {spots}  seed: {seed}  filter: {filter_condition}")
    print(f"GO occurrences without / with quality view: "
          f"{sum(base.values())} / {sum(kept.values())}\n")
    rows = sorted(
        ((kept.get(t, 0) / base[t], t, base[t], kept.get(t, 0)) for t in base),
        key=lambda r: (-r[0], r[1]),
    )
    print(f"{'rank':>4}  {'GO term':<12} {'raw':>4} {'kept':>4} {'ratio':>6}")
    for rank, (ratio, term, raw, kept_count) in enumerate(rows[:15], 1):
        print(f"{rank:>4}  {term:<12} {raw:>4} {kept_count:>4} {ratio:>6.2f}")
    return 0


def _cmd_batch(args) -> int:
    import time

    from repro.core.ispider import example_quality_view_xml, setup_framework
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.results import ImprintResultSet
    from repro.resilience import FaultInjector, ResilienceConfig
    from repro.runtime import QueueFullError, RuntimeConfig

    if args.latency < 0:
        print(f"error: --latency must be >= 0, got {args.latency}",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got "
              f"{args.fault_rate}", file=sys.stderr)
        return 2
    resilience = None
    if (args.retry_attempts is not None or args.fault_rate > 0
            or args.on_failure != "fail"):
        attempts = 3 if args.retry_attempts is None else args.retry_attempts
        resilience = ResilienceConfig(
            max_attempts=attempts,
            jitter_seed=args.fault_seed,
            on_failure=args.on_failure,
        )
    try:
        config = RuntimeConfig(
            workers=args.workers,
            queue_size=args.queue_size,
            queue_policy=args.policy,
            parallel_enactment=args.parallel_enactment,
            job_retries=args.job_retries,
            resilience=resilience,
            shards=args.shards,
            **({"backend": args.backend} if args.backend else {}),
        ).validated()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario = ProteomicsScenario.generate(
        seed=args.seed, n_proteins=args.proteins, n_spots=args.spots
    )
    runs = scenario.identify_all()
    results = ImprintResultSet(runs)
    framework, holder = setup_framework(scenario)
    holder.set(results)
    if args.latency > 0:
        for service in framework.services:
            service.with_latency(args.latency / 1000.0)
    injector = None
    if args.fault_rate > 0:
        injector = FaultInjector(seed=args.fault_seed)
        injector.plan_all(fault_rate=args.fault_rate)
        injector.attach_registry(framework.services)
    view = framework.quality_view(
        example_quality_view_xml(args.filter_condition)
    )
    datasets = [results.items_of_run(run.run_id) for run in runs]
    pool = (
        f"{config.effective_shards()} shard processes"
        if config.backend == "process" else f"{config.workers} workers"
    )
    print(
        f"runtime: {pool}, queue {config.queue_size} "
        f"({config.queue_policy}), "
        f"{'parallel' if config.parallel_enactment else 'serial'} enactment"
        + (f", fault rate {args.fault_rate:.0%} (seed {args.fault_seed})"
           if injector else "")
        + (f", {resilience.max_attempts} attempts/call" if resilience else "")
    )
    started = time.perf_counter()
    with framework.runtime(config) as service:
        try:
            batch = service.submit_many(view, datasets)
        except QueueFullError as exc:
            print(f"error: {exc} (queue {config.queue_size} cannot admit "
                  f"{len(datasets)} jobs under --policy reject; raise "
                  f"--queue-size or use --policy block)", file=sys.stderr)
            return 1
        batch.wait()
        elapsed = time.perf_counter() - started
        snap = service.snapshot()
        dead_letters = list(service.dead_letters)
    print(f"\n{'job':<28} {'items':>5} {'kept':>5} "
          f"{'queued ms':>9} {'run ms':>7} {'cache':>7}")
    for handle in batch:
        metrics = handle.metrics
        error = handle.exception()
        if error is not None:
            print(f"{handle.name:<28} {'-':>5} {'-':>5} "
                  f"{1000 * (metrics.queue_wait or 0):>9.2f} "
                  f"{1000 * (metrics.run_seconds or 0):>7.2f} "
                  f"{handle.status.value}")
            continue
        outcome = handle.result()
        hit_rate = (
            metrics.cache_hits / metrics.cache_lookups
            if metrics.cache_lookups else 0.0
        )
        print(f"{handle.name:<28} {len(outcome.items):>5} "
              f"{len(outcome.surviving()):>5} "
              f"{1000 * (metrics.queue_wait or 0):>9.2f} "
              f"{1000 * (metrics.run_seconds or 0):>7.2f} "
              f"{hit_rate:>6.0%}")
    print(f"\n{snap.completed}/{snap.submitted} jobs completed, "
          f"{snap.failed} failed, in {elapsed:.2f}s "
          f"({snap.completed / elapsed:.1f} jobs/sec); "
          f"mean queue wait {1000 * snap.mean_queue_wait:.2f} ms")
    if resilience is not None or injector is not None or args.job_retries:
        print(f"resilience: {snap.invocation_retries} invocation retries, "
              f"{snap.invocations_exhausted} exhausted, "
              f"{snap.breaker_rejections} breaker rejections "
              f"({snap.open_endpoints} endpoints open), "
              f"{snap.degraded_firings} degraded firings, "
              f"{snap.job_retries} job retries, "
              f"{snap.dead_lettered} dead-lettered"
              + (f"; {injector.total_injected()} faults injected"
                 if injector else ""))
    slowest = sorted(
        snap.processor_seconds.items(), key=lambda kv: -kv[1]
    )[:5]
    print("hottest processors: "
          + ", ".join(f"{name} {seconds * 1000:.1f} ms"
                      for name, seconds in slowest))
    if args.telemetry:
        from repro.observability import write_telemetry

        write_telemetry(
            args.telemetry, services=framework.services, runtime=snap
        )
        print(f"telemetry snapshot written to {args.telemetry}")
    failures = batch.failures()
    if failures or dead_letters:
        print(f"\n{len(failures)} job(s) failed "
              f"({len(dead_letters)} dead-lettered):", file=sys.stderr)
        for handle in failures:
            error = handle.exception()
            cause = ""
            if hasattr(error, "details"):
                cause = f" {error.details()}"
            print(f"  {handle.name}: {type(error).__name__}: {error}{cause}"
                  + (f" (after {handle.metrics.retries} job retries)"
                     if handle.metrics.retries else ""),
                  file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.core.ispider import example_quality_view_xml, setup_framework
    from repro.observability import (
        json_snapshot,
        render_prometheus,
        serve_metrics,
    )
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.results import ImprintResultSet
    from repro.resilience import ResilienceConfig
    from repro.runtime import RuntimeConfig

    # A small end-to-end workload so every layer has published samples:
    # workflow firings, runtime jobs, resilient invocations (the
    # resilience config routes service calls through the invoker, which
    # also creates the per-endpoint breaker-state gauges), SPARQL
    # timings, and annotation-store reads.
    scenario = ProteomicsScenario.generate(
        seed=args.seed, n_proteins=args.proteins, n_spots=args.spots
    )
    runs = scenario.identify_all()
    results = ImprintResultSet(runs)
    framework, holder = setup_framework(scenario)
    holder.set(results)
    view = framework.quality_view(example_quality_view_xml())
    config = RuntimeConfig(
        workers=args.workers,
        parallel_enactment=True,
        resilience=ResilienceConfig(max_attempts=2),
    ).validated()
    datasets = [results.items_of_run(run.run_id) for run in runs]
    with framework.runtime(config) as service:
        service.submit_many(view, datasets).wait()
        snap = service.snapshot()
    if args.oneshot:
        if args.format == "json":
            document = json_snapshot(
                services=framework.services, runtime=snap
            )
            print(json.dumps(document, indent=2, sort_keys=True, default=str))
        else:
            print(render_prometheus(), end="")
        return 0
    from repro.observability import serve_until_interrupt

    server = serve_metrics(
        host=args.host, port=args.port,
        services=framework.services, runtime=snap,
    )
    host, port = server.server_address[:2]
    print(f"serving http://{host}:{port}/metrics "
          f"(JSON snapshot at /metrics.json; Ctrl-C to stop)")
    return serve_until_interrupt(server)


def _cmd_serve(args) -> int:
    from repro.core.ispider import example_quality_view_xml, setup_framework
    from repro.observability import serve_until_interrupt
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.results import ImprintResultSet
    from repro.runtime import RuntimeConfig
    from repro.serving import QualityViewServer, ServingConfig

    # The synthetic backing deployment: a proteomics scenario whose
    # identification results feed the live Imprint annotator, so
    # registered views have real evidence to annotate, assert over,
    # and filter.  GET /datasets lists the run ids enact bodies can
    # reference ({"dataset": "<run id>"}).
    scenario = ProteomicsScenario.generate(
        seed=args.seed, n_proteins=args.proteins, n_spots=args.spots
    )
    runs = scenario.identify_all()
    results = ImprintResultSet(runs)
    framework, holder = setup_framework(scenario)
    holder.set(results)
    datasets = {run.run_id: results.items_of_run(run.run_id) for run in runs}
    try:
        runtime_config = RuntimeConfig(
            workers=args.workers,
            queue_size=args.queue_size,
            queue_policy="reject",
            parallel_enactment=args.parallel_enactment,
            name="serving",
            shards=args.shards,
            **({"backend": args.backend} if args.backend else {}),
        ).validated()
        serving_config = ServingConfig(
            host=args.host,
            port=args.port,
            quota_rate=args.quota_rate if args.quota_rate > 0 else None,
            quota_burst=args.quota_burst,
            plan_cache_size=args.plan_cache_size,
            storage_dir=args.store_dir,
            storage_sync=args.store_sync,
        ).validated()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with framework.runtime(runtime_config) as runtime:
        server = QualityViewServer(
            framework, runtime, config=serving_config, datasets=datasets
        ).start()
        if args.store_dir:
            restored = server.views.names()
            print(f"durable store: {args.store_dir} "
                  f"(sync={args.store_sync}; "
                  f"{len(restored)} view(s) restored"
                  + (": " + ", ".join(restored) if restored else "")
                  + ")")
        if args.register_example:
            record = server.views.register(
                "protein-id-quality",
                example_quality_view_xml(),
                serving_config.default_tenant,
            )
            print(f"registered view 'protein-id-quality' "
                  f"(fingerprint {record.fingerprint[:16]}…)")
        quota = (
            f"{args.quota_rate:g} req/s (burst {args.quota_burst:g})"
            if args.quota_rate > 0 else "disabled"
        )
        pool = (
            f"{runtime_config.effective_shards()} shard processes"
            if runtime_config.backend == "process"
            else f"{runtime_config.workers} workers"
        )
        print(
            f"serving http://{args.host}:{server.port} — "
            f"{pool}, queue "
            f"{runtime_config.queue_size} (reject), per-tenant quota "
            f"{quota}, {len(datasets)} datasets; Ctrl-C to stop"
        )
        print("endpoints: PUT /views/{name}  POST /views/{name}/enact  "
              "GET /jobs/{id}  /metrics  /healthz")
        return serve_until_interrupt(server)


def _cmd_stream(args) -> int:
    from repro.serving import wire
    from repro.storage.cursors import CursorFile
    from repro.stream import (
        CusumDetector,
        EwmaDetector,
        IncrementalEnactor,
        JsonLinesSource,
        RollingWindows,
        StreamEngine,
    )
    from repro.stream.scenario import build_stream_scenario, synthetic_records

    if args.delta_ratio <= 0 or args.delta_ratio > 1:
        print(f"error: --delta-ratio must be in (0, 1], got "
              f"{args.delta_ratio}", file=sys.stderr)
        return 2
    if args.emit_events is not None:
        records = synthetic_records(
            items=args.items, steps=args.steps,
            delta_ratio=args.delta_ratio, seed=args.seed,
            drift_after=args.drift_after,
        )
        count = JsonLinesSource.write(args.emit_events, records)
        print(f"wrote {count} records to {args.emit_events}")
        return 0

    scenario = build_stream_scenario(args.filter_condition)
    enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
    if args.events is not None:
        source = JsonLinesSource(args.events, follow=args.follow)
        feed_label = args.events
    else:
        class _ListSource:
            def __init__(self, records):
                self._records = records

            def records(self):
                return iter(self._records)

        source = _ListSource(synthetic_records(
            items=args.items, steps=args.steps,
            delta_ratio=args.delta_ratio, seed=args.seed,
            drift_after=args.drift_after,
        ))
        feed_label = (f"synthetic (items {args.items}, steps {args.steps}, "
                      f"delta ratio {args.delta_ratio:g}, seed {args.seed})")
    cursor = (
        CursorFile(args.cursor_dir, args.cursor_name)
        if args.cursor_dir is not None else None
    )
    engine = StreamEngine(
        enactor,
        windows=RollingWindows(args.window, args.slide),
        detectors=[EwmaDetector(), CusumDetector()],
        cursor=cursor,
        name=args.cursor_name,
    )
    print(f"stream over view {scenario.view.name!r} — feed: {feed_label}")
    if engine.resumed:
        print(f"resumed from persisted watermark seq {engine.watermark} "
              f"(records at or below it are skipped)")
    mismatches = 0

    def show(step):
        nonlocal mismatches
        report = step.outcome.report
        lookups = report.memo_hits + report.memo_misses
        hit_rate = report.memo_hits / lookups if lookups else 0.0
        suffix = ""
        if args.verify:
            oracle = wire.dumps(wire.encode_result(enactor.full_recompute()))
            same = wire.dumps(wire.encode_result(step.outcome.result)) == oracle
            mismatches += 0 if same else 1
            suffix += "  verify=ok" if same else "  verify=MISMATCH"
        for event in step.drift_events:
            suffix += (f"  DRIFT[{event.detector} {event.direction} "
                       f"stat={event.statistic:.2f}]")
        for window in step.closed_windows:
            suffix += (f"  window[{window.start:g}..{window.end:g} "
                       f"mean={window.mean:.3f} n={window.count}]")
        print(f"seq {step.record.seq:>4}  items {report.items_total:>4}  "
              f"delta {report.delta_size:>3}  reannotated "
              f"{report.reannotated_items:>3}  memo {hit_rate:>4.0%}  "
              f"surviving {step.signal:.3f}{suffix}")

    stats = engine.run(source, max_records=args.max_records, on_step=show)
    print(f"\n{stats.processed} processed, {stats.skipped} skipped "
          f"(watermark {stats.watermark}), {stats.drift_events} drift "
          f"event(s), {stats.windows_closed} window(s) closed"
          + (f"; {stats.replayed} record(s) replayed into the feed, "
             f"{stats.bootstrapped_items} item(s) re-bootstrapped"
             if stats.replayed else "")
          + (f"; cursor {cursor.path}" if cursor is not None else ""))
    if args.verify:
        print(f"verification: {stats.processed - mismatches}/"
              f"{stats.processed} byte-equal to full recompute")
        if mismatches:
            return 1
    return 0


def _cmd_store(args) -> int:
    import json

    from repro.storage import StorageError, bulk_load_ntriples, open_backend

    try:
        if args.store_command == "load":
            summary = bulk_load_ntriples(args.file, args.directory)
            print(f"loaded {summary['triples_loaded']} triples "
                  f"({summary['terms']} terms) into {summary['directory']} "
                  f"in {summary['seconds']:.2f}s "
                  f"({summary['triples_per_second']:,.0f} triples/sec, "
                  f"run {summary['segment_bytes']:,} bytes)")
            return 0
        if args.store_command == "verify":
            from repro.storage.verify import verify_store

            report = verify_store(args.directory)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["ok"] else 1
        backend = open_backend(args.directory, create=False, sync="none")
        try:
            if args.store_command == "info":
                from repro.storage.cursors import CursorFile, cursor_files

                description = backend.describe()
                cursors = {}
                for path in cursor_files(args.directory):
                    name = path.name[len("stream-"):-len(".cursor")]
                    document = CursorFile(args.directory, name).load()
                    cursors[path.name] = (
                        document if document is not None else "unreadable"
                    )
                description["stream_cursors"] = cursors
                print(json.dumps(description, indent=2, sort_keys=True))
            elif args.store_command == "compact":
                path = backend.compact()
                print(f"compacted {args.directory} into {path.name} "
                      f"({backend.size} triples); WAL reset")
            elif args.store_command == "snapshot":
                backend.snapshot(args.destination)
                print(f"snapshot of {args.directory} "
                      f"({backend.size} triples) written to "
                      f"{args.destination}")
        finally:
            backend.close()
        return 0
    except (StorageError, OSError) as exc:
        details = exc.details() if isinstance(exc, StorageError) else {
            "code": "os_error", "message": str(exc),
        }
        print(f"error: {json.dumps(details, sort_keys=True)}",
              file=sys.stderr)
        return 1


def _cmd_query(args) -> int:
    import time

    from repro.rdf import Graph
    from repro.rdf.sparql import SPARQLSyntaxError, compile_query
    from repro.rdf.sparql.evaluator import SPARQLEvaluationError

    if (args.sparql is None) == (args.query_file is None):
        print("error: provide the query text or --query-file (not both)",
              file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}",
              file=sys.stderr)
        return 2
    sparql = args.sparql if args.sparql is not None else _read(args.query_file)

    if args.data is not None:
        fmt = args.data_format
        if fmt is None:
            fmt = "turtle" if args.data.endswith((".ttl", ".turtle")) \
                else "ntriples"
        graph = Graph("cli:data")
        graph.parse(_read(args.data), fmt)
        print(f"loaded {len(graph)} triples from {args.data} ({fmt})")
    else:
        from repro.annotation.store import AnnotationStore
        from repro.rdf import Q
        from repro.rdf.lsid import uniprot_lsid

        store = AnnotationStore("cli:synthetic")
        evidence_types = [Q.HitRatio, Q.Coverage, Q.PeptidesCount]
        for index in range(args.synthetic_items):
            item = uniprot_lsid(f"B{index:06d}")
            for offset, evidence_type in enumerate(evidence_types):
                store.annotate(
                    item, evidence_type, (index * 7 + offset) % 100 / 100.0
                )
        graph = store.graph
        print(f"synthetic annotation store: {args.synthetic_items} items, "
              f"{len(graph)} triples")

    try:
        if args.explain:
            compiled = compile_query(sparql, use_cache=not args.no_cache)
            print(compiled.explain(graph))
            return 0
        result = None
        for run in range(args.repeat):
            started = time.perf_counter()
            result = graph.query(
                sparql,
                use_planner=not args.no_planner,
                use_cache=not args.no_cache,
            )
            elapsed = (time.perf_counter() - started) * 1e3
            if args.repeat > 1:
                print(f"run {run + 1}: {elapsed:.3f} ms")
    except (SPARQLSyntaxError, SPARQLEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result.query_type == "ASK":
        print("yes" if result.boolean else "no")
        return 0
    if result.graph is not None:
        print(result.graph.serialize("ntriples"), end="")
        return 0
    header = [f"?{var}" for var in result.variables]
    print("  ".join(header))
    for row in result:
        print("  ".join(
            value.n3() if value is not None else "-" for value in row
        ))
    print(f"({len(result)} row{'s' if len(result) != 1 else ''})")
    return 0


def _cmd_info() -> int:
    import repro

    print(repro.__doc__)
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""

    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args.file)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "demo":
        return _cmd_demo(
            args.spots, args.seed, args.proteins, args.filter_condition
        )
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "info":
        return _cmd_info()
    return 2


if __name__ == "__main__":
    sys.exit(main())
