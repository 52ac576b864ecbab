"""E17 — staged compiler passes: invocations saved, latency preserved.

ISSUE 5 replaced the single-shot quality-view compiler with a staged
pipeline (frontend -> pass manager -> backend).  Two claims to pin
down with numbers:

* on a workload shaped for the optimizer — a prunable annotator, two
  fusable HRScore assertions, a pushable filter conjunct — the
  observed-mode plan must pay **>= 25% fewer service invocations** per
  enactment than the no-pass compilation (``NO_PASSES``: every pass
  disabled, the plain Sec. 6.1 translation), with identical filter
  verdicts (byte-level equivalence is enforced by
  ``tests/test_compile_differential.py``);
* on a workload where no invocation-saving pass fires (the Sec. 5.1
  example view under the default all-outputs-observed contract) the
  optimized plan must show **no end-to-end latency regression**
  (within ~1.15x of the no-pass plan, min-of-repeats).

The workload mirrors the deterministic pushdown view used by the
compiler test suite; a per-invocation sleep stands in for the remote
round trips of Sec. 6.3, so saved invocations translate directly into
saved wall-clock.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.proteomics import ProteomicsScenario
from repro.proteomics.results import ImprintResultSet
from repro.qv import parse_quality_view
from repro.qv.passes import NO_PASSES, CompileOptions
from repro.workflow.enactor import Enactor

N_JOBS = 12
SERVICE_LATENCY_S = 0.010  # simulated per-invocation round trip

PUSHDOWN_XML = """
<QualityView name="pushdown-workload">
  <Annotator serviceName="ImprintOutputAnnotator"
             serviceType="q:Imprint-output-annotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:coverage"/>
      <var evidence="q:hitRatio"/>
      <var evidence="q:peptidesCount"/>
    </variables>
  </Annotator>
  <Annotator serviceName="EldpAnnotator"
             serviceType="q:Imprint-output-annotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:masses"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="HR score" serviceType="q:HRScore"
                    tagName="HR" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitRatio" evidence="q:hitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion serviceName="HR score b" serviceType="q:HRScore"
                    tagName="HRB" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitRatio" evidence="q:hitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion serviceName="HR MC score"
                    serviceType="q:UniversalPIScore2"
                    tagName="HRMC" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="coverage" evidence="q:coverage"/>
      <var variableName="hitRatio" evidence="q:hitRatio"/>
      <var variableName="peptidesCount" evidence="q:peptidesCount"/>
    </variables>
  </QualityAssertion>
  <action name="keep good">
    <filter><condition>HR &gt; 40 and HRMC &gt; 30</condition></filter>
  </action>
</QualityView>
"""

OBSERVED = CompileOptions(observed_outputs=frozenset({"keep_good_accepted"}))


class LatencyInjector:
    """Counts round trips; optionally charges each one a fixed delay."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.calls = 0

    def on_invocation(self, service) -> None:
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)


def _world(bench_seed):
    scenario = ProteomicsScenario.generate(
        seed=bench_seed, n_proteins=200, n_spots=6
    )
    runs = scenario.identify_all()
    results = ImprintResultSet(runs)
    framework, holder = setup_framework(scenario)
    holder.set(results)
    datasets = [
        list(results.items_of_run(runs[k % len(runs)].run_id))
        for k in range(N_JOBS)
    ]
    return framework, datasets


def _run_jobs(framework, workflow, datasets):
    enactor = Enactor()
    outputs = []
    started = time.perf_counter()
    for items in datasets:
        framework.repositories.clear_transient()
        outputs.append(
            enactor.run(workflow, {"dataSet": items}).get(
                "keep_good_accepted"
            )
        )
    return time.perf_counter() - started, outputs


def _best_of(framework, workflow, datasets, repeats=3):
    return min(
        _run_jobs(framework, workflow, datasets)[0] for _ in range(repeats)
    )


def test_pushdown_workload_saves_invocations(bench_seed):
    framework, datasets = _world(bench_seed)
    injector = LatencyInjector(SERVICE_LATENCY_S)
    for service in framework.services:
        service.fault_injector = injector

    spec = parse_quality_view(PUSHDOWN_XML)
    compile_started = time.perf_counter()
    reference = framework.compiler.compile(spec, options=NO_PASSES)
    reference_compile_ms = (time.perf_counter() - compile_started) * 1e3
    compile_started = time.perf_counter()
    optimized, report = framework.compiler.compile_with_report(
        spec, options=OBSERVED
    )
    optimized_compile_ms = (time.perf_counter() - compile_started) * 1e3

    injector.calls = 0
    ref_seconds, ref_outputs = _run_jobs(framework, reference, datasets)
    ref_calls = injector.calls
    injector.calls = 0
    opt_seconds, opt_outputs = _run_jobs(framework, optimized, datasets)
    opt_calls = injector.calls

    assert opt_outputs == ref_outputs, "filter verdicts diverged"
    saving = 1 - opt_calls / ref_calls
    speedup = ref_seconds / opt_seconds

    # -- latency flatness where no invocation-saving pass fires ----------
    for service in framework.services:
        service.fault_injector = None
    flat_spec = parse_quality_view(example_quality_view_xml())
    flat_reference = framework.compiler.compile(flat_spec, options=NO_PASSES)
    flat_optimized = framework.compiler.compile(flat_spec)
    flat_datasets = datasets[:4]
    flat_ref = _best_of(framework, flat_reference, flat_datasets)
    flat_opt = _best_of(framework, flat_optimized, flat_datasets)
    flat_ratio = flat_opt / flat_ref

    lines = [
        f"jobs: {N_JOBS}, simulated round trip: "
        f"{SERVICE_LATENCY_S * 1e3:.0f} ms, passes fired: "
        f"{', '.join(report.fired())}",
        f"{'pipeline':>10} {'invocations':>12} {'per job':>8} "
        f"{'wall (s)':>9} {'compile (ms)':>13}",
        f"{'no-pass':>10} {ref_calls:>12} {ref_calls / N_JOBS:>8.1f} "
        f"{ref_seconds:>9.2f} {reference_compile_ms:>13.1f}",
        f"{'optimized':>10} {opt_calls:>12} {opt_calls / N_JOBS:>8.1f} "
        f"{opt_seconds:>9.2f} {optimized_compile_ms:>13.1f}",
        f"invocations saved: {saving:.0%} (acceptance: >= 25%), "
        f"end-to-end speedup: {speedup:.2f}x",
        f"latency ratio where no invocation-saving pass fires "
        f"(optimized/no-pass): "
        f"{flat_ratio:.2f}x (acceptance: <= ~1.15x)",
    ]
    write_table(
        "E17_compiler_passes",
        "Staged compiler passes vs no-pass compilation",
        lines,
        seed=bench_seed,
    )

    summary = {
        "experiment": "E17_compiler_passes",
        "seed": bench_seed,
        "workload": {
            "n_jobs": N_JOBS,
            "service_latency_ms": SERVICE_LATENCY_S * 1e3,
            "passes_fired": report.fired(),
            "baseline": "no-pass compilation (every pass disabled)",
        },
        "invocations": {
            "no_pass": ref_calls,
            "optimized": opt_calls,
            "saving": round(saving, 3),
        },
        "wall_seconds": {
            "no_pass": round(ref_seconds, 3),
            "optimized": round(opt_seconds, 3),
            "speedup": round(speedup, 2),
        },
        "compile_ms": {
            "no_pass": round(reference_compile_ms, 2),
            "optimized": round(optimized_compile_ms, 2),
        },
        "no_pass_latency_ratio": round(flat_ratio, 3),
        "acceptance": {
            "invocation_saving_min": 0.25,
            "invocation_saving_ok": saving >= 0.25,
            "no_pass_latency_ratio_max": 1.15,
            "no_pass_latency_ratio_ok": flat_ratio <= 1.15,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_E17.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    assert saving >= 0.25, (
        f"optimized plan still pays {opt_calls}/{ref_calls} invocations "
        f"({saving:.0%} saved; need >= 25%)"
    )
    assert flat_ratio <= 1.15, (
        f"optimized plan is {flat_ratio:.2f}x the no-pass plan on a workload "
        f"where no invocation-saving pass fires (need <= 1.15x)"
    )
