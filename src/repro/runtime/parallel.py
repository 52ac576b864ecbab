"""Wavefront-parallel workflow enactment.

The serial :class:`repro.workflow.enactor.Enactor` fires processors one
at a time in topological order.  This module's
:class:`ParallelEnactor` instead schedules a *wavefront* over the
data/control-link DAG: every processor whose upstream dependencies have
completed is submitted to a thread pool, so independent branches of a
compiled quality view (e.g. the three QAs fed by the single Data
Enrichment step of Fig. 6) execute concurrently.

The class overrides only the base enactor's scheduling step; every
firing runs through the execution core
(:func:`repro.workflow.enactor.traced_firing`), so a parallel
enactment produces exactly the outputs of a serial one and only the
interleaving of trace events differs.  The differential tests in
``tests/test_runtime_parallel.py`` pin that equivalence down.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.observability import current_span, use_span
from repro.workflow.enactor import (
    KIND_WAVEFRONT,
    EnactmentError,
    Enactor,
    gather_port_values,
    traced_firing,
)
from repro.workflow.model import Workflow
from repro.workflow.trace import EnactmentTrace


class ParallelEnactor(Enactor):
    """Enacts workflows with wavefront (DAG-level) parallelism.

    ``max_workers`` bounds how many processors may fire concurrently.

    The instance is re-entrant: concurrent ``run`` calls from different
    threads each get their own pool, value store, and trace
    (``last_trace`` is per calling thread, as in the base class).

    Observability: thread pools do not inherit context variables, so
    the active span is captured at task submission and re-activated
    inside each firing task — a firing two pool hops away from the
    submitting job still lands in that job's trace, and its
    annotation-store reads count against exactly that job.
    """

    kind = KIND_WAVEFRONT

    def __init__(self, max_workers: int = 4, invoker=None) -> None:
        super().__init__(invoker)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def _schedule(
        self,
        workflow: Workflow,
        values: Dict[Tuple[str, str], Any],
        trace: EnactmentTrace,
        invoker,
    ) -> None:
        """Drive the ready set through a pool until the DAG drains.

        Consumes the compiled workflow's cached wavefront schedule
        (hand-built or edited workflows get a fresh one).  Only this
        (scheduler) thread touches ``values`` and ``pending``: inputs
        are gathered before submission, outputs recorded after
        completion.
        """
        schedule = workflow.ensure_schedule()
        pending: Dict[str, Set[str]] = {
            name: set(deps) for name, deps in schedule.dependencies.items()
        }
        in_flight: Dict[Future, str] = {}
        failure: Optional[EnactmentError] = None

        with ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix=f"enact-{workflow.name}",
        ) as pool:

            def submit(name: str) -> None:
                del pending[name]
                port_values = gather_port_values(workflow, name, values)
                # Captured on the scheduler thread (where the enact span
                # — and, under the execution service, the job span — is
                # active); re-activated on the pool thread in the task.
                span = current_span()

                def task() -> Dict[str, Any]:
                    with use_span(span):
                        return traced_firing(
                            trace, workflow, name, port_values, invoker
                        )

                in_flight[pool.submit(task)] = name

            for name in sorted(n for n, deps in pending.items() if not deps):
                submit(name)
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                newly_ready: List[str] = []
                for future in done:
                    name = in_flight.pop(future)
                    try:
                        outputs = future.result()
                    except EnactmentError as exc:
                        # Remember the first failure; let in-flight
                        # siblings finish but submit nothing new.
                        if failure is None:
                            failure = exc
                        continue
                    for port, value in outputs.items():
                        values[(name, port)] = value
                    for dependent in schedule.dependents[name]:
                        deps = pending.get(dependent)
                        if deps is None:
                            continue
                        deps.discard(name)
                        if not deps:
                            newly_ready.append(dependent)
                if failure is None:
                    for name in sorted(newly_ready):
                        submit(name)
        if failure is not None:
            raise failure
