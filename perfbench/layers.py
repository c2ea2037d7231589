"""The traced run: which calls into each layer are wrapped, and the
per-layer metrics read off the spans and the finished workload.

Layers are the packages of ``src/repro``.  ``cache``, ``taskbased``,
``model`` and ``experiments`` are out of scope: no workload turns the
cache on, ``taskbased`` is a comparison baseline and ``model`` is
closed-form.  Work a layer does inside a simulator step that is not
wrapped here counts as the step's (``sim``) self time.
"""

from __future__ import annotations

import gc
import statistics
import time

from tracer import Tracer

def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer (undo with ``tracer.unpatch()``)."""
    from repro.apps import transforms
    from repro.apps.transforms import RigidTransform
    from repro.core import grouping, provenance
    from repro.core.enactor import MoteurEnactor
    from repro.core.iteration import IterationEngine
    from repro.grid.broker import ResourceBroker
    from repro.grid.middleware import Grid
    from repro.observability.bus import InstrumentationBus
    from repro.observability.ops.rollup import ControlPlaneTelemetry
    from repro.observability.ops.slo import SLOTracker
    from repro.service.scheduler import EnactmentService
    from repro.services.base import Service
    from repro.services.wrapper import GenericWrapperService
    from repro.sim.engine import Engine
    from repro.workflow import analysis, validation

    tracer.patch_methods("sim.step", Engine, ["step"])

    offer = IterationEngine.offer

    def counted_offer(self, port, token):
        bindings = offer(self, port, token)
        if tracer.enabled:
            tracer.calls["core.bindings"] += len(bindings)
        return bindings

    tracer.patch_attr(IterationEngine, "offer", tracer.span_wrapper("core.offer", counted_offer))
    tracer.patch_function("core.compatible", provenance, "compatible", count_only=True)
    # enact() sets a run up; the invocation processes route tokens
    tracer.patch_methods("core.enactor", MoteurEnactor, ["enact", "_invoke", "_sync_invoke"])

    # grouping, cycle and validity checks at enactor build
    tracer.patch_function("workflow.analysis", validation, "require_valid")
    tracer.patch_function("workflow.analysis", analysis, "find_cycles")
    tracer.patch_function("workflow.analysis", grouping, "group_workflow")

    tracer.patch_methods("services.invoke", Service, ["invoke_recorded"])
    tracer.patch_methods("services.execute", Service, ["_guarded"])
    tracer.patch_methods("services.prepare_job", GenericWrapperService, ["prepare_job"])

    tracer.patch_methods(
        "apps.transform",
        RigidTransform,
        [
            "__post_init__", "identity", "from_euler_deg", "random", "rotation",
            "compose", "inverse", "apply", "perturb", "rotation_distance_deg",
            "translation_distance", "is_close",
        ],
    )
    tracer.patch_function("apps.transform", transforms, "mean_transform")

    tracer.patch_methods("grid.submit", Grid, ["submit"])
    tracer.patch_methods("grid.broker_match", ResourceBroker, ["match"])
    tracer.patch_methods("grid.stage_in", Grid, ["stage_in_time", "stage_in_process"])

    tracer.patch_methods("observability.bus_begin", InstrumentationBus, ["begin"])
    tracer.patch_methods("observability.bus", InstrumentationBus, ["end", "record"])
    tracer.patch_methods(
        "observability.telemetry", ControlPlaneTelemetry, ["on_start", "on_end", "on_audit"]
    )
    tracer.patch_methods("observability.telemetry", SLOTracker, ["update"])

    tracer.patch_methods("service.tick", EnactmentService, ["tick"])
    tracer.patch_methods("service.admission", EnactmentService, ["_admit"])


def layer_metrics(tracer: Tracer, instance, transfers: list, untraced_s: float) -> dict:
    """Per-layer metrics of one traced enactment of *instance*."""
    calls, self_s = tracer.calls, tracer.total_self
    counters = instance.engine.counters()
    events = counters["engine.events_processed"]
    records = instance.grid.records
    attempts = sum(r.attempts for r in records)
    compatible_calls = calls["core.compatible"]
    metrics = {
        "sim.events": events,
        "sim.peak_heap": counters["engine.peak_heap_size"],
        "sim.step_self_s": self_s("sim.step"),
        "sim.events_per_host_s": events / untraced_s,
        "core.offer_calls": calls["core.offer"],
        "core.offer_self_s": self_s("core.offer"),
        "core.compatible_calls": compatible_calls,
        "core.match_yield": (
            calls["core.bindings"] / compatible_calls if compatible_calls else 0.0
        ),
        "core.enactor_self_s": self_s("core.enactor"),
        "workflow.analysis_self_s": self_s("workflow.analysis"),
        "services.invoke_calls": calls["services.invoke"],
        "services.invoke_self_s": self_s("services.invoke", "services.execute"),
        "services.prepare_job_self_s": self_s("services.prepare_job"),
        "apps.transform_calls": calls["apps.transform"],
        "apps.transform_self_s": self_s("apps.transform"),
        "grid.jobs": len(records),
        "grid.attempts": attempts,
        "grid.attempt_yield": len(records) / attempts if attempts else 0.0,
        "grid.submit_self_s": self_s("grid.submit"),
        "grid.broker_match_self_s": self_s("grid.broker_match"),
        "grid.stage_in_self_s": self_s("grid.stage_in"),
        "grid.transfers": len(transfers),
        "grid.bytes_moved": sum(transfers),
    }
    metrics.update({
        "observability.spans": calls["observability.bus_begin"],
        "observability.bus_self_s": self_s("observability.bus_begin", "observability.bus"),
        "observability.telemetry_self_s": self_s("observability.telemetry"),
    })
    service = instance.service
    ticks = [1000.0 * d for d in tracer.durations.get("service.tick", [])]
    share = [
        status.value for status in service.slo_tracker.statuses()
        if status.kind == "share-deviation"
    ] if service is not None else []
    metrics.update({
        "service.ticks": len(ticks),
        "service.tick_ms_p50": statistics.median(ticks) if ticks else 0.0,
        "service.tick_ms_p80": statistics.quantiles(ticks, n=5)[3] if len(ticks) > 1 else 0.0,
        "service.admission_self_s": self_s("service.admission"),
        "service.audit_events": len(service.audit()) if service is not None else 0,
        "service.queue_wait_p95_sim_s": (
            service.telemetry.totals().queue_wait_p95() if service is not None else 0.0
        ),
        "service.share_deviation": max(share) if share else 0.0,
    })
    return metrics


#: metrics that must repeat exactly at a fixed seed
COUNTS = (
    "sim.events", "sim.peak_heap", "core.offer_calls", "core.compatible_calls",
    "core.match_yield", "services.invoke_calls", "apps.transform_calls", "grid.jobs",
    "grid.attempts", "grid.transfers", "grid.bytes_moved", "observability.spans",
    "service.ticks", "service.audit_events", "service.queue_wait_p95_sim_s",
    "service.share_deviation",
)


def trace_workload(instance, build, args) -> dict:
    """Alternate untraced and traced enactments for ``args.seconds``.

    Counts come from every traced enactment (they must agree); times
    are medians over the traced enactments.
    """
    untraced, traced, per_run, outcomes = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    while True:
        outcome = dict(instance.run(), subseed=0)
        untraced.append(outcome["host_s"])
        outcomes.append(outcome)
        instance.close()
        instance = None
        gc.collect()

        install(tracer)
        try:
            instance = build(0)
            transfers: list = []
            instance.grid.network.add_observer(
                lambda src, dst, size, seconds: transfers.append(int(size))
            )
            tracer.reset()
            tracer.enabled = True
            try:
                outcome = instance.run()
            finally:
                tracer.enabled = False
        finally:
            tracer.unpatch()
        traced.append(outcome["host_s"])
        outcomes.append(dict(outcome, subseed=0))
        per_run.append(layer_metrics(tracer, instance, transfers, untraced[-1]))
        instance.close()
        instance = None
        gc.collect()
        if time.perf_counter() >= deadline:
            break
        instance = build(0)
    if args.spans:
        tracer.write(args.spans, label=f"{args.workload} seed={args.seed}")
    metrics = {}
    for name in per_run[0]:
        values = [run[name] for run in per_run]
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.untraced_host_s"] = statistics.median(untraced)
    metrics["trace.traced_host_s"] = statistics.median(traced)
    return {
        "runs": outcomes,
        "layers": metrics,
        "count_mismatches": sorted(
            name for name in COUNTS if len({run[name] for run in per_run}) > 1
        ),
    }
