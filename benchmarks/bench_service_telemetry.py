"""Telemetry overhead: the ops layer must cost <= 5% wall-clock.

The control-plane observability added for the service — audit events,
live rollups, SLO evaluation, throughput counters — runs inline with
every scheduler decision.  This benchmark enacts the identical
three-tenant bronze workload twice: once with a bare instrumentation
bus (the PR-5 status quo) and once with the full ops stack (bus +
rollups + SLO tracking + audit fan-in), and compares best-of-N wall
times.  The acceptance bar is a <=5% overhead on the bronze smoke
workload; the assertion allows 15% to keep CI machines' scheduling
jitter from flaking the build while still catching a real regression
(an accidentally quadratic fold shows up as 2-10x, not 1.15x).
"""

from __future__ import annotations

import time

from repro.grid.testbeds import cluster_testbed
from repro.observability import InstrumentationBus
from repro.service import EnactmentService, InMemoryStateStore, RunState, TenantSpec

BENCH_SEED = 42
ROUNDS = 5
#: CI-friendly assertion bar; the acceptance target is OVERHEAD_TARGET
OVERHEAD_TARGET = 0.05
OVERHEAD_LIMIT = 0.15


def small_cluster(engine, streams):
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def run_workload(with_ops_telemetry):
    """One full three-tenant drain; returns (wall_seconds, service)."""
    service = EnactmentService(
        InMemoryStateStore(),
        policy="fair-share",
        max_concurrent_runs=3,
        testbed=small_cluster,
        seed=BENCH_SEED,
        instrumentation=InstrumentationBus(),
    )
    if not with_ops_telemetry:
        # strip the ops layer back to the PR-5 shape: no rollup
        # subscriber on the bus, no SLO evaluation on audit events
        service.instrumentation.subscribers.remove(service.telemetry)
        service.slo_tracker.slos = []
    for name, weight in (("alice", 2.0), ("bob", 1.0), ("carol", 1.0)):
        service.add_tenant(TenantSpec(name=name, weight=weight, max_concurrent_runs=2))
    seed = 100
    for name in ("alice", "bob", "carol"):
        for _ in range(2):
            service.submit(name, n_items=1, seed=seed)
            seed += 1
    begin = time.perf_counter()
    runs = service.drain()
    wall = time.perf_counter() - begin
    assert len(runs) == 6
    assert all(run.state is RunState.DONE for run in runs)
    return wall, service


def best_of_interleaved(rounds):
    """Alternate the two arms per round so drift hits both equally."""
    run_workload(False)  # warm caches, imports, allocator
    run_workload(True)
    bare_walls, full_walls = [], []
    service = None
    for _ in range(rounds):
        wall, _ = run_workload(False)
        bare_walls.append(wall)
        wall, service = run_workload(True)
        full_walls.append(wall)
    return min(bare_walls), min(full_walls), service


def test_ops_telemetry_overhead(benchmark=None):
    def measure():
        return best_of_interleaved(ROUNDS)

    if benchmark is not None:
        bare, full, service = benchmark.pedantic(measure, rounds=1, iterations=1)
    else:
        bare, full, service = measure()

    overhead = (full - bare) / bare
    perf = service.perf_counters()
    print("\n=== ops telemetry overhead (bronze smoke, 3 tenants x 2 runs) ===")
    print(f"bare bus      : {bare * 1000:8.1f} ms")
    print(f"with ops layer: {full * 1000:8.1f} ms")
    print(f"overhead      : {overhead * 100:+8.1f}%  (target <= "
          f"{OVERHEAD_TARGET:.0%}, asserted <= {OVERHEAD_LIMIT:.0%})")
    if "perf.events_per_sec" in perf:
        print(f"engine        : {perf['perf.events_per_sec']:8.0f} events/s, "
              f"{perf.get('perf.us_per_invocation', 0.0):.0f} us/invocation")

    # sanity: the full arm actually ran the ops stack
    assert service.telemetry.totals().done == 6
    assert service.telemetry.totals().invocations > 0
    assert overhead <= OVERHEAD_LIMIT


if __name__ == "__main__":
    test_ops_telemetry_overhead()
