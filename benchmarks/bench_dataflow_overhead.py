"""Data-flow collector cost: attaching it must cost <=2% throughput.

The byte *counters* are always on (the grid and enactor emit them on
any attached bus), so the only optional cost is the
:class:`~repro.observability.dataflow.DataFlowCollector` — one extra
network observer appending a frozen dataclass per transfer plus one
catalog observer updating two dicts per registration.  Transfers number
in the dozens per bronze run while engine events number in the
thousands, so the collector should be noise.  This benchmark proves it
on the instrumented bronze smoke workload with two interleaved arms:

``off``
    Instrumented run (bus attached), no collector — the default
    analytics state.
``on``
    The same run with a :class:`DataFlowCollector` attached to the
    grid and subscribed to the bus.  Acceptance target: <=2% wall-time
    cost (equivalently, ``perf.events_per_sec`` loss).

The assertion allows 10% so CI scheduling jitter cannot flake the
build, while a real regression (accidentally doing per-event work in
the observer: 2x, not 1.1x) still fails loudly.
"""

from __future__ import annotations

import time

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.grid.testbeds import egee_like_testbed
from repro.observability import InstrumentationBus
from repro.observability.dataflow import DataFlowCollector
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

BENCH_SEED = 42
PAIRS = 4
ROUNDS = 5
#: acceptance target; the assertion bar below adds CI jitter slack
ON_TARGET, ON_LIMIT = 0.02, 0.10


def run_workload(arm: str) -> float:
    """One instrumented bronze enactment; returns wall seconds."""
    engine = Engine()
    streams = RandomStreams(seed=BENCH_SEED)
    grid = egee_like_testbed(
        engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
    )
    app = BronzeStandardApplication(engine, grid, streams)
    config = next(
        c for c in OptimizationConfig.paper_configurations() if c.label == "SP+DP"
    )
    bus = InstrumentationBus()
    collector = None
    if arm == "on":
        collector = DataFlowCollector().attach(grid)
        bus.subscribe(collector)
    begin = time.perf_counter()
    result = app.enact(config, n_pairs=PAIRS, instrumentation=bus)
    wall = time.perf_counter() - begin
    assert result.invocation_count > 0
    if collector is not None:
        assert collector.records  # the arm actually measured the collector
    return wall


def best_of_interleaved(rounds: int):
    """Alternate both arms per round so machine drift hits each."""
    for arm in ("off", "on"):  # warm caches, imports, allocator
        run_workload(arm)
    walls = {"off": [], "on": []}
    for _ in range(rounds):
        for arm in ("off", "on"):
            walls[arm].append(run_workload(arm))
    return min(walls["off"]), min(walls["on"])


def test_dataflow_collector_overhead(benchmark=None):
    def measure():
        return best_of_interleaved(ROUNDS)

    if benchmark is not None:
        off, on = benchmark.pedantic(measure, rounds=1, iterations=1)
    else:
        off, on = measure()

    overhead = (on - off) / off
    print(f"\n=== collector overhead (bronze {PAIRS} pairs, best of {ROUNDS}) ===")
    print(f"collector off : {off * 1000:8.1f} ms")
    print(f"collector on  : {on * 1000:8.1f} ms  "
          f"({overhead * 100:+.1f}%, target <= {ON_TARGET:.0%}, "
          f"asserted <= {ON_LIMIT:.0%})")

    assert overhead <= ON_LIMIT


if __name__ == "__main__":
    test_dataflow_collector_overhead()
