"""One benchmark workload in one fresh, single-threaded process.

``run.py`` launches this file once per sample; it is not meant to be
run by hand, but it can be::

    PYTHONPATH=src python3 perfbench/workloads.py --workload egee-nop-500 \
        --seed 1 --mode measure --seconds 5

Modes:

``setup``
    Import, build the testbed, application and input data set, report
    when the first enactment could start, and exit.
``measure``
    Set up, then enact the workload at each of its ``SUBSEEDS`` seeds
    (a fresh build each time, outside the timed region), and go on
    cycling through them until ``--seconds`` have passed and at least
    the first seed ran twice; report each enactment's host time and
    simulated outcome.
``outcome``
    Set up and enact once at the first seed; report the outcome.
``trace``
    Alternate untraced and traced enactments at the first seed until
    ``--seconds`` have passed and report the per-layer metrics of the
    traced ones.

Enactment ``i`` of the workload seed ``n`` uses the simulation seed
``n * SUBSEEDS + i``.

Every process times a fixed block of plain interpreter work
(:func:`reference_block`) twice right after set-up, and the measure
mode samples the same work while each enactment runs
(:func:`sampled_run`), so that ``run.py`` can allow for how fast the
CPU ran meanwhile.

The last line of standard output is one JSON object.  An exception the
program raises after the imports is reported in it as ``error``, with
the enactments finished before it.  Only public names of ``repro`` are
called; the traced mode wraps some private methods from the outside
(see ``layers.py``).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import signal
import sys
import time
import traceback

#: simulation seeds per workload seed: one seed's makespan rides on a
#: few heavy-tailed grid overheads, so simulated throughput is the
#: median over several
SUBSEEDS = 8
#: pairs per Bronze Standard enactment, per workload
EGEE_PAIRS = 500
#: attempts per grid job on the EGEE workloads.  The testbed fails 2%
#: of attempts and stops at 3 (a job lost with probability 8e-6, about
#: one enactment in 40 losing an item); at 8 a job is lost with
#: probability 3e-14, so no item is lost and every run measures the
#: same work.  Resubmission stays immediate, so a seed whose jobs never
#: fail three times simulates exactly as with the testbed's own cap.
EGEE_MAX_ATTEMPTS = 8
#: service-3tenant traffic: 24 runs of 8 pairs, one run per tenant per
#: round, rounds 60 simulated seconds apart
SERVICE_RUNS = 24
SERVICE_PAIRS = 8
SERVICE_ROUND_S = 60.0
SERVICE_CONFIGS = ("SP+DP", "SP+DP+JG", "SP")
#: (name, fair-share weight, max concurrent runs)
SERVICE_TENANTS = (("alice", 2.0, 2), ("bob", 1.0, 2), ("carol", 1.0, 1))
#: steps of one speed sample taken during an enactment (about 2 ms),
#: and the wall-clock interval between samples (seconds)
SAMPLE_STEPS = 1_000
SAMPLE_PERIOD_S = 0.1


class _Event:
    def __init__(self, key: int, time: int) -> None:
        self.key = key
        self.time = time
        self.callbacks = [key]

    def weight(self) -> float:
        return self.time * 0.5 + len(self.callbacks)


def reference_block(n: int = 100_000) -> float:
    """Seconds for *n* steps of fixed, stdlib-only interpreter work.

    Heap pushes and pops of small objects, dict stores, attribute reads
    and string formatting: the kind of work the simulator does, in code
    no change to ``repro`` can touch.  The collector is off while it
    runs, so its time does not depend on what the program keeps on the
    heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        table: dict = {}
        total = 0.0
        start = time.perf_counter()
        for i in range(n):
            event = _Event(i, (i * 7919) % 1009)
            heapq.heappush(heap, (event.time, i, event))
            if len(heap) > 256:
                _, _, done = heapq.heappop(heap)
                table[done.key % 4099] = done
                total += done.weight()
            if i % 8 == 0:
                total += len(f"{i}:{len(table)}")
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def sampled_run(instance) -> dict:
    """Enact *instance* once, sampling the CPU's speed meanwhile.

    A shared machine's speed switches within seconds, so blocks timed
    before and after an enactment miss what happened during it.  Here a
    wall-clock interval timer interrupts the enactment every
    ``SAMPLE_PERIOD_S`` and the signal handler times a short reference
    block; one more is timed right after.  The time spent in samples is
    taken out of ``host_s``.  Sampling touches nothing the program
    uses, so the simulated outcome does not change.
    """
    samples: list = []

    def sample(signum=None, frame=None) -> None:
        samples.append(reference_block(SAMPLE_STEPS))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        run = instance.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    run["host_s"] -= sum(samples)
    sample()
    run["speed_samples"] = samples
    return run


def _timed_imports() -> dict:
    """Import the third-party stack, then repro, timing each step."""
    steps = {}
    t = time.perf_counter()
    import numpy  # noqa: F401

    steps["numpy"] = time.perf_counter() - t
    t = time.perf_counter()
    import scipy.spatial.transform  # noqa: F401

    steps["scipy"] = time.perf_counter() - t
    t = time.perf_counter()
    import networkx  # noqa: F401

    steps["networkx"] = time.perf_counter() - t
    t = time.perf_counter()
    import repro
    import repro.apps.bronze_standard  # noqa: F401
    import repro.experiments.calibration  # noqa: F401
    import repro.observability.durability  # noqa: F401
    import repro.service  # noqa: F401
    import repro.service.store  # noqa: F401

    steps["repro"] = time.perf_counter() - t
    expected = os.path.join(os.path.abspath("src"), "repro", "__init__.py")
    if os.path.abspath(repro.__file__) != expected:
        raise SystemExit(f"repro imported from {repro.__file__}, not {expected}")
    return steps


# -- the workloads --------------------------------------------------------------
#: the two per-pair sources of the Bronze Standard: an item is one pair
PAIR_SOURCES = ("referenceImage", "floatingImage")


class BronzeRun:
    """One Bronze Standard enactment on a freshly built testbed."""

    def __init__(self, seed: int, config_name: str, n_pairs: int):
        from repro import Engine, OptimizationConfig
        from repro.apps.bronze_standard import BronzeStandardApplication
        from repro.experiments.calibration import make_experiment_grid
        from repro.grid.retry import RetryPolicy
        from repro.util.rng import RandomStreams

        self.n_pairs = n_pairs
        self.engine = Engine()
        streams = RandomStreams(seed=seed)
        self.config = getattr(OptimizationConfig, config_name)().with_best_effort()
        self.service = None
        self.grid = make_experiment_grid(self.engine, streams)
        self.grid.retry_policy = RetryPolicy(max_attempts=EGEE_MAX_ATTEMPTS)
        self.app = BronzeStandardApplication(self.engine, self.grid, streams)
        self.dataset = self.app.build_dataset(n_pairs)

    def run(self) -> dict:
        from repro.observability.durability import build_durability_report

        start = time.perf_counter()
        result = self.app.enact(self.config, n_pairs=self.n_pairs, dataset=self.dataset)
        host_s = time.perf_counter() - start
        report = build_durability_report(result, n_items=self.n_pairs)
        lost = set()
        for items in result.failures.poisoned_lineage().values():
            lost |= set(items)
        # the pairs whose every registration result fed MultiTransfoTest,
        # read off the provenance of its output: counted apart from the
        # losses they must complement
        per_method: dict = {}
        for history in result.histories.get("accuracy_rotation", []):
            for parent in history.parents:
                if parent.index is None:  # not the methodToTest leaf
                    lineage = parent.lineage
                    per_method.setdefault(parent.producer, set()).update(
                        set.intersection(*(set(lineage.get(s, ())) for s in PAIR_SOURCES))
                    )
        fed = set.intersection(*per_method.values()) if per_method else set()
        accuracy = [
            float(v)
            for sink in ("accuracy_rotation", "accuracy_translation")
            for v in result.output_values(sink)
        ]
        return {
            "host_s": host_s,
            "expected": report.expected_items,
            "delivered": len(fed),
            "lost": report.lost_items,
            "lost_items": sorted(lost),
            "invocations": result.invocation_count,
            "sim_s": result.makespan,
            "jobs": len(self.grid.records),
            "accuracy": accuracy,
            "terminal": True,
        }

    def close(self) -> None:
        pass


def _label_indices(label: str) -> set:
    """Item indices of a history label: ``D3`` or ``D(0-5,7)``."""
    indices = set()
    for part in label[1:].strip("()").split(","):
        if part:
            first, _, last = part.partition("-")
            indices.update(range(int(first), int(last or first) + 1))
    return indices


def _fed_pairs_subscriber():
    """A bus subscriber counting, per service run, the items that reach
    MultiTransfoTest: pairs every per-pair processor completed, within
    the indices of the MultiTransfoTest invocation (whose label is the
    union of its input lineage)."""
    from repro.observability import Subscriber

    class FedPairs(Subscriber):
        def __init__(self) -> None:
            #: run id -> processor -> pair indices completed
            self.completed: dict = {}

        def on_end(self, span) -> None:
            attributes = span.attributes
            if span.name != "invocation" or attributes["kind"] in ("failed", "poisoned"):
                return
            label = attributes["label"]
            if attributes["processor"] == "MultiTransfoTest" or label[1:].isdigit():
                self.completed.setdefault(attributes["run"], {}).setdefault(
                    attributes["processor"], set()
                ).update(_label_indices(label))

        def delivered(self, run_id: str) -> int:
            per_processor = self.completed.get(run_id, {})
            if "MultiTransfoTest" not in per_processor:
                return 0
            return len(set.intersection(*per_processor.values()))

    return FedPairs()


class ServiceRun:
    """service-3tenant: 24 small runs of three tenants, one synchronous drain."""

    def __init__(self, seed: int):
        from repro.observability import InstrumentationBus
        from repro.service import EnactmentService, TenantSpec
        from repro.service.store import InMemoryStateStore

        self.bus = InstrumentationBus()
        self.fed = self.bus.subscribe(_fed_pairs_subscriber())
        self.service = EnactmentService(
            InMemoryStateStore(),
            policy="fair-share",
            max_concurrent_runs=4,
            testbed="cluster",
            seed=seed,
            instrumentation=self.bus,
        )
        self.engine = self.service.engine
        self.grid = self.service.grid
        for name, weight, cap in SERVICE_TENANTS:
            self.service.add_tenant(
                TenantSpec(name=name, weight=weight, max_concurrent_runs=cap)
            )
        for index in range(SERVICE_RUNS):
            self.service.submit(
                SERVICE_TENANTS[index % len(SERVICE_TENANTS)][0],
                n_items=SERVICE_PAIRS,
                config_label=SERVICE_CONFIGS[index % len(SERVICE_CONFIGS)],
                seed=seed * SERVICE_RUNS + index,
                not_before=SERVICE_ROUND_S * (index // len(SERVICE_TENANTS)),
            )

    def run(self) -> dict:
        from repro.service import RunState

        start = time.perf_counter()
        runs = self.service.drain()
        host_s = time.perf_counter() - start
        done = [r for r in runs if r.state is RunState.DONE]
        expected = sum(r.n_items for r in runs)
        return {
            "host_s": host_s,
            "expected": expected,
            "delivered": sum(self.fed.delivered(r.run_id) for r in done),
            # every item of a run that does not finish DONE is lost
            "lost": sum(r.n_items for r in runs if r.state is not RunState.DONE),
            "lost_items": [r.run_id for r in runs if r.state is not RunState.DONE],
            "invocations": sum(int(r.result["invocations"]) for r in done),
            "sim_s": self.engine.now,
            "jobs": len(self.grid.records),
            # per-run results live behind a digest in the service's records
            "accuracy": [],
            "runs": [
                [r.run_id, r.state.value, r.result.get("outputs_digest")]
                for r in runs
            ],
            "terminal": all(r.state.terminal for r in runs),
        }

    def close(self) -> None:
        self.service.close()


WORKLOADS = {
    "egee-spdpjg-500": lambda seed: BronzeRun(seed, "sp_dp_jg", EGEE_PAIRS),
    "egee-nop-500": lambda seed: BronzeRun(seed, "nop", EGEE_PAIRS),
    "service-3tenant": ServiceRun,
}
#: items one enactment of each workload should deliver
EXPECTED_ITEMS = {
    "egee-spdpjg-500": EGEE_PAIRS,
    "egee-nop-500": EGEE_PAIRS,
    "service-3tenant": SERVICE_RUNS * SERVICE_PAIRS,
}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_mode(args, out: dict) -> None:
    """Set up, then do what ``args.mode`` asks, filling *out*."""
    workload = WORKLOADS[args.workload]

    def build(index: int):
        return workload(args.seed * SUBSEEDS + index)

    build_start = time.perf_counter()
    instance = build(0)
    out["ready_at"] = time.monotonic()
    out["build_s"] = time.perf_counter() - build_start
    # how fast the CPU runs right after set-up
    out["reference_s"] = [reference_block(), reference_block()]
    if args.mode == "setup":
        instance.close()
    elif args.mode == "outcome":
        out["runs"] = [dict(instance.run(), subseed=0)]
        instance.close()
    elif args.mode == "measure":
        runs = out["runs"] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            runs.append(dict(sampled_run(instance), subseed=len(runs) % SUBSEEDS))
            instance.close()
            instance = None
            gc.collect()
            if len(runs) > SUBSEEDS and time.perf_counter() >= deadline:
                break
            instance = build(len(runs) % SUBSEEDS)
    else:
        from layers import trace_workload

        out.update(trace_workload(instance, build, args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "measure", "outcome", "trace")
    )
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None, help="trace mode: write spans here")
    args = parser.parse_args(argv)

    out = {"workload": args.workload, "seed": args.seed, "imports": _timed_imports()}
    try:
        run_mode(args, out)
    except Exception:
        out["error"] = traceback.format_exc(limit=-6)
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
