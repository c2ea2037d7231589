"""The repository benchmark: one command for the Bronze Standard workloads.

Run from the repository root::

    python3 perfbench/run.py --workload egee-spdpjg-500 --seed 1 --seconds 25 --trace 0

BENCHMARK.json lists the workloads.  Every sample runs in a fresh
single-threaded interpreter (``perfbench/workloads.py``) that calls only
public ``repro`` names.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh launches), host cost per delivered item and per completed
invocation (medians over the enactments of one ``--seconds`` window),
peak resident memory, and simulated throughput (median over the run's
simulation seeds).  ``--trace 1`` runs the traced process
(``perfbench/layers.py``) and reports the per-layer metrics; no
end-to-end number comes from it.

Host times (set-up included) allow for the machine's speed.  The
cores of a shared machine slow down by up to 2-3x, switching within
seconds and staying so for minutes, while neighbours are busy.  So
every process times a fixed block of stdlib-only work
(``workloads.reference_block``) twice right after set-up, and samples
a short one every 0.1 s while each enactment runs
(``workloads.sampled_run``).  A wall-clock time ``t`` is reported as
``t * nominal / b``, where ``b`` is the mean time of the blocks timed
with it (for a set-up, the two after it; for an enactment, its
samples) and ``nominal`` their time on the machine the bounds were set
on.  The raw wall-clock medians are on the ``report:`` line.

Either way the outputs are checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(items of the enactments, counting every item of an enactment that
fails a check as failed, lost items included) and ``metrics``, with
the names and units BENCHMARK.json declares.  The exit code is 1 when a
check fails or the program fails (raises, or runs past the time limit;
every item then counts as failed and the metrics read 0), 2 when the
benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import EXPECTED_ITEMS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
#: the two EGEE workloads enact the same data set with the same per-
#: invocation noise: their accuracy outputs must be equal
PARTNER = {"egee-spdpjg-500": "egee-nop-500", "egee-nop-500": "egee-spdpjg-500"}
#: fresh interpreters timed for setup_s besides the measured process
#: (the median shrugs off the first launch in a checkout compiling
#: bytecode)
SETUP_LAUNCHES = 3
TRACE_SETUP_LAUNCHES = 2
#: every process of one invocation must end within this (seconds)
TOTAL_TIMEOUT_S = 170.0
#: median seconds of a set-up reference block and of a speed sample on
#: the machine the bounds were set on: the nominal speed host times are
#: referred to
NOMINAL_REFERENCE_S = 0.2
NOMINAL_SAMPLE_S = 0.0017

SETUP_LAYER = {
    "setup.import_numpy_s": "numpy",
    "setup.import_scipy_s": "scipy",
    "setup.import_networkx_s": "networkx",
    "setup.import_repro_s": "repro",
}


class ChildError(RuntimeError):
    """The benchmark cannot run: a workload process crashed."""


class ProgramFault(RuntimeError):
    """The program failed inside a workload process."""


class Bench:
    """One benchmark invocation: the workload processes it launches."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + TOTAL_TIMEOUT_S

    def child(self, mode: str, workload: str = "", extra: tuple = ()) -> dict:
        """Run one workload process; returns its JSON plus ``setup_s``."""
        workload = workload or self.workload
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        command = [
            sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(self.seed), "--mode", mode, "--seconds", repr(self.seconds),
            *extra,
        ]
        launched = time.monotonic()
        timeout = self.deadline - launched
        try:
            done = subprocess.run(
                command, cwd=self.root, env=env, capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise ProgramFault(f"{workload} {mode} ran past the time limit") from None
        if done.returncode != 0:
            raise ChildError(
                f"{workload} {mode} exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if "error" in result:
            raise ProgramFault(f"{workload} {mode} raised:\n{result['error']}")
        result["setup_s"] = result["ready_at"] - launched
        return result


def _speed(blocks: list, nominal: float) -> float:
    """Factor referring a host time to the nominal speed, from the
    reference blocks timed with it."""
    return nominal / statistics.mean(blocks)


def _sim_outcome(run: dict) -> str:
    """What must repeat exactly at a fixed simulation seed."""
    return json.dumps([run[key] for key in (
        "sim_s", "jobs", "delivered", "lost_items", "invocations", "accuracy"
    )] + [run.get("runs")])


def check_runs(runs: list, partner=None) -> list:
    """Output checks over the enactments of one process; returns problems.

    *partner* is the other EGEE workload's enactment at the first seed:
    with the same items delivered, the accuracy outputs must be equal.
    """
    problems = []
    for index, run in enumerate(runs):
        if run["delivered"] + run["lost"] != run["expected"]:
            problems.append(f"enactment {index}: delivered + lost != expected")
        if not all(math.isfinite(v) for v in run["accuracy"]):
            problems.append(f"enactment {index}: accuracy outputs not finite")
        if not run["terminal"]:
            problems.append(f"enactment {index}: not every service run is terminal")
        if run["delivered"] < 1 or run["invocations"] < 1:
            problems.append(f"enactment {index}: nothing delivered")
    outcomes = {}
    for run in runs:
        outcomes.setdefault(run["subseed"], set()).add(_sim_outcome(run))
    if any(len(seen) > 1 for seen in outcomes.values()):
        problems.append("repeated enactments differ in their simulated outcome")
    if (
        partner is not None
        and partner["lost_items"] == runs[0]["lost_items"]
        and partner["accuracy"] != runs[0]["accuracy"]
    ):
        problems.append("accuracy outputs differ from the partner EGEE workload")
    return problems


def measure(bench: Bench) -> tuple:
    main = bench.child("measure")
    setups = [bench.child("setup") for _ in range(SETUP_LAUNCHES)] + [main]
    runs = main["runs"]
    partner = None
    if bench.workload in PARTNER:
        partner = bench.child("outcome", PARTNER[bench.workload])["runs"][0]
    problems = check_runs(runs, partner)
    distinct = {run["subseed"]: run for run in runs}.values()
    speeds = [_speed(r["speed_samples"], NOMINAL_SAMPLE_S) for r in runs]
    per_item = [(1e3 * r["host_s"] / r["delivered"], f) for r, f in zip(runs, speeds)
                if r["delivered"]]
    per_invocation = [(1e6 * r["host_s"] / r["invocations"], f)
                      for r, f in zip(runs, speeds) if r["invocations"]]
    wall = {
        "setup_s": statistics.median([s["setup_s"] for s in setups]),
        "host_ms_per_item": statistics.median([t for t, _ in per_item] or [0.0]),
        "host_us_per_invocation": statistics.median([t for t, _ in per_invocation] or [0.0]),
    }
    metrics = {
        "setup_s": statistics.median(
            [s["setup_s"] * _speed(s["reference_s"], NOMINAL_REFERENCE_S) for s in setups]
        ),
        "host_ms_per_item": statistics.median([t * f for t, f in per_item] or [0.0]),
        "host_us_per_invocation": statistics.median(
            [t * f for t, f in per_invocation] or [0.0]
        ),
        "peak_rss_mb": main["peak_rss_mb"],
        "sim_items_per_hour": statistics.median(
            [r["delivered"] / (r["sim_s"] / 3600.0) for r in distinct]
        ),
    }
    report = {
        "wall_clock": wall,
        "enactments": len(runs),
        "speed_factors": speeds,
        "partner_compared": partner is not None
        and partner["lost_items"] == runs[0]["lost_items"],
        "host_s": [r["host_s"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups],
    }
    return metrics, runs, problems, report


def trace(bench: Bench) -> tuple:
    setups = [bench.child("setup") for _ in range(TRACE_SETUP_LAUNCHES)]
    spans_dir = os.path.join(bench.root, "perfbench", "traces")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{bench.workload}-seed{bench.seed}.jsonl")
    main = bench.child("trace", extra=("--spans", spans))
    samples = setups + [main]
    metrics = {
        name: statistics.median([s["imports"][step] for s in samples])
        for name, step in SETUP_LAYER.items()
    }
    metrics["setup.build_s"] = statistics.median([s["build_s"] for s in samples])
    metrics.update(main["layers"])
    runs = main["runs"]
    problems = check_runs(runs)
    if main["count_mismatches"]:
        problems.append(f"traced counts differ between enactments: {main['count_mismatches']}")
    return metrics, runs, problems, {"spans": os.path.relpath(spans, bench.root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no src/repro under {root}: run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds)
        metrics, runs, problems, report = (trace if args.trace else measure)(bench)
    except ChildError as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 2
    except ProgramFault as exc:
        metrics = dict.fromkeys(units, 0.0)
        runs = [{"expected": EXPECTED_ITEMS[args.workload], "lost": 0}]
        problems, report = [str(exc)], {}

    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured "
              "and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    attempted = sum(r["expected"] for r in runs)
    failed = sum(r["lost"] for r in runs)
    if problems:
        failed = attempted
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"report: {json.dumps(report)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
