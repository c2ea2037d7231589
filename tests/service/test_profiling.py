"""Service profiling: engine counters in rows, cProfile at the CLI edge."""

import json

from repro.grid.testbeds import cluster_testbed
from repro.observability.profiling import Profile
from repro.observability.runstore import RunStore
from repro.service import EnactmentService, InMemoryStateStore, TenantSpec
from repro.service.__main__ import main as service_main


def small_cluster(engine, streams):
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def make_service(**overrides):
    kwargs = dict(
        policy="fair-share",
        max_concurrent_runs=2,
        testbed=small_cluster,
        seed=0,
    )
    kwargs.update(overrides)
    return EnactmentService(InMemoryStateStore(), **kwargs)


def drain_one(service):
    service.add_tenant(TenantSpec(name="alice", weight=1.0))
    service.submit("alice", n_items=1, seed=1)
    service.drain()
    return service


class TestServiceProfiler:
    def test_unprofiled_rows_have_no_profile_counters(self, tmp_path):
        runstore = RunStore(tmp_path / "runstore")
        drain_one(make_service(runstore=runstore))
        (summary,) = runstore.runs()
        assert not any(
            key.startswith("perf.profile.") for key in summary.counters
        )

    def test_perf_counters_include_engine_lifetime_counters(self):
        service = drain_one(make_service())
        counters = service.perf_counters()
        assert counters["engine.events_processed"] > 0
        assert counters["engine.events_scheduled"] >= (
            counters["engine.events_processed"]
        )
        assert counters["engine.peak_heap_size"] >= 1

    def test_profile_flag_profiles_the_whole_drain(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({
            "tenants": [{"name": "alice"}],
            "runs": [{"tenant": "alice", "n_items": 1}],
        }))
        profile_path = tmp_path / "drain.json"
        runstore = tmp_path / "runstore"
        code = service_main([
            "--store", "memory", "--testbed", "ideal", "--runstore", str(runstore),
            "--profile", str(profile_path), "demo", "--script", str(script),
        ])
        assert code == 0
        assert str(profile_path) in capsys.readouterr().out
        components = Profile.load(profile_path).by_component()
        assert components["service"] > 0 and components["sim"] > 0
        # the profile is the drain's; rows no longer repeat its totals
        (summary,) = RunStore(runstore).runs()
        assert not any(key.startswith("perf.profile.") for key in summary.counters)
