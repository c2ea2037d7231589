"""Tests for the engine's lifetime counters."""

from repro.sim.engine import Engine


def drain(engine):
    while engine.events_scheduled > engine.events_processed:
        engine.step()


class TestLifetimeCounters:
    def test_scheduled_and_processed_track_every_event(self):
        engine = Engine()
        for i in range(5):
            engine.timeout(float(i))
        assert engine.events_scheduled == 5
        drain(engine)
        assert engine.events_processed == 5

    def test_peak_heap_size_is_the_high_water_mark(self):
        engine = Engine()
        for i in range(7):
            engine.timeout(float(i))
        drain(engine)
        assert engine.peak_heap_size == 7
        engine.timeout(0.0)  # heap refills to 1; the peak must hold
        drain(engine)
        assert engine.peak_heap_size == 7

    def test_defused_failure_counts_as_cancelled(self):
        engine = Engine()
        event = engine.event("doomed")
        event.fail(RuntimeError("absorbed"))
        event.defused = True
        drain(engine)
        assert engine.events_cancelled == 1

    def test_counters_dict_uses_registry_names(self):
        engine = Engine()
        engine.timeout(1.0)
        drain(engine)
        counters = engine.counters()
        assert counters == {
            "engine.events_scheduled": 1.0,
            "engine.events_processed": 1.0,
            "engine.peak_heap_size": 1.0,
            "engine.events_cancelled": 0.0,
        }
        assert all(isinstance(value, float) for value in counters.values())
