"""Property: component self times partition a profile's total.

Whatever rows a recording produces, every row's weight is accounted to
exactly one component; the per-component ``perf.profile.*`` counters
and the collapsed-stack export both lean on this invariant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.profiling import (
    Profile,
    parse_collapsed,
    profile_counters,
    to_collapsed,
)

COMPONENTS = ("sim", "core", "grid", "numpy", "stdlib", "builtins")
FUNCTIONS = ("Engine.step", "MoteurEnactor._invoke", "<lambda>", "f.<locals>.g")

rows = st.dictionaries(
    st.builds(
        lambda component, module, function: f"{component};{module}:{function}",
        st.sampled_from(COMPONENTS),
        st.sampled_from(("repro.sim.engine", "heapq", "numpy.linalg")),
        st.sampled_from(FUNCTIONS),
    ),
    st.integers(1, 10**9),
    max_size=30,
)


class TestSelfTimesSumToRootCum:
    @given(rows=rows)
    @settings(max_examples=100, deadline=None)
    def test_component_self_times_partition_the_total(self, rows):
        profile = Profile.from_dict(
            {"format": Profile.FORMAT, "label": "", "clock": "wall", "rows": rows}
        )
        assert sum(profile.by_component().values()) == profile.total
        assert sum(profile_counters(profile).values()) == profile.total
        weights = parse_collapsed(to_collapsed(profile))
        assert sum(weights.values()) == profile.total
