"""Host-cost attribution from stdlib :mod:`cProfile`, at the process edge.

The simulated makespans are the paper's results; this module measures
the simulator's *own* cost.  :func:`record` runs a piece of work under
``cProfile`` and folds the statistics into per-function rows keyed
``<component>;<module>:<qualname>``, the component being the first
package under ``repro`` (``sim``, ``core``, ``grid``, ...).  No library
object holds a profiler: the commands that profile wrap their work in
:func:`record`, and everything else runs without a branch.

The ``deterministic`` clock (default) weighs a row by the call count of
a function defined under ``repro``: a pure function of the seeded
control flow, so same-seed profiles are byte-identical across processes
and hash seeds (``Engine.schedule`` calls are the heap pushes,
``InstrumentationBus.begin`` calls the spans emitted).  The ``wall``
clock weighs self microseconds and attributes code outside ``repro`` to
its top-level package (``numpy``, ...), ``stdlib`` or
``builtins``.

A :class:`Profile` saves to canonical JSON, renders as a report or a
diff, folds into the ``perf.profile.<component>`` runstore counters that
``compare-runs`` ranks when a throughput budget trips, and exports
collapsed stacks that ``flamegraph.pl`` and speedscope read directly.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import sys
import sysconfig
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

__all__ = [
    "CLOCKS", "PROFILE_PREFIX", "Profile", "ProfilerError", "record", "Delta",
    "ProfileDiff", "profile_counters", "components_from_counters", "attribute",
    "diff_profiles", "format_attribution", "format_profile_report",
    "format_profile_diff", "to_collapsed", "parse_collapsed",
]

CLOCKS = ("deterministic", "wall")
#: runstore counter namespace for the per-component breakdown
PROFILE_PREFIX = "perf.profile."

T = TypeVar("T")

_REPRO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATHS = sysconfig.get_paths()
#: (directory, component or None = the module's top-level package),
#: longest first so site-packages wins over the stdlib that contains it
_ROOTS = sorted(
    {(_PATHS[k], None) for k in ("purelib", "platlib")}
    | {(_PATHS[k], "stdlib") for k in ("stdlib", "platstdlib")},
    key=lambda root: -len(root[0]),
)


class ProfilerError(RuntimeError):
    """A malformed profile file or collapsed-stack text."""


def _module(path: str, root: str) -> str:
    parts = os.path.relpath(os.path.splitext(path)[0], root).split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _place(filename: str, everything: bool) -> Optional[Tuple[str, str]]:
    """``(component, module)`` of a code object's file; None to skip it."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO + os.sep):
        module = _module(path, os.path.dirname(_REPRO))
        parts = module.split(".")
        return (parts[1] if len(parts) > 1 else parts[0]), module
    if not everything:
        return None
    if filename.startswith("<frozen "):
        return "stdlib", filename[len("<frozen "):-1]
    roots = _ROOTS + [(entry, None) for entry in sys.path if entry]
    for root, component in roots:
        if path.startswith(os.path.join(os.path.abspath(root), "")):
            module = _module(path, root)
            return component or module.split(".")[0], module
    return "other", os.path.splitext(os.path.basename(path))[0]


def _fold(stats: List[Any], clock: str) -> Dict[str, int]:
    """Fold ``cProfile.Profile.getstats()`` entries into weighted rows.

    Rows are keyed by ``co_qualname`` (``pstats`` keys by ``co_name``,
    which would merge every ``__init__`` of a module into one row);
    Python 3.10 lacks it, so there the key is ``co_name@firstline``.
    ``<module>`` bodies are skipped so lazy imports inside the window
    do not count.
    """
    wall = clock == "wall"
    rows: Dict[str, int] = {}
    for entry in stats:
        code = entry.code
        if isinstance(code, str):  # a C function (wall clock only)
            key = f"builtins;builtins:{code}"
        else:
            if code.co_name == "<module>":
                continue
            placed = _place(code.co_filename, everything=wall)
            if placed is None:
                continue
            qualname = getattr(code, "co_qualname", None) or (
                f"{code.co_name}@{code.co_firstlineno}"
            )
            key = f"{placed[0]};{placed[1]}:{qualname}"
        weight = round(entry.inlinetime * 1e6) if wall else entry.callcount
        if weight > 0:
            rows[key] = rows.get(key, 0) + weight
    return {key: rows[key] for key in sorted(rows)}


@dataclass(frozen=True)
class Profile:
    """Per-function weights of one recorded piece of work."""

    label: str
    clock: str
    rows: Dict[str, int]

    #: bumped when the on-disk schema changes
    FORMAT = 2

    @property
    def unit(self) -> str:
        return "calls" if self.clock == "deterministic" else "us"

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def by_component(self) -> Dict[str, int]:
        """Row weights summed per component, in component order."""
        table: Counter = Counter()
        for key, weight in self.rows.items():
            table[key.split(";", 1)[0]] += weight
        return {name: table[name] for name in sorted(table)}

    def hottest(self, limit: int = 15) -> List[Tuple[str, int]]:
        """Rows by descending weight (ties broken by key)."""
        return sorted(self.rows.items(), key=lambda item: (-item[1], item[0]))[:limit]

    def to_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace drift."""
        payload = {"format": self.FORMAT, "label": self.label, "clock": self.clock,
                   "rows": self.rows}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Any) -> "Profile":
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ProfilerError(f"not a profile payload: {type(payload).__name__}")
        if payload.get("format") != cls.FORMAT:
            raise ProfilerError(f"unsupported profile format {payload.get('format')!r}")
        clock = payload.get("clock")
        if clock not in CLOCKS:
            raise ProfilerError(f"unknown profile clock {clock!r}")
        rows = payload["rows"]
        if not isinstance(rows, dict):
            raise ProfilerError("profile rows must be an object")
        for key, weight in rows.items():
            component, _, function = key.partition(";")
            if not component or ":" not in function or ";" in function:
                raise ProfilerError(f"malformed row key {key!r}")
            if type(weight) is not int or weight <= 0:
                raise ProfilerError(f"row {key!r}: weight must be a positive integer")
        return cls(str(payload.get("label", "")), clock, {k: rows[k] for k in sorted(rows)})

    def save(self, path: "str | Path") -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: "str | Path") -> "Profile":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ProfilerError(f"cannot read profile {path}: {exc}") from exc
        return cls.from_dict(payload)


def record(
    work: Callable[[], T], label: str = "", clock: str = "deterministic"
) -> Tuple[T, Profile]:
    """Run *work* under ``cProfile``; returns ``(result, profile)``.

    The collector runs before the window opens, so garbage left by
    earlier work (abandoned simulation processes) is not finalised
    inside it.  Under the deterministic clock it runs again before the
    window closes, so this work's garbage is finalised inside it
    whenever the collector would otherwise have run; the wall clock
    skips that, as a full collection would dominate the self times.
    """
    if clock not in CLOCKS:
        raise ValueError(f"unknown clock {clock!r} (choose from {', '.join(CLOCKS)})")
    gc.collect()
    profiler = cProfile.Profile(builtins=clock == "wall")
    profiler.enable()
    try:
        result = work()
        if clock == "deterministic":
            gc.collect()
    finally:
        profiler.disable()
    return result, Profile(label, clock, _fold(profiler.getstats(), clock))


# -- attribution -------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One component's (or function's) weight, baseline vs candidate."""

    name: str
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float:
        """Relative growth (raw growth when the baseline is zero)."""
        return self.delta / self.baseline if self.baseline > 0 else self.delta

    def describe(self) -> str:
        return (
            f"{self.name}: {self.baseline:.0f} -> {self.candidate:.0f}  "
            f"({self.delta:+.0f}, {self.ratio:+.0%})"
        )


def _ranked(left: Mapping[str, float], right: Mapping[str, float]) -> List[Delta]:
    deltas = [
        Delta(name, left.get(name, 0), right.get(name, 0))
        for name in set(left) | set(right)
    ]
    return sorted(deltas, key=lambda d: (-d.delta, d.name))


def profile_counters(profile: Profile) -> Dict[str, float]:
    """``perf.profile.<component>`` runstore counters of *profile*."""
    components = profile.by_component()
    return {f"{PROFILE_PREFIX}{name}": float(w) for name, w in components.items()}


def components_from_counters(counters: Mapping[str, float]) -> Dict[str, float]:
    """Parse ``perf.profile.*`` counters back to per-component weights."""
    table = {
        key[len(PROFILE_PREFIX):]: float(value)
        for key, value in counters.items()
        if key.startswith(PROFILE_PREFIX) and "." not in key[len(PROFILE_PREFIX):]
    }
    return {name: table[name] for name in sorted(table)}


def attribute(baseline: Mapping[str, float], candidate: Mapping[str, float]) -> List[Delta]:
    """Rank components by weight growth between two counter mappings.

    Components seen on one side only count from/to zero; the result is
    empty when neither side carries a ``perf.profile.*`` breakdown.
    """
    return _ranked(components_from_counters(baseline), components_from_counters(candidate))


@dataclass(frozen=True)
class ProfileDiff:
    """Everything that moved between two profiles."""

    baseline: Profile
    candidate: Profile
    components: Tuple[Delta, ...]
    functions: Tuple[Delta, ...]

    @property
    def top_component(self) -> Optional[Delta]:
        """The worst-regressed component, if anything grew."""
        top = self.components[0] if self.components else None
        return top if top is not None and top.delta > 0 else None


def diff_profiles(baseline: Profile, candidate: Profile) -> ProfileDiff:
    components = _ranked(baseline.by_component(), candidate.by_component())
    functions = _ranked(baseline.rows, candidate.rows)
    return ProfileDiff(baseline, candidate, tuple(components), tuple(functions))


# -- rendering ---------------------------------------------------------------


def format_attribution(deltas: List[Delta], limit: int = 5) -> List[str]:
    """Lines naming the top regressed components (empty if none grew)."""
    regressed = [d for d in deltas if d.delta > 0][:limit]
    if not regressed:
        return []
    return ["top regressed components (perf.profile.*):"] + [
        f"  {delta.describe()}" for delta in regressed
    ]


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]

    def fmt(cells: List[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return [fmt(headers), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows]


def format_profile_report(profile: Profile, limit: int = 15) -> str:
    """Component table plus the heaviest functions."""
    total = profile.total or 1
    functions = Counter(key.split(";", 1)[0] for key in profile.rows)
    components = sorted(profile.by_component().items(), key=lambda kv: (-kv[1], kv[0]))
    lines = [
        f"profile: {profile.label or '(unlabelled)'}  clock={profile.clock}  "
        f"total={profile.total} {profile.unit}",
        "",
    ]
    lines += _table(
        ["component", profile.unit, "share", "functions"],
        [[n, str(w), f"{w / total:.1%}", str(functions[n])] for n, w in components],
    )
    lines.append("")
    lines += _table(
        ["function", profile.unit, "share"],
        [[k, str(w), f"{w / total:.1%}"] for k, w in profile.hottest(limit)],
    )
    return "\n".join(lines)


def format_profile_diff(diff: ProfileDiff, limit: int = 10) -> str:
    """Ranked component movement plus the biggest function moves."""
    lines = [
        f"{side}: {p.label or '(unlabelled)'}  total={p.total} {p.unit}"
        for side, p in (("baseline", diff.baseline), ("candidate", diff.candidate))
    ]
    if diff.baseline.clock != diff.candidate.clock:
        lines.append(
            f"WARNING: clocks differ ({diff.baseline.clock} vs "
            f"{diff.candidate.clock}); deltas are not comparable units"
        )
    lines.append("")
    lines += _table(
        ["component", "baseline", "candidate", "delta", "ratio"],
        [[d.name, f"{d.baseline:.0f}", f"{d.candidate:.0f}", f"{d.delta:+.0f}",
          f"{d.ratio:+.0%}"] for d in diff.components],
    )
    moved = [d for d in diff.functions if d.delta][:limit]
    if moved:
        lines += ["", "biggest function moves:"] + [f"  {d.describe()}" for d in moved]
    return "\n".join(lines)


def to_collapsed(profile: Profile) -> str:
    """Collapsed-stack text: one sorted ``stack weight`` line per row."""
    return "".join(f"{key} {weight}\n" for key, weight in profile.rows.items())


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Strictly parse collapsed-stack text back to stack -> weight.

    Raises :class:`ProfilerError` on empty frames, weights that are not
    positive integers, or duplicate stacks.
    """
    weights: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_part, sep, weight_part = line.rpartition(" ")
        if not sep or not stack_part:
            raise ProfilerError(f"line {lineno}: not 'stack weight': {line!r}")
        if not weight_part.isdecimal():
            raise ProfilerError(f"line {lineno}: weight {weight_part!r} is not an integer")
        weight = int(weight_part)
        if weight == 0:
            raise ProfilerError(f"line {lineno}: weight must be positive, got 0")
        stack = tuple(stack_part.split(";"))
        if not all(stack):
            raise ProfilerError(f"line {lineno}: empty frame in {stack_part!r}")
        if stack in weights:
            raise ProfilerError(f"line {lineno}: duplicate stack {stack_part!r}")
        weights[stack] = weight
    return weights
