"""Shared pieces of the benchmark: locating the source tree, the
reference loop that scales times to a fixed host speed, timing
statistics, the profiler fold and the exact counters read through
``repro.obs.metrics.snapshot_cluster``.
"""

from __future__ import annotations

import cProfile
import heapq
import math
import os
import pstats
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout this benchmark lives in, and its source tree.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class SourceTreeMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Raises :class:`SourceTreeMissing` when the checkout has no source
    tree, or when ``repro`` was already imported from elsewhere (an
    installed copy would measure the wrong program)."""
    import sys

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceTreeMissing(f"no source tree at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.abspath(repro.__file__)
    if not where.startswith(os.path.join(SRC, "")):
        raise SourceTreeMissing(f"repro imported from {where}, not {SRC}")


# ---------------------------------------------------------------------------
# reference loop
# ---------------------------------------------------------------------------
#: Seconds :func:`reference_loop_s` takes on the 2-vCPU host the
#: benchmark was written on, in that host's fast phase (see NOTES.md).
REFERENCE_S = 0.011


def _reference_loop(procs: int = 1500) -> None:
    """A fixed pure-Python event loop shaped like the simulator's hot
    path: generators resumed in heap order, with a dict tally.  It uses
    no code of the program, so a change to the program leaves it as
    it is."""
    heap: List[Tuple[int, int, object]] = []
    tally: Dict[int, int] = {}

    def proc(k: int):
        for j in range(8):
            yield k * 31 + j

    for i in range(procs):
        heapq.heappush(heap, (i * 7919 % 997, i, proc(i)))
    while heap:
        t, i, gen = heapq.heappop(heap)
        v = next(gen, None)
        if v is not None:
            tally[v & 4095] = tally.get(v & 4095, 0) + 1
            heapq.heappush(heap, (t + v % 13 + 1, i, gen))


def reference_loop_s() -> float:
    """Seconds the reference loop takes now: the fastest of three runs,
    so a brief stall (a process exiting, a thread finishing its work)
    does not pass for a change of host speed."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, ref_before: float,
                       ref_after: float) -> float:
    """``seconds`` measured between two reference-loop timings, scaled
    to the host speed at which the loop takes :data:`REFERENCE_S`.

    The host this benchmark runs on changes speed by up to 2x in phases
    of seconds to minutes; the program and the loop slow down nearly
    alike, so their ratio holds where the raw time does not."""
    return seconds * REFERENCE_S * 2.0 / (ref_before + ref_after)


@dataclass
class Tally:
    """The outcome of the output checks over a pass.

    ``failed`` counts operations that failed: raised, were refused, came
    back not ok, or differ from the reference.  ``mismatched`` counts
    those whose outcome differs from the reference the benchmark keeps.
    An operation that fails exactly as it did at the reference commit (a
    known defect) is failed but not mismatched."""

    failed: int = 0
    mismatched: int = 0
    errors: List[str] = field(default_factory=list)

    def note(self, matches: bool, error: Optional[str]) -> None:
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        if not matches:
            self.mismatched += 1

    def add(self, other: "Tally") -> None:
        self.failed += other.failed
        self.mismatched += other.mismatched
        self.errors += other.errors


#: The outcome of checking one operation: whether it matches the
#: reference, and what failed (None when nothing did).
Check = Tuple[bool, Optional[str]]


#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten of
    ``count`` samples beyond it, or ``None`` when there are too few."""
    best = None
    for p in TAIL_LADDER:
        if count * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``.  With fewer than
    ten samples beyond the 90th percentile, the tail is the maximum and
    is reported as percentile 100."""
    p = tail_percentile(len(values))
    if p is None:
        return 100.0, max(values)
    return p, percentile(values, p)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# profiler fold
# ---------------------------------------------------------------------------
#: Folded groups.  A frame belongs to every group whose module prefix it
#: matches: ``pmix`` holds all of ``repro.pmix`` and ``pmix.client`` the
#: one module.  The layer groups (no dot in the name, plus ``core`` and
#: ``other``) partition the profile.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simtime": ("repro.simtime",),
    "prrte": ("repro.prrte",),
    "pmix": ("repro.pmix",),
    "ompi": ("repro.ompi",),
    "recovery": ("repro.recovery", "repro.faults"),
}
HOT_MODULES: Dict[str, str] = {
    "pmix.client": "repro.pmix.client",
    "pmix.server": "repro.pmix.server",
    "pmix.datastore": "repro.pmix.datastore",
    "ompi.group": "repro.ompi.group",
    "ompi.comm": "repro.ompi.comm",
    "ompi.pml": "repro.ompi.pml",
    "ompi.coll": "repro.ompi.coll",
    "simtime.engine": "repro.simtime.engine",
    "simtime.process": "repro.simtime.process",
}
#: Groups whose call counts are reported (``<group>.calls``).
COUNTED = ("simtime", "prrte", "pmix", "ompi")


def _module_of(filename: str, src_root: str) -> Optional[str]:
    """``repro.pmix.client`` for a file under ``src_root``, else None."""
    if not filename.startswith(src_root):
        return None
    rel = os.path.relpath(filename, src_root)
    mod = rel[:-3] if rel.endswith(".py") else rel
    mod = mod.replace(os.sep, ".")
    if mod.endswith(".__init__"):
        mod = mod[: -len(".__init__")]
    return mod


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@dataclass
class Fold:
    """Self time (seconds) and call counts folded by layer and module."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def add(self, group: str, tt: float, nc: int) -> None:
        self.self_s[group] = self.self_s.get(group, 0.0) + tt
        self.calls[group] = self.calls.get(group, 0) + nc


def fold_profile(prof: cProfile.Profile, src_root: str) -> Fold:
    """Fold a profile's self time (``tottime``) and call counts by the
    groups of :data:`LAYERS` and :data:`HOT_MODULES`.  Frames of other
    ``repro`` modules go to ``core``; everything else (the stdlib,
    builtins, the benchmark's own rank programs) to ``other``."""
    src_root = os.path.join(os.path.abspath(src_root), "")
    out = Fold()
    for (filename, _line, _fn), (_cc, nc, tt, _ct, _callers) in (
            pstats.Stats(prof).stats.items()):
        module = _module_of(filename, src_root)
        if module is None:
            out.add("other", tt, nc)
            continue
        layer = next((name for name, prefixes in LAYERS.items()
                      if any(_matches(module, p) for p in prefixes)), "core")
        out.add(layer, tt, nc)
        for name, prefix in HOT_MODULES.items():
            if _matches(module, prefix):
                out.add(name, tt, nc)
    return out


class Profiled:
    """Accumulates a profile over the calls made inside ``with`` blocks."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def __enter__(self) -> "Profiled":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()


# ---------------------------------------------------------------------------
# exact counters
# ---------------------------------------------------------------------------
#: Benchmark name -> ``snapshot_cluster`` metric name.
COUNTERS = {
    "simtime.events": "simtime.events",
    "prrte.rml.messages": "rml.messages",
    "prrte.rml.bytes": "rml.bytes",
    "ompi.pml.packets": "pml.packets",
    "ompi.pml.bytes": "pml.bytes",
}


def read_counters(cluster, world) -> Dict[str, int]:
    """The exact structural counters of one finished world, plus the RML
    retransmit count of a recovery-enabled cluster."""
    from repro.obs.metrics import MetricsRegistry, snapshot_cluster

    reg = MetricsRegistry()
    snapshot_cluster(reg, cluster, world)
    out = {name: int(reg.value(src) or 0) for name, src in COUNTERS.items()}
    out["recovery.rml.retransmits"] = int(
        reg.value("recovery.rml.retransmits") or 0)
    return out


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


# ---------------------------------------------------------------------------
# per-layer metrics from a fold
# ---------------------------------------------------------------------------
def layer_metrics(fold: Fold, ops: int, calls_fold: Fold, calls_ops: int,
                  counters: Dict[str, int], counter_ops: int
                  ) -> Dict[str, Tuple[float, str]]:
    """The profiler-fold and counter metrics of one workload, per
    operation.

    Self times are averaged over the ``ops`` operations ``fold`` covers.
    Call counts and counters come from a fixed slice of the work
    (``calls_ops`` and ``counter_ops`` operations, powers of two so the
    averages are exact), so they repeat exactly for a seed.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for group in (*LAYERS, *HOT_MODULES, "core", "other"):
        out[f"{group}.self_s"] = (fold.self_s.get(group, 0.0) / ops, "s")
    for group in COUNTED:
        out[f"{group}.calls"] = (calls_fold.calls.get(group, 0) / calls_ops,
                                 "count")
    for name in COUNTERS:
        out[name] = (counters.get(name, 0) / counter_ops, "count")
    msgs = counters.get("prrte.rml.messages", 0)
    out["recovery.retransmit_ratio"] = (
        counters.get("recovery.rml.retransmits", 0) / msgs if msgs else 0.0,
        "ratio")
    return out
