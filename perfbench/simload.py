"""The two simulation workloads: ``sessions-init-1k`` and ``recovery-soak``.

Both run the simulated stack in this process through ``repro.api`` and
``repro.recovery``.  An *operation* is one unit of the workload body:
one 1024-rank Fig 3 Sessions init, or one chaos-soak seed.  The
untraced pass times each operation; the traced pass wraps the same
calls in a profiler and folds its self time by layer.

Each pass repeats a fixed set of inputs for its whole window (the one
1024-rank program, or a set of soak seeds).  Every operation is timed
between two runs of the reference loop and scaled to the reference
speed (``common.at_reference_speed``); ``run_s`` is the median over
the inputs of each input's median scaled time (:attr:`SimPass.run_s`).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (Check, Fold, Profiled, Tally, add_counters,
                    at_reference_speed, fold_profile, read_counters,
                    reference_loop_s)

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.recovery import soak_run

PPN = 16
#: Nodes of the measured world (64 x 16 = 1024 ranks) and of the
#: smaller world the cost-per-event growth is measured against.
NODES = 64
GROWTH_NODES = 16
GROWTH_REPEATS = 5
#: Soak seeds whose counters and call counts are reported: a fixed
#: slice, so those numbers repeat exactly for a benchmark seed.
SOAK_COUNTED_SEEDS = 8
#: Soak seeds a pass cycles through; each runs about 6 times in 30 s.
SOAK_SET = 64


def _fig3_main(mpi):
    """The paper's Fig 3 sequence, owned by the benchmark."""
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "perfbench/fig3")
    yield from comm.barrier()
    comm.free()
    yield from session.finalize()


@dataclass
class SimPass(Tally):
    """What one pass over a simulation workload measured."""

    op_s: List[float] = field(default_factory=list)
    scaled_s: List[float] = field(default_factory=list)  # at reference speed
    inputs: List[int] = field(default_factory=list)  # input of each op
    events: int = 0                     # engine events over all operations
    counters: Dict[str, int] = field(default_factory=dict)
    fold: Optional[Fold] = None         # traced pass: the whole profile
    calls_fold: Optional[Fold] = None   # traced pass: the counted slice

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)

    def add_op(self, key: int, seconds: float, scaled: float) -> None:
        self.inputs.append(key)
        self.op_s.append(seconds)
        self.scaled_s.append(scaled)

    @property
    def run_s(self) -> float:
        """Median over the pass's inputs of each input's median
        operation time at reference speed."""
        by_input: Dict[int, List[float]] = {}
        for key, s in zip(self.inputs, self.scaled_s):
            by_input.setdefault(key, []).append(s)
        return statistics.median(statistics.median(v)
                                 for v in by_input.values())


def _window(seconds: float, min_ops: int = 1):
    """Yield operation indices until ``seconds`` have passed and at least
    ``min_ops`` operations have started."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        yield i
        i += 1


class SessionsInit:
    """``sessions-init-1k``: session_init -> group_from_pset ->
    comm_create_from_group -> barrier -> free -> finalize on 1024 ranks
    (jupiter(64), 16 per node, the sessions prototype config).  It has no
    random input; the seed is accepted and unused."""

    name = "sessions-init-1k"

    def __init__(self, seed: int, golden: Dict[str, Any], src_root: str) -> None:
        self.golden = golden["sessions"]
        self.src_root = src_root
        self._next = None

    @staticmethod
    def _world(nodes: int):
        return make_world(spec=SimSpec(
            nprocs=nodes * PPN, machine=jupiter(nodes), ppn=PPN,
            config=MpiConfig.sessions_prototype()))

    def setup(self) -> None:
        self._next = self._world(NODES)

    def _op(self, world, nodes: int, prof: Optional[Profiled] = None
            ) -> Tuple[float, float, Check]:
        """Run the Fig 3 program on a built world; ``(seconds, seconds at
        reference speed, check)``.  The garbage of earlier worlds is
        collected first, untimed."""
        gc.collect()
        ref_before = reference_loop_s()
        t0 = time.perf_counter()
        if prof is None:
            procs = world.spawn_ranks(_fig3_main)
            t_end = world.run()
        else:
            with prof:
                procs = world.spawn_ranks(_fig3_main)
                t_end = world.run()
        elapsed = time.perf_counter() - t0
        scaled = at_reference_speed(elapsed, ref_before, reference_loop_s())
        return elapsed, scaled, self.check(world, procs, t_end, nodes)

    def check(self, world, procs, t_end: float, nodes: int) -> Check:
        """Every rank must finish, and the event count and simulated end
        time must equal the reference."""
        bad = [p.name for p in procs if p.exception is not None]
        if bad:
            return False, f"{len(bad)} rank(s) raised, first {bad[0]}"
        ref = self.golden[str(nodes * PPN)]
        events = world.cluster.engine.events_executed
        if events != ref["events"] or t_end != ref["t_end"]:
            return False, (f"events {events} t_end {t_end!r} != reference "
                           f"{ref['events']} {ref['t_end']!r}")
        return True, None

    def _take_world(self):
        """The world built in :meth:`setup`, then a fresh one per operation
        (built outside the timed body)."""
        world, self._next = self._next or self._world(NODES), None
        return world

    def run(self, seconds: float, prof: Optional[Profiled] = None) -> SimPass:
        out = SimPass()
        first = True
        for _ in _window(seconds):
            world = self._take_world()
            elapsed, scaled, check = self._op(world, NODES, prof)
            out.add_op(0, elapsed, scaled)
            out.events += world.cluster.engine.events_executed
            out.note(*check)
            if first:
                out.counters = read_counters(world.cluster, world)
                if prof is not None:
                    out.calls_fold = fold_profile(prof.profile, self.src_root)
                first = False
            del world   # so two 1024-rank worlds never coexist
        if prof is not None:
            out.fold = fold_profile(prof.profile, self.src_root)
        return out

    def growth(self) -> Tuple[float, Tally]:
        """Median untraced µs/event at reference speed of the smaller
        world, and the checks of its :data:`GROWTH_REPEATS` runs."""
        per_event, tally = [], Tally()
        for _ in range(GROWTH_REPEATS):
            world = self._world(GROWTH_NODES)
            _, scaled, check = self._op(world, GROWTH_NODES)
            per_event.append(scaled / world.cluster.engine.events_executed)
            tally.note(*check)
        return statistics.median(per_event) * 1e6, tally

    def close(self) -> None:
        self._next = None


class RecoverySoak:
    """``recovery-soak``: ``repro.recovery.soak_run`` over a set of
    :data:`SOAK_SET` consecutive soak seeds from the benchmark seed,
    cycled for the whole window (8 ranks on 4 nodes, a node kill and a
    lossy RML link per seed; allreduce loop, revoke, agree, shrink).

    The set skips the seeds listed under ``soak_not_ok`` in the
    reference: they fail at the commit that made it (a known defect of
    the recovery layer, described in ``NOTES.md``), and a workload must
    be one on which no operation fails."""

    name = "recovery-soak"

    def __init__(self, seed: int, golden: Dict[str, Any], src_root: str) -> None:
        self.digests = golden["soak_digest16"]
        span = len(self.digests)
        known_bad = set(golden["soak_not_ok"])
        self.seeds: List[int] = []
        k = seed % span
        while len(self.seeds) < SOAK_SET:
            if k not in known_bad:
                self.seeds.append(k)
            k = (k + 1) % span
        self.src_root = src_root

    def setup(self) -> None:
        """Nothing beyond the imports: each soak seed builds its world."""

    def soak_seed(self, i: int) -> int:
        """The soak seed of operation ``i``."""
        return self.seeds[i % SOAK_SET]

    def check(self, record: Dict[str, Any]) -> Check:
        """The record's digest must start with the reference's, and the
        record must be ``ok``.  The digest covers the ``ok`` field, so a
        seed that was not ok at the reference commit and fails the same
        way again is failed but matches the reference."""
        seed = record["seed"]
        want = self.digests[seed]
        if record["digest"][:len(want)] != want:
            return False, f"seed {seed}: digest {record['digest'][:16]} != {want}"
        if not record["ok"]:
            return True, f"seed {seed}: record not ok, as at the reference"
        return True, None

    def run(self, seconds: float, prof: Optional[Profiled] = None) -> SimPass:
        out = SimPass()
        ref_before = reference_loop_s()
        for i in _window(seconds, SOAK_COUNTED_SEEDS):
            seed = self.soak_seed(i)
            t0 = time.perf_counter()
            if prof is None:
                record, world = soak_run(seed, return_world=True)
            else:
                with prof:
                    record, world = soak_run(seed, return_world=True)
            elapsed = time.perf_counter() - t0
            ref_after = reference_loop_s()
            out.add_op(seed, elapsed,
                       at_reference_speed(elapsed, ref_before, ref_after))
            ref_before = ref_after
            out.events += record["events"]
            out.note(*self.check(record))
            if i < SOAK_COUNTED_SEEDS:
                add_counters(out.counters, read_counters(world.cluster, world))
            if prof is not None and i == SOAK_COUNTED_SEEDS - 1:
                out.calls_fold = fold_profile(prof.profile, self.src_root)
        if prof is not None:
            out.fold = fold_profile(prof.profile, self.src_root)
        return out

    def close(self) -> None:
        pass
