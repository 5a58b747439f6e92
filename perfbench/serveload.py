"""The serve workload: ``serve-fleet-mix``.

Two client threads, one connection each, drive an in-process fleet of
two shards with one worker each in a closed loop: a client sends its
next request only after the reply to the previous one.  Every request
is a ``sim`` allreduce at ``nprocs=4``; only its ``seed`` parameter,
and so its cache key, varies.  The seeded plan (:class:`Mix`) gives
each slot one of three kinds:

* ``unique``: each client sends a key never sent before.  It misses the
  store, runs on a worker and is written to the store.
* ``repeat``: each client resends a key from the last
  :data:`RECENT_SLOTS` slots.  It is read from the hot tier.
* ``dup``: both clients send the same new key at once (they meet at a
  barrier first), so one of them waits on the other's run
  (single-flight).

There are far more distinct keys than the hot tier holds, so the tier
evicts.  The untraced pass runs on ``FleetThread(shards=2, workers=1)``.
Its ``run_s`` is the median latency as measured, not scaled to the
reference speed: the reference loop runs on one thread, and the
fleet's speed did not follow it (see NOTES.md).
The traced pass runs the same fleet with ``LiveTelemetry`` on the router
and on every shard, and folds the span self times per stage.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (Fold, Profiled, Tally, fold_profile, percentile,
                    read_counters, tail_percentile)

from repro.api import SimSpec, make_world
from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.serve import (PROGRAMS, FleetRouter, FleetThread, ResultStore,
                         ServeAddress, ServeClient, ServeConnectionError,
                         SimServer, run_simspec)

CLIENTS = 2
SHARDS = 2
WORKERS = 1
HOT_CAPACITY = 256          # SimFleet's default hot tier
PROGRAM = "allreduce"
SPEC = SimSpec(nprocs=4).to_payload()
SHARE_DUP = 0.15
SHARE_REPEAT = 0.25
RECENT_SLOTS = 48
MAX_SLOTS = 60000
#: Direct runs profiled in the traced pass (the first distinct keys).
PROFILED_KEYS = 64

UNIQUE, REPEAT, DUP = "unique", "repeat", "dup"
KINDS = (UNIQUE, REPEAT, DUP)
STAGES = ("client", "route", "request", "queue", "run")

#: Every per-layer metric of the serve layer, with its unit.
SERVE_METRICS: Dict[str, str] = {
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.tail": "ms",
    "serve.run_ms.p50": "ms",
    "serve.run_ms.tail": "ms",
    "serve.direct_ms.p50": "ms",
    "serve.store.hot_hit_ratio": "ratio",
    "serve.store.evictions": "count",
    "serve.dedup.coalesced_ratio": "ratio",
    "serve.fleet.balance": "ratio",
    "serve.retries": "count",
    "serve.rejected": "count",
    **{f"serve.{stage}.self_ms": "ms" for stage in STAGES},
}


def params(key: int) -> Dict[str, Any]:
    return {"spec": SPEC, "program": PROGRAM, "seed": key}


class Mix:
    """The per-slot request plan of both clients, made from a seed.

    ``kinds[k]`` is the kind of slot ``k`` and ``keys[c][k]`` the key
    client ``c`` sends in it.  The plan does not depend on timing."""

    def __init__(self, seed: int, slots: int = MAX_SLOTS) -> None:
        rng = random.Random(seed)
        fresh = iter(range((seed % 100000) * 10 ** 6, 10 ** 12))
        self.kinds: List[str] = []
        self.keys: Tuple[List[int], ...] = tuple([] for _ in range(CLIENTS))
        for k in range(slots):
            r = rng.random()
            if r < SHARE_DUP:
                kind = DUP
                key = next(fresh)
                pair = [key] * CLIENTS
            elif r < SHARE_DUP + SHARE_REPEAT and k > 0:
                kind = REPEAT
                lo = max(0, k - RECENT_SLOTS)
                pair = [self.keys[rng.randrange(CLIENTS)][rng.randrange(lo, k)]
                        for _ in range(CLIENTS)]
            else:
                kind = UNIQUE
                pair = [next(fresh) for _ in range(CLIENTS)]
            self.kinds.append(kind)
            for c in range(CLIENTS):
                self.keys[c].append(pair[c])

    def first_keys(self, n: int) -> List[int]:
        """The first ``n`` distinct keys of the plan, in slot order."""
        seen: Dict[int, None] = {}
        for k in range(len(self.kinds)):
            for c in range(CLIENTS):
                seen.setdefault(self.keys[c][k])
                if len(seen) == n:
                    return list(seen)
        return list(seen)


@dataclass
class Reply:
    slot: int
    kind: str
    key: int
    latency_s: float
    ok: bool
    digest: Optional[str]


@dataclass
class ServePass(Tally):
    replies: List[Reply] = field(default_factory=list)
    elapsed_s: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)     # untraced only
    stages: Dict[str, List[float]] = field(default_factory=dict)  # traced only

    @property
    def attempted(self) -> int:
        return len(self.replies)

    @property
    def run_s(self) -> float:
        return statistics.median(self.latencies())

    def latencies(self) -> List[float]:
        return [r.latency_s for r in self.replies if r.ok]


def _drive(address: ServeAddress, mix: Mix, seconds: float,
           telemetry: Optional[LiveTelemetry] = None) -> Tuple[List[Reply], float]:
    """Run the closed loop of :data:`CLIENTS` clients for ``seconds``;
    returns the replies in slot order and the elapsed wall time."""
    barrier = threading.Barrier(CLIENTS)
    logs: List[List[Reply]] = [[] for _ in range(CLIENTS)]
    crashes: List[Exception] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client(c: int) -> None:
        try:
            with ServeClient(address, trace=f"c{c}" if telemetry else None,
                             telemetry=telemetry) as cl:
                for k, kind in enumerate(mix.kinds):
                    if time.perf_counter() >= deadline:
                        break
                    if kind == DUP:
                        try:
                            barrier.wait()
                        except threading.BrokenBarrierError:
                            break
                    key = mix.keys[c][k]
                    start = time.perf_counter()
                    try:
                        resp = cl.submit("sim", params(key))
                    except (ServeConnectionError, OSError) as err:
                        resp = {"status": "error", "error": repr(err)}
                    latency = time.perf_counter() - start
                    ok = resp.get("status") == "ok"
                    digest = resp["result"]["digest"] if ok else None
                    logs[c].append(Reply(k, kind, key, latency, ok, digest))
        except Exception as err:        # re-raised after the join
            crashes.append(err)
        finally:
            barrier.abort()     # a peer waiting at a dup slot stops too

    threads = [threading.Thread(target=client, args=(c,), name=f"bench-client{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if crashes:
        raise crashes[0]
    replies = sorted((r for log in logs for r in log), key=lambda r: r.slot)
    return replies, elapsed


class _TracedFleet:
    """The fleet ``FleetThread(shards=2, workers=1)`` runs, composed from
    the public ``SimServer``/``FleetRouter``/``ResultStore`` classes so
    that the shards record ``LiveTelemetry`` spans too: ``SimFleet``
    hands its ``telemetry`` argument to the router alone."""

    def __init__(self, telemetry: LiveTelemetry) -> None:
        self.tel = telemetry
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="bench-traced-fleet", daemon=True)
        self.router: Optional[FleetRouter] = None
        self.servers: List[SimServer] = []

    def _call(self, coro) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60.0)

    async def _start(self) -> None:
        metrics = MetricsRegistry(enabled=True)
        store = ResultStore(None, hot_capacity=HOT_CAPACITY, metrics=metrics)
        self.servers = [
            SimServer(workers=WORKERS, address=ServeAddress(port=0, role="shard"),
                      store=store, shard_id=sid, metrics=metrics,
                      telemetry=self.tel)
            for sid in range(SHARDS)]
        for server in self.servers:
            await server.start()
        self.router = FleetRouter(
            {sid: s.address for sid, s in enumerate(self.servers)},
            address=ServeAddress(port=0, role="router"), metrics=metrics,
            telemetry=self.tel)
        await self.router.start()

    async def _stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
        for server in self.servers:
            await server.stop()

    def __enter__(self) -> "_TracedFleet":
        self.thread.start()
        self._call(self._start())
        return self

    def __exit__(self, *exc: Any) -> None:
        try:
            self._call(self._stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30.0)
            self.loop.close()

    @property
    def address(self) -> ServeAddress:
        return self.router.address


def fold_spans(telemetry: LiveTelemetry) -> Dict[str, List[float]]:
    """Per-request self time of each serve stage, in seconds.

    A request's spans share its trace id: ``serve.client.request`` (the
    client), ``serve.route`` (the router), ``serve.request`` (the shard,
    holding ``serve.queue``) and ``serve.run`` (the worker).  Each
    stage's self time is its duration minus the stage nested in it.
    Coalesced and cached requests have no queue or run span of their own.
    """
    by_trace: Dict[str, Dict[str, float]] = {}
    for span in telemetry.tracer.spans.values():
        trace = span.attrs.get("trace")
        if not trace or span.end is None:
            continue
        stages = by_trace.setdefault(trace, {})
        stages[span.name] = stages.get(span.name, 0.0) + span.duration
    out: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for st in by_trace.values():
        if "serve.client.request" not in st:
            continue
        route = st.get("serve.route", 0.0)
        request = st.get("serve.request", 0.0)
        out["client"].append(st["serve.client.request"] - route)
        out["route"].append(route - request)
        out["request"].append(request - st.get("serve.queue", 0.0)
                              - st.get("serve.run", 0.0))
        if "serve.queue" in st:
            out["queue"].append(st["serve.queue"])
        if "serve.run" in st:
            out["run"].append(st["serve.run"])
    return out


def _hist(summary: Dict[str, Any]) -> Tuple[float, float]:
    """``(p50, tail)`` in ms of a ``stats`` histogram.  The tail is the
    p99 or p90 it carries, whichever is the higher with ten samples
    beyond it, else its maximum."""
    count = int(summary.get("count", 0))
    if not count:
        return 0.0, 0.0
    p = tail_percentile(count)
    if p is None:
        return summary["p50"] * 1e3, summary["max"] * 1e3
    key = "p99" if p >= 99.0 else "p90"
    return summary["p50"] * 1e3, summary[key] * 1e3


class FleetMix:
    """``serve-fleet-mix``; see the module docstring."""

    name = "serve-fleet-mix"

    def __init__(self, seed: int, golden: Dict[str, Any], src_root: str) -> None:
        self.seed = seed
        self.src_root = src_root
        self.fleet: Optional[FleetThread] = None
        self.mix: Optional[Mix] = None
        self.refs: Dict[int, str] = {}
        self.direct_s: List[float] = []

    # -- set-up --------------------------------------------------------------
    @staticmethod
    def _warm(address: ServeAddress, routed) -> None:
        """Spawn every shard's worker: send requests (keys outside the
        plan's range) until each shard has run one."""
        with ServeClient(address) as cl:
            for key in range(-1, -64, -1):
                if all(routed().get(sid, 0) for sid in range(SHARDS)):
                    return
                cl.submit("sim", params(key))
        raise RuntimeError("warm-up never reached every shard")

    def setup(self) -> None:
        self.fleet = FleetThread(shards=SHARDS, workers=WORKERS,
                                 hot_capacity=HOT_CAPACITY).__enter__()
        self._warm(self.fleet.address, lambda: self.fleet.fleet.router.routed)

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.__exit__(None, None, None)
            self.fleet = None

    # -- passes --------------------------------------------------------------
    def _fleet_counters(self) -> Dict[str, Any]:
        with ServeClient(self.fleet.address) as cl:
            stats = cl.stats()["stats"]
        snap = self.fleet.fleet.snapshot()
        shards = stats["per_shard"].values()
        return {
            "store": snap["store"]["hot"],
            "routed": dict(snap["routed"]),
            "coalesced": snap["coalesced"],
            "submitted": snap["submitted"],
            "retries": sum(int(s.get("retries", 0)) for s in shards),
            "rejected": sum(int(s.get("rejected", 0)) for s in shards),
            # Every shard of a SimFleet shares one MetricsRegistry, so each
            # per-shard histogram is the fleet-wide one: read it once.
            "hist": next(iter(shards)),
        }

    def run(self, seconds: float) -> ServePass:
        """The untraced pass: the closed loop, then the output check."""
        self.mix = Mix(self.seed)
        before = self._fleet_counters()
        out = ServePass()
        out.replies, out.elapsed_s = _drive(self.fleet.address, self.mix, seconds)
        after = self._fleet_counters()
        out.stats = {"before": before, "after": after}
        self.check(out, self.references(out))
        return out

    def references(self, out: ServePass) -> Dict[int, str]:
        """``run_simspec`` digests of every key replied to, computed once
        per key in this process outside the timed window; the time of
        each run is the direct-run floor under the served latency."""
        for key in sorted({r.key for r in out.replies if r.ok} - set(self.refs)):
            t0 = time.perf_counter()
            self.refs[key] = run_simspec(SPEC, PROGRAM, key)["digest"]
            self.direct_s.append(time.perf_counter() - t0)
        return self.refs

    @staticmethod
    def check(out: ServePass, refs: Dict[int, str]) -> None:
        """Every reply must be ok with the digest of the in-process
        reference run for the same params."""
        for r in out.replies:
            if not r.ok:
                out.note(False, f"slot {r.slot} key {r.key}: not ok")
            elif r.digest != refs.get(r.key):
                out.note(False, f"slot {r.slot} key {r.key}: digest "
                                f"{r.digest} != {refs.get(r.key)}")

    def run_traced(self, seconds: float) -> ServePass:
        """The traced pass on a fresh fleet with telemetry on every stage."""
        tel = LiveTelemetry()
        out = ServePass()
        with _TracedFleet(tel) as fleet:
            self._warm(fleet.address, lambda: fleet.router.routed)
            out.replies, out.elapsed_s = _drive(fleet.address, self.mix,
                                                seconds, telemetry=tel)
        self.check(out, self.references(out))
        out.stages = fold_spans(tel)
        return out

    def profile_direct(self) -> Tuple[Fold, int, Dict[str, int]]:
        """Profile ``run_simspec`` over the plan's first distinct keys;
        returns the fold, the run count and the exact counters of the
        first key's world."""
        keys = self.mix.first_keys(PROFILED_KEYS)
        prof = Profiled()
        for key in keys:
            with prof:
                run_simspec(SPEC, PROGRAM, key)
        world = make_world(spec=SimSpec.from_payload(SPEC))
        world.spawn_ranks(PROGRAMS[PROGRAM], args=(keys[0],))
        world.run()
        return (fold_profile(prof.profile, self.src_root), len(keys),
                read_counters(world.cluster, world))

    # -- reporting -----------------------------------------------------------
    @staticmethod
    def mix_report(out: ServePass) -> Tuple[Dict[str, float], int]:
        """The share of each request kind actually sent, and the number of
        distinct keys sent."""
        n = len(out.replies) or 1
        shares = {kind: sum(r.kind == kind for r in out.replies) / n
                  for kind in KINDS}
        return shares, len({r.key for r in out.replies})

    def serve_metrics(self, out: ServePass) -> Dict[str, Tuple[float, str]]:
        """The per-layer serve metrics of an untraced pass."""
        b, a = out.stats["before"], out.stats["after"]
        hits = a["store"]["hits"] - b["store"]["hits"]
        misses = a["store"]["misses"] - b["store"]["misses"]
        routed = [a["routed"].get(s, 0) - b["routed"].get(s, 0)
                  for s in range(SHARDS)]
        submitted = a["submitted"] - b["submitted"]
        q50, qtail = _hist(a["hist"]["queue_wait_s"])
        r50, rtail = _hist(a["hist"]["run_s"])
        values = {
            "serve.queue_wait_ms.p50": q50,
            "serve.queue_wait_ms.tail": qtail,
            "serve.run_ms.p50": r50,
            "serve.run_ms.tail": rtail,
            "serve.direct_ms.p50": percentile(self.direct_s, 50) * 1e3,
            "serve.store.hot_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "serve.store.evictions":
                a["store"]["evictions"] - b["store"]["evictions"],
            "serve.dedup.coalesced_ratio":
                (a["coalesced"] - b["coalesced"]) / submitted if submitted else 0.0,
            "serve.fleet.balance":
                max(routed) / (sum(routed) / SHARDS) if sum(routed) else 0.0,
            "serve.retries": a["retries"] - b["retries"],
            "serve.rejected": a["rejected"] - b["rejected"],
        }
        return {name: (v, SERVE_METRICS[name]) for name, v in values.items()}

    @staticmethod
    def stage_metrics(out: ServePass) -> Dict[str, Tuple[float, str]]:
        """p50 self time of each serve stage in a traced pass, in ms."""
        return {f"serve.{stage}.self_ms": (
                    percentile(v, 50) * 1e3 if v else 0.0, "ms")
                for stage, v in out.stages.items()}
