"""The repo benchmark: three workloads, measured end to end and by layer.

    python3 perfbench/run.py --workload sessions-init-1k --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``repro`` from the
checkout's ``src`` and exits with code 2 when there is none.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones (an untraced pass, then a traced pass, each of half the
seconds).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0,
     "metrics": {"run_s": {"value": 1.53, "unit": "s"}, ...}}

``attempted`` counts operations and ``failed`` those that failed or
whose output differs from the reference; ``failed / attempted`` is the
failure ratio.  ``correct`` is false when any output differs from the
reference; an operation that fails exactly as it did when the reference
was made (a known defect) counts in ``failed`` only.
``perfbench/NOTES.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (LAYERS, ROOT, SRC, Profiled,  # noqa: E402
                    SourceTreeMissing, Tally, at_reference_speed,
                    layer_metrics, peak_rss_mb, percentile,
                    reference_loop_s, tail, use_source_tree)

WORKLOADS = ("sessions-init-1k", "recovery-soak", "serve-fleet-mix")
#: Fresh processes timed from start to the first operation, per run:
#: half before the timed window and half after it, so that one slow
#: phase of the host does not hold them all.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0

Metrics = Dict[str, Tuple[float, str]]
#: What a pass returns: its metrics, the operations attempted, and the
#: outcome of the output checks.
Result = Tuple[Metrics, int, Tally]


def _workload(name: str, seed: int):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    if name == "serve-fleet-mix":
        from serveload import FleetMix
        return FleetMix(seed, golden, SRC)
    from simload import RecoverySoak, SessionsInit
    cls = SessionsInit if name == "sessions-init-1k" else RecoverySoak
    return cls(seed, golden, SRC)


def setup_probe(name: str, seed: int) -> int:
    """Child side of a set-up probe: import, set up, say ``ready``."""
    wl = _workload(name, seed)
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


def measure_setup(name: str, seed: int, probes: int) -> List[float]:
    """Seconds from starting a fresh interpreter to its first timed
    operation, at reference speed, once per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(probes):
        ref_before = reference_loop_s()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(at_reference_speed(elapsed, ref_before,
                                        reference_loop_s()))
    return times


# ---------------------------------------------------------------------------
# end-to-end pass
# ---------------------------------------------------------------------------
def op_summary(op_s: List[float]) -> Tuple[float, str]:
    """The tail of a list of operation times, in ms, and a line giving
    their quartiles and the tail's percentile and sample count."""
    p, t = tail(op_s)
    q = statistics.quantiles(op_s, n=4) if len(op_s) > 1 else op_s * 3
    return t * 1e3, (f"operation s: min {min(op_s):.4g} quartiles "
                     + " ".join(f"{v:.4g}" for v in q)
                     + f"; tail {t * 1e3:.4g} ms at p{p:g} of {len(op_s)}")


def _throughput(wl, out) -> Tuple[List[float], float]:
    """The operation times of a pass and the operations per second that
    passed the check: ok replies per second of the window on serve, ok
    operations per second of timed body on the simulation workloads."""
    if wl.name == "serve-fleet-mix":
        op_s = out.latencies()
        return op_s, len(op_s) / out.elapsed_s
    return out.op_s, (out.attempted - out.failed) / out.busy_s


def end_to_end(wl, seconds: float, seed: int,
               report: List[str]) -> Result:
    setup = measure_setup(wl.name, seed, SETUP_PROBES // 2)
    try:
        wl.setup()
        out = wl.run(seconds)
    finally:
        wl.close()
    setup += measure_setup(wl.name, seed, SETUP_PROBES - len(setup))
    if wl.name == "serve-fleet-mix":
        _mix_lines(wl, out, report)
    op_s, throughput = _throughput(wl, out)
    report.append(op_summary(op_s)[1] + f"; {throughput:.5g} ok/s")
    report.append("setup probes s at reference speed: "
                  + " ".join(f"{s:.4g}" for s in setup))
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (out.run_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return m, out.attempted, out


def _mix_lines(wl, out, report: List[str]) -> None:
    """Report the request mix the generator produced and what the fleet
    made of it."""
    from serveload import HOT_CAPACITY

    shares, distinct = wl.mix_report(out)
    stats = wl.serve_metrics(out)
    report.append(
        "mix: " + ", ".join(f"{kind} {share:.3f}" for kind, share in shares.items())
        + f"; {distinct} distinct keys vs hot tier of {HOT_CAPACITY}"
        f"; coalesced_ratio {stats['serve.dedup.coalesced_ratio'][0]:.4f}"
        f", hot_hit_ratio {stats['serve.store.hot_hit_ratio'][0]:.4f}"
        f", evictions {stats['serve.store.evictions'][0]}")


# ---------------------------------------------------------------------------
# per-layer pass
# ---------------------------------------------------------------------------
def _leading(parts: Dict[str, float], unit: str) -> str:
    """A line ranking the parts of a whole, largest first."""
    total = sum(parts.values()) or 1.0
    ranked = sorted(parts.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{name} {v:.4g} {unit} ({v / total:.0%})"
                     for name, v in ranked)


def _add_op_metrics(wl, plain, m: Metrics, report: List[str]) -> None:
    """``throughput_ops`` and ``latency_tail_ms`` of the untraced pass."""
    op_s, throughput = _throughput(wl, plain)
    tail_ms, line = op_summary(op_s)
    m["throughput_ops"] = (throughput, "1/s")
    m["latency_tail_ms"] = (tail_ms, "ms")
    report.append(line)


def per_layer_sim(wl, seconds: float, report: List[str]) -> Result:
    from serveload import SERVE_METRICS
    from simload import GROWTH_REPEATS, SOAK_COUNTED_SEEDS, SessionsInit

    sessions = isinstance(wl, SessionsInit)
    counted = 1 if sessions else SOAK_COUNTED_SEEDS
    if sessions:
        us_small, growth_tally = wl.growth()
    try:
        wl.setup()
        plain = wl.run(seconds)
        traced = wl.run(seconds, prof=Profiled())
    finally:
        wl.close()
    attempted = plain.attempted + traced.attempted
    tally = Tally()
    tally.add(plain)
    tally.add(traced)
    us_per_event = plain.run_s / (plain.events / plain.attempted) * 1e6
    growth = 0.0
    if sessions:
        growth = us_per_event / us_small
        attempted += GROWTH_REPEATS
        tally.add(growth_tally)
        report.append(f"us/event: {us_per_event:.2f} at 1024 ranks, "
                      f"{us_small:.2f} at 256 ranks")
    m = layer_metrics(traced.fold, traced.attempted, traced.calls_fold,
                      counted, plain.counters, counted)
    report.append("self time per operation by layer: " + _leading(
        {g: m[f"{g}.self_s"][0] for g in (*LAYERS, "core", "other")}, "s"))
    m["simtime.us_per_event"] = (us_per_event, "us")
    m["simtime.us_per_event.growth"] = (growth, "ratio")
    m["trace.overhead"] = (statistics.median(traced.op_s)
                           / statistics.median(plain.op_s), "ratio")
    _add_op_metrics(wl, plain, m, report)
    # This workload has no serve layer: its serve metrics read 0.
    m.update({name: (0, unit) for name, unit in SERVE_METRICS.items()})
    report.append(f"traced {traced.attempted} operation(s), untraced "
                  f"{plain.attempted}")
    return m, attempted, tally


def per_layer_serve(wl, seconds: float, report: List[str]) -> Result:
    try:
        wl.setup()
        plain = wl.run(seconds)
    finally:
        wl.close()
    traced = wl.run_traced(seconds)
    fold, runs, counters = wl.profile_direct()
    m = layer_metrics(fold, runs, fold, runs, counters, 1)
    m.update(wl.serve_metrics(plain))
    stages = wl.stage_metrics(traced)
    m.update(stages)
    report.append("p50 self time per request by serve stage: " + _leading(
        {name: v for name, (v, _unit) in stages.items()}, "ms"))
    direct_ms = m["serve.direct_ms.p50"][0]
    m["simtime.us_per_event"] = (
        direct_ms * 1e3 / counters["simtime.events"], "us")
    m["simtime.us_per_event.growth"] = (0, "ratio")
    m["trace.overhead"] = (percentile(traced.latencies(), 50)
                           / percentile(plain.latencies(), 50), "ratio")
    _add_op_metrics(wl, plain, m, report)
    _mix_lines(wl, plain, report)
    tally = Tally()
    tally.add(plain)
    tally.add(traced)
    return m, plain.attempted + traced.attempted, tally


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    wl = _workload(args.workload, args.seed)
    report: List[str] = []
    if args.trace == 0:
        result = end_to_end(wl, args.seconds, args.seed, report)
    elif args.workload == "serve-fleet-mix":
        result = per_layer_serve(wl, args.seconds / 2, report)
    else:
        result = per_layer_sim(wl, args.seconds / 2, report)
    metrics, attempted, tally = result

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print(f"  {line}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for error in tally.errors[:5]:
        print(f"  check: {error}")
    print(f"  failed_ratio = {tally.failed / max(attempted, 1):.6g} "
          f"({tally.failed} of {attempted} operations; "
          f"{tally.mismatched} differ from the reference)")
    print(json.dumps({
        "correct": tally.mismatched == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
