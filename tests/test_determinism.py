"""Two runs of the same experiment produce bit-identical results —
the simulation core's central promise (docs/architecture.md §1)."""

from repro.apps.twomesh.driver import TwoMeshProblem, run_twomesh
from repro.bench.hpcc import hpcc_ring_latency
from repro.bench.osu import osu_init, osu_latency, osu_mbw_mr
from repro.machine.presets import laptop


def test_osu_init_deterministic():
    a = osu_init(2, 4, "sessions", machine_factory=laptop)
    b = osu_init(2, 4, "sessions", machine_factory=laptop)
    assert (a.total, a.handle, a.comm_construct) == (b.total, b.handle, b.comm_construct)


def test_osu_latency_deterministic():
    sizes = (8, 4096)
    assert osu_latency("world", sizes=sizes, machine=laptop(1)) == \
        osu_latency("world", sizes=sizes, machine=laptop(1))


def test_osu_mbw_deterministic():
    kw = dict(pairs=2, sizes=(64,), machine=laptop(1), window=4, iterations=2)
    assert osu_mbw_mr("sessions", **kw) == osu_mbw_mr("sessions", **kw)


def test_hpcc_random_ring_deterministic():
    kw = dict(ordering="random", iterations=3, machine_factory=laptop, seed=7)
    assert hpcc_ring_latency(2, 2, "world", **kw) == hpcc_ring_latency(2, 2, "world", **kw)


def test_faulted_run_deterministic():
    """Fault injection preserves the bit-determinism promise: two runs
    with the same seeded FaultPlan agree on outcomes, liveness, final
    time, and the serialized fault trace (docs/faults.md)."""
    from tests.properties.test_fault_properties import run_chaos

    assert run_chaos(13, trace=True) == run_chaos(13, trace=True)


def test_twomesh_deterministic():
    p = TwoMeshProblem(
        name="det", ranks=8, ppn=4, couplings=1, l0_steps=1, l1_steps=1,
        l0_compute=50e-6, l1_compute=1e-3, halo_bytes=512, workers_per_node=1,
    )
    assert run_twomesh(p, use_sessions=True) == run_twomesh(p, use_sessions=True)


_FIG3_TRACE_SHA = """
import hashlib
from repro.obs.export import chrome_trace, dumps
from repro.obs.scenarios import run_scenario
run = run_scenario("fig3-init", nodes=16, ppn=16)
print(hashlib.sha256(dumps(chrome_trace(run.tracer)).encode()).hexdigest())
"""


def test_fig3_trace_independent_of_hash_seed():
    """The 256-rank Fig 3 Perfetto export is the same under different
    ``PYTHONHASHSEED`` values: no output depends on set or identity
    order (shared memberships, per-object caches)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    def trace_sha(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", _FIG3_TRACE_SHA], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    first = trace_sha(1)
    assert len(first) == 64
    assert trace_sha(2) == first
