"""Deadlock reports say what each blocked process waits on.

A rank stuck in a PMIx collective is reported with the collective's
kind, the participant count it expects and the participants that have
not arrived, so a mismatched program is diagnosable from the error
text alone.
"""

import pytest

from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.simtime.engine import DeadlockError, Engine
from repro.simtime.primitives import DescribedEvent, SimEvent
from repro.simtime.process import SimProcess, Wait
from tests.conftest import run_procs


def _hang(program, ranks=4, nodes=2, ppn=2):
    cluster = Cluster(machine=laptop(num_nodes=nodes))
    job = cluster.launch(ranks, ppn=ppn)
    with pytest.raises(DeadlockError) as info:
        run_procs(cluster, *(program(job, r) for r in range(ranks)),
                  names=[f"rank{r}" for r in range(ranks)])
    return job, str(info.value)


def test_skipped_fence_names_the_missing_rank():
    def program(job, rank):
        client = job.client(rank)
        yield from client.init()
        if rank != 3:
            yield from client.fence()

    job, msg = _hang(program)
    assert msg.startswith("simulation deadlock: 3 process(es) blocked forever")
    missing = str(job.proc(3))
    for rank in range(3):
        assert (f"rank{rank} waits on PMIx fence #0: 4 participants expected, "
                f"3 arrived; not arrived: {missing}") in msg
    assert "rank3 waits" not in msg


def test_subset_group_construct_names_every_absent_member():
    def program(job, rank):
        client = job.client(rank)
        yield from client.init()
        if rank == 0:
            yield from client.group_construct(
                "g", [job.proc(r) for r in (0, 1, 2)])

    job, msg = _hang(program)
    assert (f"rank0 waits on PMIx grp 'g' #0: 3 participants expected, "
            f"1 arrived; not arrived: {job.proc(1)}, {job.proc(2)}") in msg


def test_engine_reports_described_and_plain_waits():
    eng = Engine()
    plain = SimEvent()
    described = DescribedEvent("the {}".format, "answer")

    def stuck(event):
        yield Wait(event)

    SimProcess(eng, stuck(plain), "a").start()
    SimProcess(eng, stuck(described), "b").start()
    with pytest.raises(DeadlockError) as info:
        eng.run()
    lines = str(info.value).splitlines()
    assert lines[0].endswith("blocked forever at t=0.0: a, b")
    assert lines[1:] == ["  a waits on an event nobody triggers",
                         "  b waits on the answer"]
