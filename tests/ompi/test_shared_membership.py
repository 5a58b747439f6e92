"""Groups over a shared canonical membership behave like any other group.

``mpi://world``, ``mpi://shared`` and registry psets resolve to one
:class:`~repro.pmix.membership.Membership` per world that every rank
shares; a :class:`Group` built from it skips the copy and the checks.
These tests pin that it is observably the same group as one built from
a plain list of the same processes, and that eviction hands recovery a
new membership of the survivors.
"""

import pytest

from repro.api import SimSpec, make_world
from repro.faults import FaultPlan
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM, UNDEFINED
from repro.ompi.errors import MPIErrGroup
from repro.ompi.group import IDENT, Group
from repro.pmix.membership import Membership
from repro.pmix.types import PmixProc
from repro.prrte.psets import PsetRegistry
from repro.simtime.process import Sleep
from tests.recovery.test_ulfm import _run, _spawn


def _procs(ranks, nspace="job"):
    return [PmixProc(nspace, r) for r in ranks]


@pytest.mark.parametrize("ranks", [
    range(16),                 # world: strided
    range(1, 20, 3),           # strided, offset
    (0, 1, 2, 5, 8),           # dense
    (3,),                      # too short to stride
    (),                        # empty
])
def test_group_from_membership_equals_group_from_list(ranks):
    members = Membership(_procs(ranks))
    shared, plain = Group(members), Group(list(members))
    assert shared.members() == plain.members()
    assert shared.is_strided == plain.is_strided
    assert shared.compare(plain) == IDENT
    for proc in _procs(range(-1, 22)) + _procs([0], nspace="other"):
        assert shared.rank_of(proc) == plain.rank_of(proc)
    assert shared.membership() is members
    assert plain.membership() == members


def test_group_membership_of_unsorted_group_is_canonical():
    group = Group(_procs([5, 2, 9]))
    assert [p.rank for p in group.members()] == [5, 2, 9]
    assert [p.rank for p in group.membership()] == [2, 5, 9]
    assert group.rank_of(PmixProc("job", 2)) == 1
    assert group.rank_of(PmixProc("job", 3)) == UNDEFINED


def test_duplicate_user_members_still_rejected():
    p = PmixProc("job", 1)
    with pytest.raises(MPIErrGroup):
        Group([p, p])


def test_world_membership_shared_by_every_rank():
    world = make_world(spec=SimSpec(
        nprocs=8, machine=laptop(num_nodes=2), ppn=4,
        config=MpiConfig.sessions_prototype()))
    seen = []

    def main(mpi):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        shared = yield from session.group_from_pset("mpi://shared")
        seen.append((group.membership(), shared.membership()))
        yield from session.finalize()

    world.spawn_ranks(main)
    world.run()
    assert all(w is world.job.world for w, _s in seen)
    assert {id(s) for _w, s in seen} == {
        id(world.job.node_members(n)) for n in (0, 1)}


def test_evict_yields_a_new_membership_of_survivors():
    reg = PsetRegistry()
    reg.define("app/all", _procs(range(6)))
    before = reg.members("app/all")
    assert before.__class__ is Membership
    assert reg.evict(PmixProc("job", 4)) == ["app/all"]
    after = reg.members("app/all")
    assert after.__class__ is Membership and after is not before
    assert after == tuple(_procs([0, 1, 2, 3, 5]))
    assert after.key != before.key
    assert reg.evict(PmixProc("job", 4)) == []


def test_pset_defined_out_of_order_keeps_its_order():
    reg = PsetRegistry()
    reg.define("app/rev", _procs([3, 1]))
    assert reg.members("app/rev") == tuple(_procs([3, 1]))
    assert reg.members("app/rev").__class__ is tuple


def test_re_queried_registry_pset_spans_survivors_only():
    world = make_world(spec=SimSpec(
        nprocs=6, machine=laptop(num_nodes=3), ppn=2,
        psets={"app/all": tuple(range(6))},
        config=MpiConfig.sessions_prototype(), recovery=True, recovery_seed=1))
    world.cluster.faults.install(FaultPlan().kill_proc(5, at_time=5e-3))
    out = {}

    def victim(mpi):
        yield from mpi.mpi_init()
        yield Sleep(1.0)

    def survivor(mpi):
        session = yield from mpi.session_init()
        while not mpi.failed_procs:
            yield Sleep(50e-6)
        yield from session.re_query_psets()
        group = yield from session.group_from_pset("app/all")
        comm = yield from mpi.comm_create_from_group(group, "app-survivors")
        total = yield from comm.allreduce(1, op=SUM)
        out[mpi.rank_in_job] = (group.size, total)
        comm.free()
        yield from session.finalize()

    gens = [victim(rt) if r == 5 else survivor(rt)
            for r, rt in enumerate(world.runtimes)]
    _spawn(world, gens)
    _run(world)
    assert out == {r: (5, 5) for r in range(5)}
