"""Per-rank work of Sessions init does not grow with the world.

The paper's Fig 3 sequence (session_init -> group_from_pset ->
comm_create_from_group -> barrier -> free -> finalize) resolves
``mpi://world`` once per world and passes that membership down, so
PMIx and MPI-group work per rank is flat in the rank count.  Python
call counts repeat exactly from run to run, so this guards the
complexity without timing anything: at 64 and 256 ranks the calls per
rank into ``repro.pmix`` and ``repro.ompi.group`` may grow by at most
1.25x (the per-rank O(n) scans they replaced grew them 2.9x).
"""

import cProfile
import os
import pstats

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig

PPN = 16
MAX_GROWTH = 1.25


def _fig3(mpi):
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "scaling-guard")
    yield from comm.barrier()
    comm.free()
    yield from session.finalize()


def _counted(path: str) -> bool:
    path = path.replace(os.sep, "/")
    return "/repro/pmix/" in path or path.endswith("/repro/ompi/group.py")


def calls_per_rank(nodes: int) -> float:
    world = make_world(spec=SimSpec(
        nprocs=nodes * PPN, machine=jupiter(nodes), ppn=PPN,
        config=MpiConfig.sessions_prototype()))
    profile = cProfile.Profile()
    profile.enable()
    procs = world.spawn_ranks(_fig3)
    world.run()
    profile.disable()
    assert all(p.exception is None for p in procs)
    stats = pstats.Stats(profile).stats
    calls = sum(ncalls for (path, _line, _name), (_cc, ncalls, *_rest)
                in stats.items() if _counted(path))
    return calls / (nodes * PPN)


def test_fig3_calls_per_rank_flat_from_64_to_256_ranks():
    small, large = calls_per_rank(4), calls_per_rank(16)
    assert small > 0
    assert large / small <= MAX_GROWTH, (
        f"calls per rank grew {large / small:.2f}x "
        f"({small:.0f} -> {large:.0f}) from 64 to 256 ranks")
