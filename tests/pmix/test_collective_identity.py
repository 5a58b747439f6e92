"""Exact collective identity: signatures key on the full participant set.

Two different participant sets must never share a collective, even when
they agree on size, endpoints and rank sum; the same set must produce
equal signatures on every rank, across pickling, and at the wire size
the signature always had.
"""

import pickle

import pytest

from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.pmix.datastore import _value_size
from repro.pmix.membership import MemberKey, Membership
from repro.pmix.types import PMIX_ERR_BAD_PARAM, PmixError, PmixProc
from repro.simtime.process import Sleep
from tests.conftest import run_procs

A = (0, 1, 4, 5)
B = (0, 2, 3, 5)   # same size, endpoints and rank sum as A


def _fence_program(first, second, delayed=(1, 4)):
    """Ranks 0 and 5 fence over ``first`` then ``second``; the others
    fence once over the set they belong to, ranks in ``delayed`` 1 ms
    late, so the other set's ranks reach the servers first."""
    cluster = Cluster(machine=laptop(num_nodes=2))
    job = cluster.launch(6, ppn=3)

    def procs(ranks):
        return [job.proc(r) for r in ranks]

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        done = []
        if rank in delayed:
            yield Sleep(1e-3)
        for ranks in (first, second):
            if rank in ranks:
                yield from client.fence(procs(ranks), collect=False)
                done.append(ranks)
        return done

    results = run_procs(cluster, *(rank_proc(r) for r in range(6)),
                        names=[f"rank{r}" for r in range(6)])
    return results


def test_sets_with_equal_fingerprints_are_distinct_collectives():
    results = _fence_program(A, B)
    assert results[0] == results[5] == [A, B]
    assert results[1] == results[4] == [A]
    assert results[2] == results[3] == [B]


def test_sets_with_different_fingerprints_still_complete():
    other = (0, 2, 4, 5)
    results = _fence_program(A, other)
    assert results[0] == results[5] == [A, other]


def _procs(ranks, nspace="ns"):
    return [PmixProc(nspace, r) for r in ranks]


def test_member_key_compares_by_value_not_fingerprint():
    a, b = Membership(_procs(A)), Membership(_procs(B))
    assert tuple(a.key) == tuple(b.key)          # the old fingerprint collides
    assert a.key != b.key
    again = Membership(reversed(_procs(A)))      # built independently
    assert again is not a
    assert again.key == a.key and hash(again.key) == hash(a.key)
    assert a.key != tuple(a.key)


def test_member_key_wire_size_and_repr_match_the_fingerprint():
    members = Membership(_procs(range(8)))
    fingerprint = (8, members[0], members[-1], sum(range(8)))
    assert _value_size(members.key) == _value_size(fingerprint) == 40
    assert repr(members.key) == repr(fingerprint)
    sig = ("fence", members.key, False, 0)
    assert _value_size(sig) == _value_size(("fence", fingerprint, False, 0))


def test_membership_round_trips_through_pickle():
    members = Membership(_procs([7, 1, 3, 5]))
    back = pickle.loads(pickle.dumps(members))
    assert back == members and back.__class__ is Membership
    assert back.stride == members.stride == 2
    sig = ("grp", members.key, "cfg:x", 0)
    assert pickle.loads(pickle.dumps(sig)) == sig
    assert hash(pickle.loads(pickle.dumps(sig))) == hash(sig)
    assert isinstance(pickle.loads(pickle.dumps(members.key)), MemberKey)


def test_membership_is_sorted_distinct_and_indexed():
    members = Membership(_procs([9, 3, 6, 0]))
    assert [p.rank for p in members] == [0, 3, 6, 9]
    assert members.stride == 3
    assert members.index(PmixProc("ns", 6)) == 2
    assert PmixProc("ns", 4) not in members
    assert PmixProc("other", 3) not in members
    ragged = Membership(_procs([5, 1, 2]))
    assert ragged.stride is None
    assert ragged.index(PmixProc("ns", 5)) == 2
    assert Membership(members) is members
    with pytest.raises(ValueError):
        Membership(_procs([1, 2, 1]))


def test_membership_splits_by_node_once_per_placement():
    members = Membership(_procs(range(6)))
    dvm, other_dvm = object(), object()
    split = members.by_node(lambda p: 1 - p.rank // 3, dvm)
    assert list(split) == [0, 1]
    assert [p.rank for p in split[0]] == [3, 4, 5]
    assert members.by_node(None, dvm) is split          # computed once
    other = members.by_node(lambda p: p.rank % 2, other_dvm)
    assert [p.rank for p in other[1]] == [1, 3, 5]


def test_duplicate_participants_are_rejected():
    cluster = Cluster(machine=laptop(num_nodes=1))
    job = cluster.launch(2, ppn=2)

    def rank_proc():
        client = job.client(0)
        yield from client.init()
        yield from client.fence([job.proc(0), job.proc(0)])

    with pytest.raises(PmixError) as info:
        run_procs(cluster, rank_proc())
    assert info.value.status == PMIX_ERR_BAD_PARAM
