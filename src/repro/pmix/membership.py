"""Canonical process-set membership, resolved once and shared.

A collective over a world-sized process set used to cost O(n) in every
one of the n ranks: each rank copied the set, re-sorted it, re-checked
distinctness and re-detected its stride, and each server re-scanned it
for its local members.  A :class:`Membership` does that work once, when
the set is resolved, and every layer passes the same object down:

* it *is* the sorted tuple of distinct :class:`PmixProc` members (a
  ``tuple`` subclass, so it compares, iterates and sizes like one);
* ``stride`` records the regular rank pattern, if any, so a group
  over it stores it compressed;
* ``index``/``in`` use a proc -> position map built once;
* :meth:`by_node` splits the members by host node, once per DVM;
* :attr:`key` is the exact collective identity (:class:`MemberKey`).

Whoever resolves a set owns its membership: the job holds the world
set, the pset registry holds each named set.  Nothing here is cached at
module level, so memberships die with the world that made them.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter, eq, gt
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.pmix.types import PmixProc

#: Sort key of a proc: (nspace, rank), the order ``PmixProc.__lt__`` uses.
_KEY = attrgetter("nspace", "rank")
_RANK = attrgetter("rank")
_NSPACE = attrgetter("nspace")


def stride_of(procs: Sequence[PmixProc]) -> Optional[int]:
    """The positive rank stride of ``procs`` when they form a regular
    single-namespace run of at least 4 members, else ``None``."""
    n = len(procs)
    if n < 4 or len(set(map(_NSPACE, procs))) != 1:
        return None
    ranks = list(map(_RANK, procs))
    start = ranks[0]
    stride = ranks[1] - start
    if stride <= 0 or ranks != list(range(start, start + stride * n, stride)):
        return None
    return stride


class MemberKey(tuple):
    """Exact identity of a collective's participant set.

    The tuple fields are ``(n, first, last, ranksum)``: that is what the
    key prints as and what it costs on the wire (``_value_size`` gives
    40 bytes), and it is what it hashes on.  Equality is decided by the
    full membership, so two different sets that share those four fields
    stay two different collectives.  Keys compare by value across ranks
    and survive pickling (partition envelopes).
    """

    def __new__(cls, members: "Membership") -> "MemberKey":
        key = tuple.__new__(cls, members.fingerprint)
        key.members = members
        return key

    def __eq__(self, other) -> bool:
        if other.__class__ is not MemberKey:
            return False
        return tuple.__eq__(self, other) and (
            self.members is other.members or self.members == other.members)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return (MemberKey, (self.members,))


class Membership(tuple):
    """An immutable, sorted set of distinct processes (see module doc).

    ``Membership(procs)`` validates and sorts any iterable of procs and
    raises :class:`ValueError` on a duplicate; given a ``Membership`` it
    returns it unchanged.
    """

    def __new__(cls, procs: Iterable[PmixProc] = ()) -> "Membership":
        if procs.__class__ is cls:
            return procs
        procs = tuple(procs)
        keys = list(map(_KEY, procs))
        if any(map(gt, keys, islice(keys, 1, None))):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            procs = tuple(map(procs.__getitem__, order))
            keys = list(map(keys.__getitem__, order))
        if any(map(eq, keys, islice(keys, 1, None))):
            raise ValueError("process set has duplicate members")
        self = tuple.__new__(cls, procs)
        self.stride = stride_of(procs)
        self._hash = None
        self._index: Optional[Dict[PmixProc, int]] = None
        self._by_node: Optional[Tuple[object, Dict[int, Tuple[PmixProc, ...]]]] = None
        self._fingerprint: Optional[tuple] = None
        return self

    def __reduce__(self):
        return (Membership, (tuple(self),))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = tuple.__hash__(self)
        return h

    # -- O(1) membership ----------------------------------------------------
    def _positions(self) -> Dict[PmixProc, int]:
        """proc -> position, built once per membership."""
        index = self._index
        if index is None:
            index = self._index = dict(zip(self, range(len(self))))
        return index

    def index(self, proc: PmixProc) -> int:  # type: ignore[override]
        """Position of ``proc``; raises ValueError when absent."""
        try:
            return self._positions()[proc]
        except KeyError:
            raise ValueError(proc) from None

    def __contains__(self, proc) -> bool:
        return proc in self._positions()

    # -- shared derived views -----------------------------------------------
    @property
    def fingerprint(self) -> tuple:
        """``(n, first, last, ranksum)``, computed once."""
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = (
                len(self), self[0], self[-1], sum(map(_RANK, self)))
        return fp

    @property
    def key(self) -> MemberKey:
        """The exact collective identity of this set.  O(1) after the
        first call; a fresh key each time, since a cached one would
        form a reference cycle with this membership."""
        return MemberKey(self)

    def by_node(self, node_of: Callable[[PmixProc], int],
                placement: object) -> Dict[int, Tuple[PmixProc, ...]]:
        """Members grouped by host node, nodes in ascending order.

        ``node_of`` maps a proc to its node under ``placement`` (the
        DVM whose job map it reads).  Every server of a DVM shares that
        map, so the split is computed once per membership and placement.
        """
        cached = self._by_node
        if cached is not None and cached[0] is placement:
            return cached[1]
        groups: Dict[int, list] = {}
        for proc in self:
            groups.setdefault(node_of(proc), []).append(proc)
        split = {node: tuple(groups[node]) for node in sorted(groups)}
        self._by_node = (placement, split)
        return split


def sorted_procs(procs: Iterable[PmixProc]) -> Tuple[PmixProc, ...]:
    """``procs`` in canonical (nspace, rank) order, duplicates kept."""
    return tuple(sorted(procs, key=_KEY))


__all__ = ["Membership", "MemberKey", "sorted_procs", "stride_of"]
