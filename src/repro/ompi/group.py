"""MPI_Group: an ordered set of processes.

Members are :class:`~repro.pmix.types.PmixProc` identifiers.  Two
storage strategies are provided, mirroring Open MPI's sparse-group
support the paper notes its prototype can reuse: dense tuples, and a
strided representation ``(nspace, start, count, stride)`` that stores
regular groups (like ``mpi://world`` or every-other-rank subgroups) in
O(1) space.  All operations produce whichever representation fits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.ompi.constants import UNDEFINED
from repro.ompi.errors import MPIErrArg, MPIErrGroup, MPIErrRank
from repro.pmix.membership import Membership, stride_of
from repro.pmix.types import PmixProc

# Comparison results (MPI_Group_compare)
IDENT = 0
SIMILAR = 1
UNEQUAL = 2


class _Strided:
    """Strided member storage: ranks start, start+stride, ... (count of them)."""

    __slots__ = ("nspace", "start", "count", "stride")

    def __init__(self, nspace: str, start: int, count: int, stride: int) -> None:
        self.nspace = nspace
        self.start = start
        self.count = count
        self.stride = stride

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> PmixProc:
        if not 0 <= i < self.count:
            raise IndexError(i)
        return PmixProc(self.nspace, self.start + i * self.stride)

    def __iter__(self):
        for i in range(self.count):
            yield self[i]

    def index(self, proc: PmixProc) -> int:
        if proc.nspace != self.nspace:
            raise ValueError(proc)
        offset = proc.rank - self.start
        if offset < 0 or offset % self.stride != 0:
            raise ValueError(proc)
        i = offset // self.stride
        if i >= self.count:
            raise ValueError(proc)
        return i


class Group:
    """An immutable, ordered collection of distinct processes.

    Built from a :class:`~repro.pmix.membership.Membership` (a process
    set resolved once per world), the group shares it: no copy, no
    second distinctness or stride check, and O(1) ``rank_of``.  Any
    other iterable is validated here.
    """

    __slots__ = ("_members", "_dense", "_canon", "freed", "session")

    def __init__(self, members: Iterable[PmixProc]) -> None:
        if members.__class__ is Membership:
            stride = members.stride
            self._canon: Optional[Membership] = members
        else:
            members = tuple(members)
            if len(set(members)) != len(members):
                raise MPIErrGroup("group members must be distinct")
            stride = stride_of(members)
            self._canon = None
        self._members: Union[Tuple[PmixProc, ...], _Strided] = (
            _Strided(members[0].nspace, members[0].rank, len(members), stride)
            if stride is not None else members)
        # Dense member cache (the strided form materializes on demand).
        self._dense: Optional[Tuple[PmixProc, ...]] = members
        self.freed = False
        # Session affiliation (set by MPI_Group_from_session_pset).
        self.session = None

    # -- introspection ------------------------------------------------------
    @property
    def is_strided(self) -> bool:
        """True when this group uses the compressed representation."""
        return isinstance(self._members, _Strided)

    def _check(self) -> None:
        if self.freed:
            raise MPIErrGroup("group used after free")

    @property
    def size(self) -> int:
        self._check()
        return len(self._members)

    def members(self) -> Tuple[PmixProc, ...]:
        self._check()
        if self._dense is None:
            self._dense = tuple(self._members)
        return self._dense

    def membership(self) -> Membership:
        """The canonical (sorted) membership of this group's processes,
        what PMIx collectives over the group are keyed on."""
        self._check()
        if self._canon is None:
            self._canon = Membership(self.members())
        return self._canon

    def proc(self, rank: int) -> PmixProc:
        self._check()
        if not 0 <= rank < len(self._members):
            raise MPIErrRank(f"rank {rank} out of range for group of size {self.size}")
        return self._members[rank]

    def rank_of(self, proc: PmixProc) -> int:
        """Rank of ``proc`` in this group, or UNDEFINED if absent."""
        self._check()
        try:
            return self._members.index(proc)
        except ValueError:
            return UNDEFINED

    def __contains__(self, proc: PmixProc) -> bool:
        return self.rank_of(proc) != UNDEFINED

    def __len__(self) -> int:
        return self.size

    def free(self) -> None:
        self._check()
        self.freed = True

    # -- comparison ------------------------------------------------------------
    def compare(self, other: "Group") -> int:
        self._check()
        other._check()
        mine, theirs = self.members(), other.members()
        if mine == theirs:
            return IDENT
        if set(mine) == set(theirs):
            return SIMILAR
        return UNEQUAL

    # -- set operations (MPI ordering rules) --------------------------------------
    def union(self, other: "Group") -> "Group":
        """Members of self, then members of other not in self (MPI order)."""
        self._check()
        other._check()
        seen = set(self.members())
        out = list(self.members())
        for proc in other.members():
            if proc not in seen:
                out.append(proc)
        return Group(out)

    def intersection(self, other: "Group") -> "Group":
        """Members of self that are also in other, in self's order."""
        self._check()
        other._check()
        theirs = set(other.members())
        return Group([p for p in self.members() if p in theirs])

    def difference(self, other: "Group") -> "Group":
        """Members of self not in other, in self's order."""
        self._check()
        other._check()
        theirs = set(other.members())
        return Group([p for p in self.members() if p not in theirs])

    # -- subsetting -------------------------------------------------------------------
    def incl(self, ranks: Sequence[int]) -> "Group":
        self._check()
        if len(set(ranks)) != len(ranks):
            raise MPIErrRank("MPI_Group_incl ranks must be distinct")
        return Group([self.proc(r) for r in ranks])

    def excl(self, ranks: Sequence[int]) -> "Group":
        self._check()
        if len(set(ranks)) != len(ranks):
            raise MPIErrRank("MPI_Group_excl ranks must be distinct")
        drop = set(ranks)
        for r in drop:
            if not 0 <= r < self.size:
                raise MPIErrRank(f"rank {r} out of range")
        return Group([p for i, p in enumerate(self.members()) if i not in drop])

    def range_incl(self, ranges: Sequence[Tuple[int, int, int]]) -> "Group":
        """Each range is (first, last, stride), inclusive, as in MPI."""
        self._check()
        ranks: List[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise MPIErrArg("range stride must be nonzero")
            step = stride
            stop = last + (1 if step > 0 else -1)
            ranks.extend(range(first, stop, step))
        return self.incl(ranks)

    def range_excl(self, ranges: Sequence[Tuple[int, int, int]]) -> "Group":
        self._check()
        ranks: List[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise MPIErrArg("range stride must be nonzero")
            step = stride
            stop = last + (1 if step > 0 else -1)
            ranks.extend(range(first, stop, step))
        return self.excl(ranks)

    # -- rank translation -----------------------------------------------------------------
    def translate_ranks(self, ranks: Sequence[int], other: "Group") -> List[int]:
        """Map ranks in self to the corresponding ranks in other."""
        self._check()
        other._check()
        out = []
        for r in ranks:
            out.append(other.rank_of(self.proc(r)))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        kind = "strided" if self.is_strided else "dense"
        return f"<Group size={len(self._members)} {kind}>"


GROUP_EMPTY = Group(())
