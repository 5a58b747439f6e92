"""Runtime-defined process sets.

A process set is *just a name for a list of processes* (paper §III-B6);
PRRTE owns the registry and PMIx queries read it.  The MPI layer adds
its reserved names (``mpi://world`` etc.) on top of whatever the user or
site configured at launch time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.pmix.membership import Membership
from repro.pmix.types import PmixProc


def _resolve(members: Tuple[PmixProc, ...]) -> Tuple[PmixProc, ...]:
    """The canonical :class:`Membership` of a set defined in sorted
    order (every lookup then shares it); a set defined in another order
    keeps that order as a plain tuple."""
    canonical = Membership(members)
    return canonical if canonical == members else members


class PsetRegistry:
    """Name -> ordered tuple of :class:`PmixProc` members.

    A set listed in canonical (nspace, rank) order is stored as its
    shared :class:`Membership`, resolved once at definition.
    """

    def __init__(self) -> None:
        self._sets: Dict[str, Tuple[PmixProc, ...]] = {}

    def define(self, name: str, members: Iterable[PmixProc]) -> None:
        """Register a process set; redefining an existing name is an error."""
        if not name:
            raise ValueError("process set name must be non-empty")
        if name in self._sets:
            raise ValueError(f"process set {name!r} already defined")
        try:
            self._sets[name] = _resolve(tuple(members))
        except ValueError:
            raise ValueError(f"process set {name!r} has duplicate members") from None

    def undefine(self, name: str) -> None:
        self._sets.pop(name, None)

    def evict(self, proc: PmixProc) -> List[str]:
        """Remove a dead process from every set (idempotent).

        Returns the names of the sets that changed.  Sets may become
        empty but keep their names — queries stay answerable and all
        servers (which share this registry) see the same membership.
        A changed set gets a new membership object: collectives keyed
        on the old one are not mistaken for ones over the survivors.
        """
        changed = []
        for name, members in self._sets.items():
            if proc in members:
                self._sets[name] = _resolve(tuple(p for p in members if p != proc))
                changed.append(name)
        return changed

    def names(self) -> List[str]:
        return sorted(self._sets)

    def count(self) -> int:
        return len(self._sets)

    def members(self, name: str) -> Optional[Tuple[PmixProc, ...]]:
        return self._sets.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._sets
