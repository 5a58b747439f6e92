"""Per-namespace key-value storage.

Each PMIx server keeps one :class:`Datastore`: job-level data (rank
``PMIX_RANK_WILDCARD``) plus per-rank data published via put/commit and
propagated by fence or direct-modex requests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.pmix.membership import sorted_procs
from repro.pmix.types import ABORTED_MARKER, PMIX_RANK_WILDCARD, PmixProc


class Datastore:
    """Nested mapping nspace -> rank -> key -> value."""

    def __init__(self) -> None:
        self._data: Dict[str, Dict[int, Dict[str, Any]]] = {}

    def put(self, proc: PmixProc, key: str, value: Any) -> None:
        self._data.setdefault(proc.nspace, {}).setdefault(proc.rank, {})[key] = value

    def put_job(self, nspace: str, key: str, value: Any) -> None:
        """Store job-level data (visible via the wildcard rank)."""
        self.put(PmixProc(nspace, PMIX_RANK_WILDCARD), key, value)

    def get(self, proc: PmixProc, key: str) -> Tuple[bool, Any]:
        """Return (found, value); falls back to job-level data."""
        by_rank = self._data.get(proc.nspace)
        if by_rank is None:
            return False, None
        rank_data = by_rank.get(proc.rank)
        if rank_data is not None and key in rank_data:
            return True, rank_data[key]
        if proc.rank != PMIX_RANK_WILDCARD:
            job = by_rank.get(PMIX_RANK_WILDCARD)
            if job is not None and key in job:
                return True, job[key]
        return False, None

    def has(self, proc: PmixProc, key: str) -> bool:
        return self.get(proc, key)[0]

    def rank_blob(self, proc: PmixProc) -> Dict[str, Any]:
        """All committed data for one rank (what fence exchanges)."""
        return dict(self._data.get(proc.nspace, {}).get(proc.rank, {}))

    def merge_blob(self, proc: PmixProc, blob: Dict[str, Any]) -> None:
        if not blob:
            return
        self._data.setdefault(proc.nspace, {}).setdefault(proc.rank, {}).update(blob)

    def namespaces(self) -> Iterable[str]:
        return self._data.keys()

    def drop_namespace(self, nspace: str) -> None:
        self._data.pop(nspace, None)

    def size_estimate(self, nspace: Optional[str] = None) -> int:
        """Rough byte size of stored blobs (drives exchange message sizes)."""
        spaces = [nspace] if nspace else list(self._data)
        total = 0
        for ns in spaces:
            for rank_data in self._data.get(ns, {}).values():
                for key, value in rank_data.items():
                    total += len(key) + _value_size(value)
        return total


class Contributions(dict):
    """The data of one collective: proc -> that proc's contribution.

    Grpcomm forwards one merged object verbatim to every child daemon,
    so whatever is derived from it is derived once and carried along:
    the wire size is measured the first time it is asked for (when the
    object is sent or merged) and summed as parts merge, and the sorted
    member tuple and the aborted participants are computed on first
    use.  An object is frozen once it is sent; only :meth:`merge` may
    grow it before then.
    """

    __slots__ = ("_wire", "_procs", "_aborted")

    def __init__(self, entries=()) -> None:
        super().__init__(entries)
        self._wire: Optional[int] = None
        self._procs = None
        self._aborted = None

    @property
    def wire(self) -> int:
        """What :func:`_value_size` gives for this mapping."""
        if self._wire is None:
            self._wire = _mapping_size(self)
        return self._wire

    def merge(self, other: "Contributions") -> None:
        """``update`` with ``other``, keeping :attr:`wire` exact."""
        wire = self.wire
        before = len(self)
        self.update(other)
        if len(self) == before + len(other):
            self._wire = wire + other.wire - 8
        else:  # overlapping keys (restart markers): measure again
            self._wire = None

    def procs(self) -> tuple:
        """The contributing procs in canonical order."""
        if self._procs is None:
            self._procs = sorted_procs(self)
        return self._procs

    def aborted(self) -> tuple:
        """Participants standing in with :data:`ABORTED_MARKER`, sorted."""
        if self._aborted is None:
            self._aborted = sorted_procs(
                [p for p, v in self.items() if v == ABORTED_MARKER])
        return self._aborted


def _mapping_size(value: Dict) -> int:
    return 8 + sum(len(str(k)) + _value_size(v) for k, v in value.items())


def _value_size(value: Any) -> int:
    """Approximate wire size of a stored value in bytes."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_value_size(v) for v in value)
    if isinstance(value, dict):
        if value.__class__ is Contributions:
            return value.wire
        return _mapping_size(value)
    return 8
