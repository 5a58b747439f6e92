"""PMIx identifiers, status codes, and attribute keys.

Mirrors the names of the PMIx v4 specification for the slice this
prototype exercises.  Status codes are small ints; failures surface as
:class:`PmixError` carrying the status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

# -- status codes ------------------------------------------------------------
PMIX_SUCCESS = 0
PMIX_ERR_TIMEOUT = -4
PMIX_ERR_NOT_FOUND = -5
PMIX_ERR_INVALID_OPERATION = -13
PMIX_ERR_PROC_TERMINATED = -22
PMIX_ERR_LOST_CONNECTION = -25
PMIX_ERR_PROC_ABORTED = -26
PMIX_ERR_BAD_PARAM = -27

_STATUS_NAMES = {
    PMIX_SUCCESS: "PMIX_SUCCESS",
    PMIX_ERR_TIMEOUT: "PMIX_ERR_TIMEOUT",
    PMIX_ERR_NOT_FOUND: "PMIX_ERR_NOT_FOUND",
    PMIX_ERR_INVALID_OPERATION: "PMIX_ERR_INVALID_OPERATION",
    PMIX_ERR_PROC_TERMINATED: "PMIX_ERR_PROC_TERMINATED",
    PMIX_ERR_LOST_CONNECTION: "PMIX_ERR_LOST_CONNECTION",
    PMIX_ERR_PROC_ABORTED: "PMIX_ERR_PROC_ABORTED",
    PMIX_ERR_BAD_PARAM: "PMIX_ERR_BAD_PARAM",
}


def status_name(code: int) -> str:
    return _STATUS_NAMES.get(code, f"PMIX_STATUS({code})")


# Sentinel blob standing in for a dead participant's contribution in a
# collective result (lives here so both the PMIx server and the PRRTE
# grpcomm restart path can use it without a circular import).
ABORTED_MARKER = "__pmix_proc_aborted__"


class PmixStatus(int):
    """An int subclass whose repr shows the symbolic status name."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return status_name(int(self))


class PmixError(Exception):
    """Raised by PMIx client operations that fail.

    ``failed_procs`` names the participants whose death caused the
    failure (when known) — survivors use it to re-issue the operation
    with an evicted membership (docs/recovery.md).
    """

    def __init__(self, status: int, message: str = "", failed_procs=()) -> None:
        self.status = status
        self.failed_procs = tuple(failed_procs)
        super().__init__(f"{status_name(status)}: {message}" if message else status_name(status))


# -- rank sentinel ------------------------------------------------------------
PMIX_RANK_WILDCARD = -1  # refers to job-level (not rank-level) data

# -- reserved keys -------------------------------------------------------------
PMIX_JOB_SIZE = "pmix.job.size"
PMIX_LOCAL_RANK = "pmix.lrank"
PMIX_NODE_ID = "pmix.nodeid"
PMIX_LOCAL_PEERS = "pmix.lpeers"
PMIX_UNIV_SIZE = "pmix.univ.size"

# -- query keys (paper §III-A) --------------------------------------------------
PMIX_QUERY_NUM_PSETS = "pmix.qry.psetnum"
PMIX_QUERY_PSET_NAMES = "pmix.qry.psets"
PMIX_QUERY_PSET_MEMBERSHIP = "pmix.qry.pmems"

# -- group directives (paper §III-A constructor options) -------------------------
PMIX_GROUP_CONTEXT_ID = "pmix.grp.ctxid"        # request a PGCID
PMIX_GROUP_LEADER = "pmix.grp.ldr"              # designate a leader process
PMIX_TIMEOUT = "pmix.timeout"                   # seconds before ERR_TIMEOUT
PMIX_GROUP_NOTIFY_TERMINATION = "pmix.grp.notifyterm"
PMIX_GROUP_FT_COLLECTIVE = "pmix.grp.ftcoll"    # treat early death as error


class PmixProc:
    """A process identifier: (namespace, rank).

    ``rank == PMIX_RANK_WILDCARD`` designates the whole namespace, as in
    the PMIx spec.  Implemented as a slotted value class with a
    precomputed hash — these ids are created and hashed millions of
    times per simulation (every message, every collective signature).
    """

    __slots__ = ("nspace", "rank", "_hash")

    def __init__(self, nspace: str, rank: int) -> None:
        self.nspace = nspace
        self.rank = rank
        self._hash = hash((nspace, rank))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is PmixProc:
            return self.rank == other.rank and self.nspace == other.nspace
        return NotImplemented

    def __lt__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) < (other.nspace, other.rank)

    def __le__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) <= (other.nspace, other.rank)

    def __gt__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) > (other.nspace, other.rank)

    def __ge__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) >= (other.nspace, other.rank)

    def __repr__(self) -> str:
        return f"PmixProc(nspace={self.nspace!r}, rank={self.rank})"

    def __str__(self) -> str:
        r = "*" if self.rank == PMIX_RANK_WILDCARD else str(self.rank)
        return f"{self.nspace}:{r}"


@dataclass
class PmixInfo:
    """A (key, value) directive, optionally flagged as required."""

    key: str
    value: Any
    required: bool = False


def info_dict(infos) -> Dict[str, Any]:
    """Normalize a list of PmixInfo / (key, value) pairs / dict to a dict."""
    if infos is None:
        return {}
    if isinstance(infos, dict):
        return dict(infos)
    out: Dict[str, Any] = {}
    for item in infos:
        if isinstance(item, PmixInfo):
            out[item.key] = item.value
        else:
            key, value = item
            out[key] = value
    return out


def lookup_info(infos, key: str, default: Optional[Any] = None) -> Any:
    """Fetch one directive from any accepted 'info' representation."""
    return info_dict(infos).get(key, default)
