"""Simulated PMIx: Process Management Interface for Exascale.

Implements the subset of PMIx v4 the paper's prototype relies on —
client init/finalize, put/get/commit, fence, the *group* extension
(collective construct/destruct returning a 64-bit Process Group Context
Identifier), event notification, and the query keys used to discover
process sets (``PMIX_QUERY_NUM_PSETS`` / ``PMIX_QUERY_PSET_NAMES``).

One :class:`~repro.pmix.server.PmixServer` runs per simulated node;
inter-server exchange rides on the PRRTE grpcomm substrate exactly as
described in paper §III-A (three-stage hierarchical pattern).
"""

from repro.pmix.types import (
    PmixProc,
    PmixStatus,
    PmixError,
    PMIX_RANK_WILDCARD,
    PMIX_SUCCESS,
    PMIX_ERR_TIMEOUT,
    PMIX_ERR_NOT_FOUND,
    PMIX_ERR_PROC_TERMINATED,
    PMIX_ERR_INVALID_OPERATION,
    PMIX_QUERY_NUM_PSETS,
    PMIX_QUERY_PSET_NAMES,
    PMIX_GROUP_CONTEXT_ID,
    PMIX_JOB_SIZE,
    PMIX_LOCAL_RANK,
    PMIX_NODE_ID,
    PMIX_TIMEOUT,
    PMIX_GROUP_LEADER,
    PMIX_GROUP_NOTIFY_TERMINATION,
)
from repro.pmix.membership import Membership
from repro.pmix.client import PmixClient
from repro.pmix.server import PmixServer

__all__ = [
    "Membership",
    "PmixProc",
    "PmixStatus",
    "PmixError",
    "PmixClient",
    "PmixServer",
    "PMIX_RANK_WILDCARD",
    "PMIX_SUCCESS",
    "PMIX_ERR_TIMEOUT",
    "PMIX_ERR_NOT_FOUND",
    "PMIX_ERR_PROC_TERMINATED",
    "PMIX_ERR_INVALID_OPERATION",
    "PMIX_QUERY_NUM_PSETS",
    "PMIX_QUERY_PSET_NAMES",
    "PMIX_GROUP_CONTEXT_ID",
    "PMIX_JOB_SIZE",
    "PMIX_LOCAL_RANK",
    "PMIX_NODE_ID",
    "PMIX_TIMEOUT",
    "PMIX_GROUP_LEADER",
    "PMIX_GROUP_NOTIFY_TERMINATION",
]
