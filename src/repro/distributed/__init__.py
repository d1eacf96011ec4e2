"""Distributed deadlock detection (Section 5.2).

Armus adapts the one-phase detection algorithm of Kshemkalyani & Singhal
to barrier synchronisation: each *site* periodically writes the blocked
statuses of its own tasks to a disjoint portion of a global
resource-dependency held in a fault-tolerant data store (Redis in the
paper), and **every** site independently pulls the global view and runs
cycle detection.  Two properties make this simple and robust:

* the event-based representation keeps consistency local to each task —
  sites never need to agree on barrier membership or arrival status
  (contrast MUST's centralised event-stream aggregation, Section 7);
* there is no designated control site, so detection survives site
  failures; the store survives through replication.

The paper used real Redis over real clusters; this package substitutes
an in-memory store with the same interface contract (disjoint per-site
streams, injectable failures) and in-process sites, each with its own
:class:`~repro.runtime.verifier.ArmusRuntime` — see DESIGN.md,
"Substitutions".

Publishing runs the **delta wire protocol**
(:mod:`repro.distributed.delta`): sites append
``set``/``clear`` deltas under per-site sequence numbers
(with periodic full-snapshot checkpoints) instead of re-putting whole
buckets, and checkers maintain the merged view incrementally — both
sides of the store pay O(change) per round, not O(cluster).
"""

from repro.distributed.store import (
    InMemoryStore,
    ReplicatedStore,
    StoreUnavailableError,
)
from repro.distributed.delta import (
    DeltaMergeState,
    DeltaPublisher,
    DeltaSequenceError,
)
from repro.distributed.detector import DistributedChecker
from repro.distributed.site import Site
from repro.distributed.places import Cluster
from repro.distributed.net import (
    CheckerService,
    RemoteProtocolError,
    RemoteStore,
)

__all__ = [
    "CheckerService",
    "RemoteStore",
    "RemoteProtocolError",
    "InMemoryStore",
    "ReplicatedStore",
    "StoreUnavailableError",
    "DeltaPublisher",
    "DeltaMergeState",
    "DeltaSequenceError",
    "DistributedChecker",
    "Site",
    "Cluster",
]
