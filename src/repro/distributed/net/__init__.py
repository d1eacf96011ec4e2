"""Network-native distributed checking: a real transport behind the store.

The delta wire protocol (:mod:`repro.distributed.delta`) was designed
for network transport; this package finally puts a socket under it:

* :mod:`~repro.distributed.net.framing` — length-prefixed JSON frames
  (one encoder, one incremental decoder, shared by both ends);
* :mod:`~repro.distributed.net.service` — the transport-free
  multi-tenant core: one store + maintained
  :class:`~repro.distributed.detector.DistributedChecker` + service-side
  report provenance per tenant namespace;
* :mod:`~repro.distributed.net.server` — :class:`CheckerService`, the
  asyncio TCP server (``python -m repro.distributed serve``);
* :mod:`~repro.distributed.net.client` — :class:`RemoteStore`, a
  blocking drop-in for :class:`~repro.distributed.store.InMemoryStore`
  with timeouts, bounded retry/backoff, and faithful cross-wire
  ``DeltaSequenceError`` / ``StoreUnavailableError`` propagation.

With it, ``ReplicatedStore``'s fault-injection scenarios run over real
sockets (a genuine network-partition suite), and checking can be
centralised in one long-running service while publisher clients stay
thin — the deployment shape of the paper's Armus-X10 with Redis.
"""

from repro.distributed.net.client import RemoteProtocolError, RemoteStore
from repro.distributed.net.framing import (
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.distributed.net.server import DEFAULT_PORT, CheckerService
from repro.distributed.net.service import (
    DEFAULT_TENANT,
    CheckerServiceCore,
    TenantChecker,
)

__all__ = [
    "CheckerService",
    "CheckerServiceCore",
    "TenantChecker",
    "RemoteStore",
    "RemoteProtocolError",
    "FrameError",
    "DEFAULT_PORT",
    "DEFAULT_TENANT",
    "FrameDecoder",
    "encode_frame",
]
