"""Multiprocess Time Warp backend: real OS processes, real messages.

See :mod:`repro.warped.parallel.backend` for the execution model and
:mod:`repro.warped.parallel.protocol` for the GVT token ring.
"""

from repro.warped.parallel.backend import NodeLoop, ProcessTimeWarpSimulator
from repro.warped.parallel.node import NodeEngine
from repro.warped.parallel.ring import WorkerRing
from repro.warped.parallel.protocol import GvtClerk, GvtToken
from repro.warped.parallel.transport import (
    PipeChannel,
    QueueTransport,
    ShmChannel,
    ShmTransport,
    Transport,
    TRANSPORT_NAMES,
    decode_record,
    encode_record,
    make_transport,
)

__all__ = [
    "GvtClerk",
    "GvtToken",
    "NodeEngine",
    "NodeLoop",
    "PipeChannel",
    "ProcessTimeWarpSimulator",
    "QueueTransport",
    "ShmChannel",
    "ShmTransport",
    "Transport",
    "TRANSPORT_NAMES",
    "decode_record",
    "encode_record",
    "make_transport",
]
