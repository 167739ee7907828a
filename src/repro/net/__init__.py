"""Network substrate: TCP transfer-time model, serialized links, topology.

The paper's Eq. (10) posits an effective-bandwidth function ``B(i) =
f(s(i), B)`` that vanishes for small transfer sizes and saturates at the
available bandwidth ``B`` for large ones, and attributes the loss to TCP
connection overhead and slow start.  :mod:`repro.net.tcp` implements exactly
that mechanism analytically; :mod:`repro.net.link` serializes transfers on a
link (the paper's Constraint (8)); :mod:`repro.net.topology` wires workers
to the PS tier — the paper's star is ``ShardedTopology(n_servers=1)`` —
and :mod:`repro.net.collective` to allreduce rings; :mod:`repro.net.monitor`
is the periodic bandwidth monitor that feeds Prophet.
"""

from repro.net.tcp import TCPParams, transfer_time, effective_bandwidth
from repro.net.link import Link, TransferRecord, BandwidthSchedule
from repro.net.topology import ShardedTopology
from repro.net.monitor import BandwidthMonitor

__all__ = [
    "TCPParams",
    "transfer_time",
    "effective_bandwidth",
    "Link",
    "TransferRecord",
    "BandwidthSchedule",
    "ShardedTopology",
    "BandwidthMonitor",
]
