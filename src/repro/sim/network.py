"""Simulated network links and the data-movement ledger.

Every byte that crosses between the compute layer and the storage layer
goes through a :class:`Link`, and every transfer is recorded in a
:class:`TransferLedger`.  The ledger is the *sole* source of the paper's
"data movement" numbers (Figure 5's red line, the GB/MB reductions quoted
in the abstract): nothing is estimated, we simply sum what actually moved.

A link serializes transfers FIFO at its configured bandwidth — a
reasonable model for a single 10 GbE path where concurrent streams share
the wire (aggregate completion times match fair sharing for the
bulk-transfer workloads we model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import LinkDropError, SimulationError
from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultInjector

__all__ = ["Link", "TransferRecord", "TransferLedger"]


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer over a link."""

    src: str
    dst: str
    nbytes: int
    label: str
    start: float
    end: float


class TransferLedger:
    """Append-only log of transfers, queryable by endpoint/label.

    Byte totals are kept per ``(src, dst, label)``.  Labels come from a
    small fixed set (``plan-*``, ``get-*``, ``select-*``,
    ``rpc:<method>:*``), so :meth:`total_bytes` costs the same however
    many transfers a long-lived cluster has recorded.
    """

    def __init__(self) -> None:
        self._records: List[TransferRecord] = []
        self._totals: Dict[Tuple[str, str, str], int] = {}

    def record(self, rec: TransferRecord) -> None:
        self._records.append(rec)
        key = (rec.src, rec.dst, rec.label)
        self._totals[key] = self._totals.get(key, 0) + rec.nbytes

    def total_bytes(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        label: Optional[str] = None,
    ) -> int:
        """Sum bytes over records matching all given filters (None = any)."""
        return sum(
            nbytes
            for (rec_src, rec_dst, rec_label), nbytes in self._totals.items()
            if (src is None or rec_src == src)
            and (dst is None or rec_dst == dst)
            and (label is None or rec_label == label)
        )

    def records(self) -> Iterator[TransferRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
        self._totals.clear()


@dataclass
class Link:
    """A point-to-point (or switch-mediated) network path.

    ``transfer`` returns a process that completes when the last byte has
    arrived: queueing behind earlier transfers + serialization time at
    ``bandwidth_bps`` + propagation ``latency_s``.
    """

    sim: Simulator
    bandwidth_bps: float
    latency_s: float = 0.0
    name: str = "link"
    ledger: TransferLedger = field(default_factory=TransferLedger)
    #: Optional fault injector; when set, transfers may be dropped.
    faults: Optional["FaultInjector"] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise SimulationError("link bandwidth must be positive")
        if self.latency_s < 0:
            raise SimulationError("link latency cannot be negative")
        self._wire = Resource(self.sim, capacity=1)

    def transfer(self, src: str, dst: str, nbytes: int, label: str = "") -> Process:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the completion process."""
        if nbytes < 0:
            raise SimulationError(f"cannot transfer negative bytes: {nbytes}")
        return self.sim.process(
            self._do_transfer(src, dst, int(nbytes), label),
            name=f"xfer:{src}->{dst}",
        )

    def _do_transfer(self, src: str, dst: str, nbytes: int, label: str):
        start = self.sim.now
        with self._wire.request() as slot:
            yield slot
            yield self.sim.timeout(nbytes / self.bandwidth_bps)
        if self.faults is not None and self.faults.drop_frame(self.name):
            # The frame burned wire time but never arrived; it is not
            # recorded on the ledger because no bytes reached ``dst``.
            raise LinkDropError(
                f"link {self.name!r} dropped {label or 'frame'} "
                f"({nbytes} B, {src} -> {dst})"
            )
        # Propagation delay happens off the wire: the next transfer may
        # begin serializing while this one's tail is in flight.
        if self.latency_s:
            yield self.sim.timeout(self.latency_s)
        self.ledger.record(
            TransferRecord(
                src=src, dst=dst, nbytes=nbytes, label=label, start=start, end=self.sim.now
            )
        )
        return nbytes

    def utilization(self) -> float:
        """Mean wire occupancy since simulation start."""
        return self._wire.utilization()
