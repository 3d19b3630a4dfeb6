"""Transfer registry: routing shared-socket datagrams to state machines.

The daemon multiplexes *one* UDP data socket across every concurrent
transfer.  Each datagram carries the PR-2 session extension
(``transfer-id`` u64 + attempt ``epoch`` u32), which
:func:`repro.runtime.wire.peek_session` extracts without a full decode.
The registry maps transfer-id → entry and enforces the epoch rule: a
datagram whose epoch differs from the registered attempt is a relic of
a dead attempt and is dropped (counted, never processed), so a crashed
attempt's late packets cannot corrupt its successor's bitmap.

DATA and ACK datagrams share the socket and carry no discriminating
magic; the header lengths differ (12 vs 16 bytes), so the session
extension sits at a different offset per kind.  Routing peeks at the
ACK offset first and asks the registry for a *sending* entry, then at
the DATA offset for a *receiving* entry.  Transfer-ids are 64-bit and
content-derived, so a stray peek matching the wrong table is
vanishingly unlikely — and the subsequent full decode (with checksum)
still validates the datagram before any state machine sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

#: Entry kinds — which direction the *server* moves payload bytes.
SENDING = "sending"
RECEIVING = "receiving"


@dataclass
class RegistryCounters:
    """Datagrams dropped at the demux layer, by cause."""

    unknown_transfer: int = 0
    stale_epoch: int = 0
    undecodable: int = 0
    superseded: int = 0


@dataclass
class RegisteredTransfer:
    """One live transfer attempt bound to the shared socket."""

    transfer_id: int
    epoch: int
    kind: str  # SENDING or RECEIVING
    entry: object = None

    def __post_init__(self) -> None:
        if self.kind not in (SENDING, RECEIVING):
            raise ValueError(f"bad registry kind {self.kind!r}")


class TransferRegistry:
    """transfer-id → live attempt, with stale-epoch rejection."""

    def __init__(self) -> None:
        self._by_id: dict[int, RegisteredTransfer] = {}
        self.counters = RegistryCounters()

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, transfer_id: int) -> bool:
        return transfer_id in self._by_id

    def __iter__(self) -> Iterator[RegisteredTransfer]:
        return iter(list(self._by_id.values()))

    def add(self, reg: RegisteredTransfer) -> Optional[RegisteredTransfer]:
        """Bind an attempt; returns any superseded prior registration.

        A client retrying after a crash re-announces the same
        transfer-id with a higher epoch; the stale registration is
        returned so the daemon can tear its resources down.
        """
        prior = self._by_id.get(reg.transfer_id)
        if prior is not None:
            self.counters.superseded += 1
        self._by_id[reg.transfer_id] = reg
        return prior

    def remove(self, transfer_id: int) -> Optional[RegisteredTransfer]:
        return self._by_id.pop(transfer_id, None)

    def get(self, transfer_id: int) -> Optional[RegisteredTransfer]:
        return self._by_id.get(transfer_id)

    def route(
        self,
        transfer_id: int,
        epoch: int,
        kind: Optional[str] = None,
    ) -> Optional[RegisteredTransfer]:
        """Resolve a peeked (tid, epoch) to a live attempt, or count a drop.

        ``kind`` restricts the match (an ACK must route to a SENDING
        entry); a kind mismatch is *not* counted, because demux probes
        both interpretations of an ambiguous datagram and only the
        final miss is a real drop — use :meth:`count_unknown` then.
        """
        reg = self._by_id.get(transfer_id)
        if reg is None or (kind is not None and reg.kind != kind):
            return None
        if reg.epoch != epoch:
            self.counters.stale_epoch += 1
            return None
        return reg

    def count_unknown(self) -> None:
        self.counters.unknown_transfer += 1
