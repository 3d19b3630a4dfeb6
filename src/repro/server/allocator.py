"""Max-min fair division of the host's send-rate budget.

FOBS was designed to claim *all* available bandwidth for a single
transfer (Dickens & Gropp).  A daemon multiplexing many transfers over
one NIC must instead divide a configured host budget between them, or
concurrent blasts self-induce the very loss the protocol then spends
retransmissions repairing.  The allocator applies classic water-filling
(:func:`repro.core.rate.max_min_allocation`): flows with small demands
(per-request rate caps) are satisfied exactly, and the surplus is split
evenly among the unconstrained flows.

Every admission, completion, or demand change calls
:meth:`BandwidthAllocator.reallocate`, which pushes the new share into
each transfer through its ``apply`` callback — in the DES backend and
the real daemon alike that is
:meth:`repro.core.sender.FobsSender.set_pacing_rate` (or, with
``--autotune``, the tuner's rate ceiling).  Pacing therefore
adapts *mid-transfer*: when one of four flows finishes, the remaining
three speed up on the next batch they assemble.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.core.rate import max_min_allocation


class _Flow:
    __slots__ = ("demand_bps", "apply", "share_bps")

    def __init__(
        self,
        demand_bps: Optional[float],
        apply: Callable[[Optional[float]], None],
    ):
        self.demand_bps = demand_bps
        self.apply = apply
        self.share_bps: Optional[float] = None


class BandwidthAllocator:
    """Divides ``budget_bps`` across registered flows, max-min fair.

    ``budget_bps=None`` means the host send rate is uncapped: every
    flow gets ``None`` (unpaced) unless it carries its own demand cap,
    which is then applied verbatim.
    """

    def __init__(self, budget_bps: Optional[float] = None):
        if budget_bps is not None and budget_bps <= 0:
            raise ValueError("budget_bps must be positive when set")
        self.budget_bps = budget_bps
        self._flows: dict[Hashable, _Flow] = {}
        #: Number of reallocation passes run (for stats/debugging).
        self.reallocations = 0

    def __len__(self) -> int:
        return len(self._flows)

    def register(
        self,
        key: Hashable,
        apply: Callable[[Optional[float]], None],
        demand_bps: Optional[float] = None,
    ) -> None:
        """Add a flow; ``apply(share_bps)`` re-feeds its pacing."""
        if key in self._flows:
            raise ValueError(f"flow {key!r} already registered")
        if demand_bps is not None and demand_bps <= 0:
            raise ValueError("demand_bps must be positive when set")
        self._flows[key] = _Flow(demand_bps, apply)

    def unregister(self, key: Hashable) -> None:
        self._flows.pop(key, None)

    def set_demand(self, key: Hashable, demand_bps: Optional[float]) -> None:
        """Update one flow's cap (takes effect at next reallocate)."""
        if demand_bps is not None and demand_bps <= 0:
            raise ValueError("demand_bps must be positive when set")
        self._flows[key].demand_bps = demand_bps

    def share(self, key: Hashable) -> Optional[float]:
        """Last share pushed to ``key`` (None = unpaced)."""
        return self._flows[key].share_bps

    def reallocate(self) -> dict[Hashable, Optional[float]]:
        """Recompute every share and push it through the callbacks."""
        self.reallocations += 1
        shares: dict[Hashable, Optional[float]] = {}
        if self.budget_bps is None:
            for key, flow in self._flows.items():
                shares[key] = flow.demand_bps
        elif self._flows:
            keys = list(self._flows)
            demands = [self._flows[k].demand_bps for k in keys]
            allocated = max_min_allocation(demands, self.budget_bps)
            for key, share in zip(keys, allocated):
                # A zero share would stall the flow forever; keep a
                # trickle so every admitted transfer makes progress.
                shares[key] = max(share, 1.0)
        for key, share in shares.items():
            flow = self._flows[key]
            if share != flow.share_bps:
                flow.share_bps = share
                flow.apply(share)
        return shares
