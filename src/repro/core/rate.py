"""Batch-size policies and rate-sharing primitives.

The batch policies implement the paper's phase 1/phase 2 feedback
loop: the sender decides how many packets to place on the network
before checking (without blocking) for an acknowledgement.  The
paper's experiments found a fixed batch of 2 best; the adaptive policy
implements the feedback rule the paper describes — use the number of
packets the receiver absorbed between consecutive ACKs to size the
next batch — for the ablation bench.

The multi-transfer server (:mod:`repro.server`) adds one primitive on
top: :func:`max_min_allocation`, the classic water-filling division of
one host's send-rate budget across concurrent transfers.  Each share
is applied through :meth:`repro.core.sender.FobsSender.set_pacing_rate`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence


class BatchPolicy(Protocol):
    def next_batch_size(self) -> int:
        """Packets to place on the network before the next ACK check."""
        ...

    def on_ack_progress(self, receiver_delta: int, interval: float) -> None:
        """Feedback: packets the receiver gained between two ACKs."""
        ...


class FixedBatchPolicy:
    """Constant batch size (the paper's evaluated configuration)."""

    def __init__(self, batch_size: int = 2):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def next_batch_size(self) -> int:
        return self.batch_size

    def on_ack_progress(self, receiver_delta: int, interval: float) -> None:
        del receiver_delta, interval


class AdaptiveBatchPolicy:
    """Match the batch size to the receiver's observed absorption rate.

    EWMA of the per-ACK progress delta, clamped to
    ``[min_batch, max_batch]``.  When the receiver keeps pace the batch
    grows (fewer ACK polls); when it falls behind — losses, a busy
    receiver — the batch shrinks back toward the paper's 2.
    """

    def __init__(self, min_batch: int = 1, max_batch: int = 64, alpha: float = 0.25):
        if not 1 <= min_batch <= max_batch:
            raise ValueError("require 1 <= min_batch <= max_batch")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.alpha = alpha
        self._estimate = float(min_batch)

    def next_batch_size(self) -> int:
        return int(max(self.min_batch, min(self.max_batch, round(self._estimate))))

    def on_ack_progress(self, receiver_delta: int, interval: float) -> None:
        del interval
        if receiver_delta < 0:
            raise ValueError("receiver_delta must be non-negative")
        self._estimate = (1 - self.alpha) * self._estimate + self.alpha * receiver_delta


def make_batch_policy(name: str, batch_size: int, max_batch_size: int) -> BatchPolicy:
    """Factory keyed by :attr:`FobsConfig.batch_policy`."""
    if name == "fixed":
        return FixedBatchPolicy(batch_size)
    if name == "adaptive":
        return AdaptiveBatchPolicy(min_batch=1, max_batch=max_batch_size)
    raise ValueError(f"unknown batch policy {name!r}")


# ----------------------------------------------------------------------
# Rate sharing (the multi-transfer server's bandwidth budget)
# ----------------------------------------------------------------------

def max_min_allocation(
    demands: Sequence[Optional[float]],
    capacity: float,
) -> list[float]:
    """Divide ``capacity`` across flows by max-min fairness.

    ``demands[i]`` is flow *i*'s demand ceiling in the same unit as
    ``capacity`` (bits/second for the server); ``None`` means
    unbounded.  Classic water-filling: repeatedly give every unsated
    flow an equal share of the remaining capacity; a flow whose demand
    is below its share keeps only its demand and releases the surplus
    to the others.  The result satisfies the max-min property — no
    flow's allocation can be raised without lowering that of a flow
    with an equal or smaller allocation.

    Total allocated is ``min(capacity, sum(demands))``; unbounded
    demands always exhaust the capacity.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    n = len(demands)
    allocation = [0.0] * n
    unsated = [i for i in range(n)
               if demands[i] is None or demands[i] > 0]
    remaining = float(capacity)
    while unsated and remaining > 1e-12:
        share = remaining / len(unsated)
        sated = [i for i in unsated
                 if demands[i] is not None and demands[i] <= share]
        if not sated:
            for i in unsated:
                allocation[i] += share
            break
        for i in sated:
            allocation[i] = float(demands[i])
            remaining -= float(demands[i])
            unsated.remove(i)
    return allocation
