"""repro.chaos — deterministic host-side fault injection + chaos harness.

``simnet.faults`` (PR 1) attacks the *network*; this package attacks
the *host*: torn writes, bit rot, EIO/ENOSPC at scheduled operations,
and crash-drop of unsynced pages, all replayable from a seed
(:mod:`repro.chaos.hostfaults`).  :mod:`repro.chaos.harness` composes
them with network faults and kill-anywhere crash injection and checks
the one invariant that matters: a transfer that reports success
delivered bytes identical to the source — never silent corruption.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".hostfaults": [
        "FaultyFile", "FaultyStore", "HostFaultSchedule", "HostFaultStats",
        "bit_rot", "disk_full_at", "torn_writes"],
    ".harness": ["ChaosResult", "ChaosScenario", "run_chaos_transfer"],
})
