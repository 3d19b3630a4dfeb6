"""repro.server — the concurrent multi-transfer daemon.

FOBS (the paper) moves *one* object between *two* processes as fast as
the path allows.  This package turns that point-to-point engine into a
service: one daemon process serving many clients concurrently, with

* **shared-socket demux** — every transfer's datagrams ride one UDP
  socket, routed by the resumable-session extension
  (:mod:`repro.server.registry`);
* **admission control** — a max-active limit, a bounded FIFO wait
  queue, per-client caps, and explicit QUEUED/REJECT control replies
  (:mod:`repro.server.admission`);
* **max-min bandwidth sharing** — a host send budget divided by
  water-filling and re-fed into each sender's pacing live
  (:mod:`repro.server.allocator`);
* **graceful drain** — SIGTERM stops admissions and lets active
  transfers finish (:mod:`repro.server.daemon`).

Three backends: the deterministic DES harness
(:mod:`repro.server.sim`), the real-socket daemon
(:class:`~repro.server.daemon.ObjectServer`, the ``repro serve`` CLI)
and its fetch client (:func:`~repro.server.client.fetch_file`,
``repro fetch``).  Each transfer remains individually crash-resumable
through the PR-2 journal/RESUME machinery.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".admission": [
        "AdmissionController", "AdmissionCounters", "AdmissionDecision"],
    ".allocator": ["BandwidthAllocator"],
    ".client": ["default_client_nonce", "fetch_endpoint", "fetch_file"],
    ".daemon": ["ObjectServer", "serve_root"],
    ".registry": [
        "RECEIVING", "SENDING", "RegisteredTransfer", "RegistryCounters",
        "TransferRegistry"],
    ".sim": [
        "AdmissionEvent", "SimObjectServer", "SimServerResult",
        "SimTransferSpec", "run_sim_server"],
    ".stats": ["ServerSnapshot", "TransferSnapshot"],
})
