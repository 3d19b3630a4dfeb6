"""``repro.dataset``: manifest-driven whole-tree transfers.

The object protocol (:mod:`repro.core`) moves one object well; this
package moves a *directory tree* well.  Four pieces, each its own
module:

* :mod:`~repro.dataset.manifest` — a deterministic scan of the tree
  into a :class:`DatasetManifest`: every file's size, mtime and
  per-chunk digests (the same digests the VERIFY path uses), with a
  CRC-protected binary codec and a canonical JSON form, keyed by a
  content-derived 64-bit ``dataset_id``.
* :mod:`~repro.dataset.packing` — the planner/packer: small files
  coalesce into packed objects (amortizing per-session overhead across
  thousands of tiny files), huge files stripe into fixed-size chunk
  objects, and every object is self-describing on the wire (framing +
  per-member digests + trailing CRC).
* :mod:`~repro.dataset.scheduler` — layout-aware ordering: stripes go
  in ascending offset order per destination file while the scheduler
  round-robins across files and spindles, so the receiver writes
  sequentially everywhere at once.
* :mod:`~repro.dataset.journal` + :mod:`~repro.dataset.sync` —
  dataset-level crash resume: an append-only done-log (data-before-log,
  audit-on-resume, durable demotion) under :func:`sync_tree`, which
  drives the whole pipeline over an in-process or real-socket
  transport.  :mod:`~repro.dataset.sim` is the DES backend.

CLI: ``repro sync <src-tree> <dest>``.  Docs: ``docs/DATASET.md``.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".journal": [
        "DatasetJournal", "DatasetJournalCorrupt", "DatasetJournalHeader",
        "DatasetReplay", "replay_dataset_journal"],
    ".manifest": [
        "DEFAULT_CHUNK_SIZE", "DatasetManifest", "DatasetManifestCorrupt",
        "FileEntry", "iter_tree", "manifest_from_files", "scan_tree"],
    ".packing": [
        "KIND_PACKED", "KIND_STRIPE", "KIND_WHOLE", "ObjectMember",
        "PackCorrupt", "PackingConfig", "PlannedObject", "TransferPlan",
        "UnpackedMember", "pack_object", "plan_objects", "unpack_object",
        "verify_members_against_manifest"],
    ".scheduler": [
        "SCHEDULER_POLICIES", "SchedulerConfig", "default_spindle",
        "lane_count", "schedule", "sequential_write_fraction"],
    ".sim": [
        "DatasetSimResult", "run_sim_dataset", "run_sim_naive",
        "run_sim_resume"],
    ".sync": [
        "JOURNAL_NAME", "DatasetSyncResult", "LocalTransport",
        "LoopbackTransport", "TransportReceipt", "TreeSpec", "mixed_tree_spec",
        "sync_tree", "trees_equal"],
})
