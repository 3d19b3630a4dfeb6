"""Run one small DES job and print its outcome and wall time as JSON.

``workloads.py`` runs this file in a subprocess with
``REPRO_PURE_PYTHON=1`` (the engine is chosen at import, so it cannot
be switched in-process) and runs :func:`reference_job` itself on the
default engine: the two outcomes must be equal, and the two walls give
``simnet.engine.c_over_python_speedup``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def reference_job(kind: str, seed: int, tiny: bool) -> dict:
    """A seconds-sized job on the same code path as the workload ``kind``.

    Imports and one small warm-up run stay outside the timed region, so
    the wall compares engines, not interpreter start-up.
    """
    import repro
    from repro.core import FobsConfig, run_fobs_transfer
    from repro.loadtest import run_scenario
    from repro.simnet import engine

    if kind == "des_fleet":
        run_scenario("smoke", seed=seed, clients=4)
        t0 = time.perf_counter()
        run = run_scenario("smoke", seed=seed, clients=8 if tiny else None)
        wall = time.perf_counter() - t0
        outcome = hashlib.sha256(run.render().encode()).hexdigest()
    else:
        small = FobsConfig(packet_size=1024, ack_frequency=64)
        big = FobsConfig(packet_size=32768, ack_frequency=16)
        run_fobs_transfer(repro.short_haul(seed=seed), 200_000, small)
        outcome = []
        t0 = time.perf_counter()
        for make, nbytes, config in (
                (repro.short_haul, 400_000 if tiny else 8_000_000, small),
                (repro.gigabit_path, 400_000 if tiny else 40_000_000, big)):
            stats = run_fobs_transfer(make(seed=seed), nbytes, config)
            outcome.append([stats.completed, stats.duration,
                            stats.packets_sent, stats.retransmissions,
                            stats.wasted_fraction])
        wall = time.perf_counter() - t0
    return {"outcome": outcome, "wall_s": wall,
            "c_engine": getattr(engine, "_evloop", None) is not None}


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    harness.bootstrap()
    print(json.dumps(reference_job(sys.argv[1], int(sys.argv[2]),
                                   sys.argv[3] == "1")))
