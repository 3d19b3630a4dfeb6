#!/usr/bin/env python
"""FOBS over real sockets: the sans-IO core on localhost.

The protocol state machines in ``repro.core`` are IO-agnostic; this
example drives them with genuine UDP/TCP sockets on one thread,
transfers a checksummed object, then repeats with 5% of the data
datagrams deliberately discarded to show retransmission recovering the
object byte-for-byte.  (Loopback + Python means the throughput here
says nothing about line rate — correctness is the point.)

Run:  python examples/real_sockets_loopback.py
"""

from repro.core import FobsConfig
from repro.runtime import run_loopback_transfer


def report(label: str, res) -> None:
    print(f"{label}:")
    print(f"  {res.nbytes / 1e6:.1f} MB in {res.duration:.3f} s "
          f"({res.throughput_bps / 1e6:.0f} Mb/s on loopback)")
    print(f"  checksum ok: {res.checksum_ok}")
    print(f"  packets sent {res.packets_sent}, retransmitted "
          f"{res.packets_retransmitted}, acks {res.acks_sent}, "
          f"waste {100 * res.wasted_fraction:.1f}%")


def main() -> None:
    config = FobsConfig(packet_size=1024, ack_frequency=32)

    res = run_loopback_transfer(2_000_000, config=config)
    report("Clean loopback", res)
    assert res.checksum_ok

    print()
    res = run_loopback_transfer(2_000_000, config=config,
                                drop_rate=0.05, seed=7)
    report("Loopback with 5% injected datagram loss", res)
    assert res.checksum_ok
    print("\nThe object survived the loss intact — the bitmap "
          "selective-ACK machinery recovered every missing packet.")


if __name__ == "__main__":
    main()
