"""``fobs-xfer`` — transfer a file between two processes with FOBS.

Receiver (run first):

    fobs-xfer recv --port 9000 --output incoming.bin

Sender:

    fobs-xfer send big.dat --host 127.0.0.1 --port 9000

The data plane is the paper's protocol over real UDP sockets; the
control plane is one TCP connection (offer/accept + completion).

Crash-resumable sessions: pass ``--resume`` (and usually
``--max-attempts N``) on both ends.  The receiver journals progress
next to the output file and keeps listening across failed attempts;
the sender retries with exponential backoff, resuming from the
receiver's RESUME bitmap instead of restarting at byte zero.

``fobs-xfer loopback`` runs a single-process loopback transfer (both
endpoints on one thread, real sockets) for smoke-testing a host's UDP
path; it exits nonzero with the failure diagnosis when the transfer
does not complete.

Output discipline (shared with the ``repro`` CLI): exactly one
machine-readable ``key=value`` result line goes to **stdout** on
success; all human-facing progress and every failure diagnosis go to
**stderr**.  ``--quiet`` suppresses the progress chatter but never the
stdout result line or a failure message, and a failed transfer always
exits nonzero — scripts can pipe stdout and trust the exit code.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.config import FobsConfig
from repro.runtime.files import receive_file, send_file


def info(args: argparse.Namespace, message: str) -> None:
    """Human-facing progress line: stderr, silenced by ``--quiet``."""
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _add_hardening_flags(sub: argparse.ArgumentParser) -> None:
    """Stall/recovery knobs shared by every subcommand."""
    sub.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="no-ACK-progress interval before the sender probes (PR 1 "
             "hardening knob)")
    sub.add_argument(
        "--stall-abort-after", type=float, default=None, metavar="SECONDS",
        help="total stalled time before the transfer aborts with a "
             "diagnosis")
    sub.add_argument(
        "--no-checksum", action="store_true",
        help="disable per-packet CRC32 (byte-identical legacy wire "
             "format; corrupted payloads go undetected)")
    sub.add_argument(
        "--resume", action="store_true",
        help="negotiate a crash-resumable session (journal + RESUME "
             "handshake)")
    sub.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help="retry/re-listen budget; >1 implies --resume")
    sub.add_argument(
        "--journal-path", default=None, metavar="PATH",
        help="receiver write-ahead journal location (default: "
             "OUTPUT.journal; accepted on every subcommand so both "
             "ends can share one flag set)")
    sub.add_argument(
        "--quiet", action="store_true",
        help="suppress progress output on stderr (the stdout result "
             "line and failure diagnoses still print)")


def _config_from(args: argparse.Namespace, **extra) -> FobsConfig:
    kwargs = dict(extra)
    kwargs["checksum"] = not args.no_checksum
    if args.stall_timeout is not None:
        kwargs["stall_timeout"] = args.stall_timeout
    if args.stall_abort_after is not None:
        kwargs["stall_abort_after"] = args.stall_abort_after
    return FobsConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fobs-xfer", description="FOBS file transfer over real sockets."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    send = sub.add_parser("send", help="send a file to a listening receiver")
    send.add_argument("path")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, required=True)
    send.add_argument("--packet-size", type=int, default=1024)
    send.add_argument("--ack-frequency", type=int, default=32)
    send.add_argument("--timeout", type=float, default=120.0)
    send.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="record protocol events to a JSONL file (replay with "
             "'repro timeline PATH')")
    _add_hardening_flags(send)

    recv = sub.add_parser("recv", help="receive one file")
    recv.add_argument("--port", type=int, required=True)
    recv.add_argument("--output", required=True)
    recv.add_argument("--bind", default="0.0.0.0")
    recv.add_argument("--timeout", type=float, default=120.0)
    _add_hardening_flags(recv)

    loop = sub.add_parser(
        "loopback",
        help="single-process loopback smoke test (exits nonzero on a "
             "failed transfer)")
    loop.add_argument("--nbytes", type=int, default=1_000_000)
    loop.add_argument("--packet-size", type=int, default=1024)
    loop.add_argument("--ack-frequency", type=int, default=32)
    loop.add_argument("--timeout", type=float, default=60.0)
    loop.add_argument("--drop-rate", type=float, default=0.0,
                      help="fraction of data datagrams to discard")
    loop.add_argument("--blackhole-acks", action="store_true",
                      help="silence the ACK path (forces a stall abort)")
    loop.add_argument("--seed", type=int, default=0)
    _add_hardening_flags(loop)
    return parser


def _cmd_send(args: argparse.Namespace) -> int:
    config = _config_from(args, packet_size=args.packet_size,
                          ack_frequency=args.ack_frequency)
    bus = None
    if args.telemetry_out:
        from repro.telemetry import EventBus, JsonlSink

        bus = EventBus(sinks=[JsonlSink(args.telemetry_out,
                                        producer="fobs-xfer")])
    try:
        result = send_file(args.path, args.host, args.port,
                           config=config, timeout=args.timeout,
                           resume=args.resume, max_attempts=args.max_attempts,
                           telemetry=bus)
    except (TimeoutError, ConnectionError, OSError) as exc:
        print(f"send FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if bus is not None:
            bus.close()
            info(args, f"telemetry recorded to {args.telemetry_out}")
    if not result.completed:
        print(f"send FAILED after {result.attempts} attempt(s): "
              f"{result.failure_reason}", file=sys.stderr)
        return 1
    info(args, f"sent {result.nbytes} bytes in {result.duration:.3f}s "
               f"({result.throughput_bps / 1e6:.1f} Mb/s)")
    print(f"send ok nbytes={result.nbytes} duration_s={result.duration:.3f} "
          f"throughput_mbps={result.throughput_bps / 1e6:.2f} "
          f"retransmissions={result.packets_retransmitted} "
          f"attempts={result.attempts} "
          f"resumed_packets={result.resumed_packets}")
    return 0


def _cmd_recv(args: argparse.Namespace) -> int:
    config = _config_from(args, ack_frequency=32)
    try:
        result = receive_file(args.output, args.port, bind=args.bind,
                              timeout=args.timeout,
                              max_attempts=max(args.max_attempts,
                                               2 if args.resume else 1),
                              journal_path=args.journal_path,
                              config=config)
    except (TimeoutError, ConnectionError, ValueError, OSError) as exc:
        print(f"receive FAILED: {exc}", file=sys.stderr)
        return 1
    if not result.completed or not result.crc_ok:
        print(f"receive FAILED after {result.attempts} attempt(s): "
              f"{result.failure_reason or 'CRC mismatch'}", file=sys.stderr)
        return 1
    info(args, f"received {result.nbytes} bytes -> {result.path}")
    print(f"recv ok nbytes={result.nbytes} path={result.path} crc=ok "
          f"attempts={result.attempts} "
          f"resumed_packets={result.resumed_packets}")
    return 0


def _cmd_loopback(args: argparse.Namespace) -> int:
    from repro.runtime.transfer import run_loopback_transfer

    config = _config_from(args, packet_size=args.packet_size,
                          ack_frequency=args.ack_frequency)
    try:
        result = run_loopback_transfer(
            nbytes=args.nbytes, config=config, drop_rate=args.drop_rate,
            blackhole_acks=args.blackhole_acks, seed=args.seed,
            timeout=args.timeout)
    except TimeoutError as exc:
        # The harness itself gave up — distinct from a protocol-level
        # abort, which returns a diagnosed result below.
        print(f"loopback FAILED: timed_out=True ({exc})", file=sys.stderr)
        return 1
    if not result.completed or not result.checksum_ok:
        reason = result.failure_reason or "checksum mismatch"
        print(f"loopback FAILED: timed_out=False failure_reason={reason!r}",
              file=sys.stderr)
        return 1
    info(args, f"loopback transfer of {result.nbytes} bytes completed in "
               f"{result.duration:.3f}s")
    print(f"loopback ok nbytes={result.nbytes} "
          f"duration_s={result.duration:.3f} "
          f"throughput_mbps={result.throughput_bps / 1e6:.2f} "
          f"retransmissions={result.packets_retransmitted} "
          f"stall_recoveries={result.stall_recoveries}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "send":
        return _cmd_send(args)
    if args.command == "recv":
        return _cmd_recv(args)
    return _cmd_loopback(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
