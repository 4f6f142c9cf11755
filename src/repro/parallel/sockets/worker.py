"""CLI for sockets workers started by hand.

Each worker is one *rank* of the paper's decomposition on a real OS
process reached only through TCP.  The engine spawns them on loopback
itself; with ``spawn="external"`` they are started on another terminal
(or, tomorrow, another host) with::

    python -m repro.parallel.sockets.worker --host H --port P --token T

and run the same :func:`repro.parallel.rankwork.worker_main` a spawned
worker runs, except that the :class:`~repro.core.plans.SigmaPlan` (the
paper's replicated coupling tables) arrives once over the control channel
instead of through the spawn args.
"""

from __future__ import annotations

from ..rankwork import worker_main
from .coordinator import SocketCommSpec
from .transport import SocketLink

__all__ = ["main"]


def main(argv=None) -> int:
    """CLI for external (second-terminal / remote) workers."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.sockets.worker",
        description="join a sockets-backend coordinator as one sigma worker "
        "(the SigmaPlan arrives over the wire)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument(
        "--rank", type=int, default=None,
        help="explicit rank (default: coordinator assigns join order)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    spec = SocketCommSpec(
        host=args.host,
        port=args.port,
        token=args.token,
        n_ranks=0,  # informational client-side; the payload carries n_workers
        timeout=args.timeout,
    )
    worker_main(args.rank, SocketLink(spec), None)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
