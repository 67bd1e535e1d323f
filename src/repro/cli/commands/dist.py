"""The ``dist`` sub-commands: shard a sweep across machines through a
shared-filesystem queue (submit / work / status / merge)."""

from __future__ import annotations

import sys

from repro.cli.commands.shared import (
    add_preparation_cache_argument,
    add_sweep_grid_arguments,
    resolve_sweep_names,
    sweep_spec_from_args,
)


def command_dist_submit(args) -> int:
    """Expand a sweep into the distributed queue (idempotent)."""
    from repro.distributed import Coordinator
    from repro.exceptions import ConfigurationError

    methods, error = resolve_sweep_names(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    spec = sweep_spec_from_args(args, methods)
    try:
        report = Coordinator(args.dist_dir).submit(spec)
    except ConfigurationError as error:
        print(f"submit failed: {error}", file=sys.stderr)
        return 2
    print(f"spec {spec.digest()[:12]}: {spec.describe()}")
    print(report.summary())
    print(f"start workers with:  repro dist work --dist-dir {args.dist_dir}")
    return 0


def command_dist_work(args) -> int:
    """Run one worker loop against a queue until the sweep completes."""
    from repro.distributed import DistributedWorker
    from repro.exceptions import ConfigurationError

    worker = DistributedWorker(
        args.dist_dir, args.worker_id, lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval, max_groups=args.max_groups,
        wait_for_completion=not args.no_wait,
        preparation_cache=args.preparation_cache,
        max_attempts=args.max_attempts,
        log_stream=None if args.quiet else sys.stderr)
    try:
        report = worker.run()
    except ConfigurationError as error:
        print(f"worker failed to start: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    return 1 if report.groups_quarantined else 0


def command_dist_status(args) -> int:
    """Print the queue census: groups done/leased/expired, per-worker holds."""
    from repro.distributed import Coordinator
    from repro.exceptions import ConfigurationError

    coordinator = Coordinator(args.dist_dir)
    try:
        spec = coordinator.spec()
        status = coordinator.status()
    except ConfigurationError as error:
        print(f"status failed: {error}", file=sys.stderr)
        return 2
    print(f"spec {spec.digest()[:12]}: {spec.describe()}")
    print(status.summary())
    return 0


def command_dist_merge(args) -> int:
    """Merge completed shards into one deduplicated, fingerprint-checked store."""
    from repro.distributed import Coordinator

    coordinator = Coordinator(args.dist_dir)
    try:
        report = coordinator.merge(args.output or None,
                                   require_complete=not args.partial)
    except (RuntimeError, ValueError) as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0


def configure(subparsers) -> None:
    dist = subparsers.add_parser(
        "dist", help="shard a sweep across machines via a shared-filesystem queue")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)

    dist_submit = dist_sub.add_parser(
        "submit", help="expand a sweep spec into the queue (idempotent)")
    dist_submit.add_argument("--dist-dir", required=True, dest="dist_dir",
                             metavar="DIR", help="queue directory (shared filesystem)")
    add_sweep_grid_arguments(dist_submit)
    dist_submit.set_defaults(func=command_dist_submit)

    dist_work = dist_sub.add_parser(
        "work", help="claim and execute groups until the sweep completes")
    dist_work.add_argument("--dist-dir", required=True, dest="dist_dir", metavar="DIR")
    dist_work.add_argument("--worker-id", default=None, dest="worker_id",
                           help="stable worker identity (default: host-pid-nonce)")
    dist_work.add_argument("--lease-ttl", type=float, default=60.0, dest="lease_ttl",
                           help="seconds without a heartbeat before this worker's "
                                "claims may be re-leased by others")
    dist_work.add_argument("--poll-interval", type=float, default=0.5,
                           dest="poll_interval",
                           help="seconds between queue polls when nothing is claimable")
    dist_work.add_argument("--max-groups", type=int, default=None, dest="max_groups",
                           help="stop after completing this many groups")
    dist_work.add_argument("--max-attempts", type=int, default=3, dest="max_attempts",
                           help="failed executions of one group before it is "
                                "quarantined (moved out of the claimable set "
                                "with its traceback under failed/)")
    dist_work.add_argument("--no-wait", action="store_true", dest="no_wait",
                           help="exit when nothing is claimable instead of waiting "
                                "for the whole sweep to complete")
    dist_work.add_argument("--quiet", action="store_true",
                           help="suppress per-group progress lines on stderr")
    add_preparation_cache_argument(dist_work)
    dist_work.set_defaults(func=command_dist_work)

    dist_status = dist_sub.add_parser("status", help="print the queue census")
    dist_status.add_argument("--dist-dir", required=True, dest="dist_dir", metavar="DIR")
    dist_status.set_defaults(func=command_dist_status)

    dist_merge = dist_sub.add_parser(
        "merge", help="merge completed shards into one result store")
    dist_merge.add_argument("--dist-dir", required=True, dest="dist_dir", metavar="DIR")
    dist_merge.add_argument("--output", default=None,
                            help="merged JSONL path (default: DIR/merged.jsonl)")
    dist_merge.add_argument("--partial", action="store_true",
                            help="merge whatever shards exist instead of requiring "
                                 "a complete sweep")
    dist_merge.set_defaults(func=command_dist_merge)
