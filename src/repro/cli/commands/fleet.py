"""The ``fleet`` sub-command: census inspection."""

from __future__ import annotations


def command_fleet_status(args) -> int:
    """Print the fleet census: replicas, lease ages, digest routing."""
    from repro.serving import FleetView

    view = FleetView(args.fleet_dir)
    status = view.status()
    if not status.replicas:
        print(f"fleet {view.fleet_dir}: no replicas (no lease files)")
        return 0
    print(status.summary())
    if args.metrics:
        from repro.obs.aggregate import fleet_metrics_report

        print()
        print(fleet_metrics_report(
            [(replica.replica_id, replica.base_url)
             for replica in status.live]))
    return 0


def configure(subparsers) -> None:
    fleet = subparsers.add_parser(
        "fleet", help="inspect a serving fleet's shared membership directory")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="print the replica census and digest routing table")
    fleet_status.add_argument("--fleet-dir", required=True, dest="fleet_dir",
                              metavar="DIR",
                              help="the membership directory the replicas "
                                   "share (their serve --fleet-dir)")
    fleet_status.add_argument("--metrics", action="store_true",
                              help="scrape every live replica's /metrics and "
                                   "print fleet-wide per-model latency "
                                   "quantiles (exact histogram merge)")
    fleet_status.set_defaults(func=command_fleet_status)
