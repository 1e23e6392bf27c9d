"""``python -m repro analyze`` — online log-stream analytics CLI.

Two modes over the canned workloads (:mod:`repro.obs.workloads`):

* ``report`` — run the workload with an :class:`AnalyticsHub`
  installed and print (optionally JSON-dump) the final per-tap report:
  aggregate stats, the windowed WSS curve, the hottest pages, write
  rates, and the log-growth forecast.
* ``watch`` — same, but print a sample line each time the stream
  consumer advances past the throttle interval: the live working-set
  view the PML-style estimators provide.

The hub attaches automatically to every log the kernel binds while the
workload runs; taps use untimed functional reads, so the run is cycle-
and record-identical to an unwatched one.
"""

from __future__ import annotations

import argparse
import json

from repro import probe
from repro.analytics.stream import AnalyticsHub
from repro.analytics.core import DEFAULT_HEAT_HALF_LIFE, DEFAULT_WSS_WINDOW
from repro.obs.workloads import WORKLOADS, run_workload


def _summarise_curve(curve: list[int]) -> str:
    if not curve:
        return "(empty)"
    head = ",".join(str(v) for v in curve[:12])
    more = f" ... ({len(curve)} windows)" if len(curve) > 12 else ""
    return f"[{head}]{more}"


def run_analyzed(
    workload: str,
    window: int = DEFAULT_WSS_WINDOW,
    half_life: int = DEFAULT_HEAT_HALF_LIFE,
    on_sample=None,
) -> tuple[AnalyticsHub, dict]:
    """Run ``workload`` with an installed hub; returns (hub, summary)."""
    hub = AnalyticsHub(window=window, half_life=half_life)
    hub.on_sample = on_sample
    with probe.attached(hub):
        summary = run_workload(workload)
        # Catch up on anything appended after the last logger drain.
        hub.notify(summary["machine"].clock.now)
    return hub, summary


def _print_report(hub: AnalyticsHub, summary: dict, top: int) -> None:
    print(f"workload : {summary['workload']}")
    print(f"cycles   : {summary['cycles']}")
    print(f"consumed : {hub.records_consumed} records "
          f"across {len(hub.taps)} log(s)")
    if not hub.taps:
        print("no logged segments observed (this workload keeps its "
              "durable state in a WAL, not a hardware log)")
        return
    for tap in hub.taps:
        report = tap.report(top)
        stats = report["stats"]
        print(f"\n-- {report['name']} --")
        print(f"records        : {stats['record_count']} "
              f"({stats['bytes_logged']} log bytes, "
              f"{stats['data_bytes_written']} data bytes)")
        print(f"pages touched  : {stats['pages_touched']}")
        print(f"wss curve      : {_summarise_curve(report['wss_curve'])}")
        print(f"wss latest     : {report['wss_latest']} pages/window")
        print(f"write rate     : {report['write_rate_per_1k_ts']} "
              "records per 1k timestamp ticks (EWMA)")
        print(f"log growth     : {report['log_bytes_per_tick']} bytes/tick "
              f"(EWMA), {report['log_bytes_retained']} bytes retained")
        print(f"rewinds        : {report['rewinds']}")
        print("hottest pages  : "
              + ", ".join(f"page {e['page']} ({e['heat']})"
                          for e in report["heat_top"])
              if report["heat_top"] else "hottest pages  : (none)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Online log-stream analytics over canned workloads.",
    )
    parser.add_argument("mode", choices=("report", "watch"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WSS_WINDOW,
        help="working-set window in records (default %(default)s)",
    )
    parser.add_argument(
        "--half-life",
        type=int,
        default=DEFAULT_HEAT_HALF_LIFE,
        help="page-heat half life in timestamp ticks (default %(default)s)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=8,
        help="hottest pages to show (default %(default)s)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the full report as JSON (report mode)",
    )
    parser.add_argument(
        "--every",
        type=int,
        default=50_000,
        help="watch mode: minimum cycles between sample lines "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)

    on_sample = None
    if args.mode == "watch":
        state = {"next": 0}

        def on_sample(cycle: int, hub: AnalyticsHub) -> None:
            if cycle < state["next"]:
                return
            state["next"] = cycle + args.every
            parts = [f"[{cycle:>12} cyc]"]
            for tap in hub.taps:
                parts.append(
                    f"{tap.name}: {tap.stats.record_count} rec, "
                    f"wss={tap.wss.latest}, "
                    f"pages={tap.stats.pages_touched}"
                )
            print(" ".join(parts))

    hub, summary = run_analyzed(
        args.workload,
        window=args.window,
        half_life=args.half_life,
        on_sample=on_sample,
    )
    if args.mode == "watch":
        print()
    _print_report(hub, summary, args.top)

    if args.json:
        doc = hub.report(args.top)
        doc["workload"] = summary["workload"]
        doc["cycles"] = summary["cycles"]
        doc["wss_window"] = args.window
        doc["heat_half_life"] = args.half_life
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
