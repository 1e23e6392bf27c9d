"""Benchmark of the LVM simulator: host time and accuracy, end to end
and per layer.

Run one workload::

    python3 perfbench/run.py --workload tpca_rlvm --seed 1 --seconds 12 --trace 0

or every workload in turn with ``--workload all``.  The workloads are
described in ``perfbench/README.md``; the metric names, units and bounds
come from ``BENCHMARK.json`` at the repository root.

A run repeats set-up and timed phase until ``--seconds`` of host time
have been measured (and at least three repetitions and 1000 operations
taken), checks every repetition's outputs, and prints a table
of every metric with its median, spread (inter-quartile range over the
median, across repetitions) and sample count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from bare repetitions.
``--trace 1`` alternates bare and traced repetitions and reports the
per-layer metrics; the spans of the last traced repetition are written
to ``.perfbench/spans-<workload>.tsv.gz``.

Host times are scaled to a reference host speed: a fixed probe loop
(``hostspeed.py``) is timed between repetitions, and each repetition's
times are multiplied by the reference probe time over the probe time
measured around it.  Without this, the drift of a shared host's speed
over a minute is larger than the changes the bounds must catch.  The
report also prints the unscaled wall time.

Every repetition of one seed must reproduce every simulated counter and
model output bit for bit, traced or not; a mismatch, an output that
fails its check, or a span left open makes the run incorrect and the
exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench"

# The simulator under test is the one in this checkout.
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
from tracer import SpanTracer, instrument  # noqa: E402
from workloads import WORKLOADS, nearest_rank, table3_error_pct  # noqa: E402

MIN_REPS = 3
#: Operations per run: the p99 needs ten samples beyond it.
MIN_OP_SAMPLES = 1000


@dataclass
class Rep:
    """One repetition: set-up, timed phase, outcome."""

    traced: bool
    setup_ns: int
    wall_ns: int
    samples: list
    outcome: object
    summary: dict | None = None
    tracer: object = None
    extra: dict = field(default_factory=dict)
    #: reference host speed / host speed around this repetition
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.wall_ns * self.scale / 1e9

    @property
    def setup_s(self) -> float:
        return self.setup_ns * self.scale / 1e9

    def op_us(self) -> list[float]:
        """Host time of each operation, in reference microseconds."""
        return [ns * self.scale / 1e3 for ns in self.samples]


def one_rep(wl, seed: int, traced: bool) -> Rep:
    gc.collect()
    t0 = time.perf_counter_ns()
    state = wl.setup(seed)
    t1 = time.perf_counter_ns()
    tracer = SpanTracer() if traced else None
    with instrument(tracer) if traced else contextlib.nullcontext():
        t2 = time.perf_counter_ns()
        wl.run(state, tracer)
        t3 = time.perf_counter_ns()
    rep = Rep(traced, t1 - t0, t3 - t2, state["samples"], wl.finish(state))
    if traced:
        rep.tracer = tracer
        rep.summary = tracer.summary()
        rep.extra = {
            "logged_words": tracer.logged_words,
            "bulk_bytes": tracer.bulk_bytes,
            "requests": tracer.requests,
        }
    return rep


def measure(wl, seed: int, seconds: float, trace: bool) -> list[Rep]:
    reps: list[Rep] = []
    measured_ns = 0
    speed = hostspeed.HostSpeedProbe()
    probe = speed.probe_s()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = one_rep(wl, seed, traced)
        reps.append(rep)
        before, probe = probe, speed.probe_s()
        rep.scale = hostspeed.REFERENCE_S / ((before + probe) / 2)
        measured_ns += rep.setup_ns + rep.wall_ns
        bare = [r for r in reps if not r.traced]
        enough = (
            measured_ns >= seconds * 1e9
            and len(bare) >= MIN_REPS
            and (not trace or len(reps) - len(bare) >= MIN_REPS)
            and sum(len(r.samples) for r in bare) >= MIN_OP_SAMPLES
        )
        if enough:
            return reps


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def spread(values) -> float | None:
    """Inter-quartile range over the median, or None for < 2 values."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


@dataclass
class Row:
    name: str
    unit: str
    value: float
    per_rep: list = field(default_factory=list)
    n: int = 1

    @property
    def spread(self):
        return spread(self.per_rep)


def end_to_end_rows(wl, reps: list[Rep], seed: int) -> dict[str, Row]:
    bare = [r for r in reps if not r.traced]
    walls = [r.wall_s for r in bare]
    rates = [r.outcome.sim_cycles / r.wall_s for r in bare]
    setups = [r.setup_s for r in reps]
    ops = [us for r in bare for us in r.op_us()]
    if "model.tpca.sim_tps" in bare[0].outcome.model:
        tps = bare[0].outcome.model["model.tpca.sim_tps"]
    else:
        tps = table3_probe(WORKLOADS["tpca_rlvm"], seed)
    return {
        row.name: row
        for row in (
            Row("wall_s", "s", median(walls), walls, len(walls)),
            Row("sim_cycles_per_host_s", "cycles/s", median(rates), rates, len(rates)),
            Row("setup_s", "s", median(setups), setups, len(setups)),
            Row(
                "peak_rss_mb",
                "MiB",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ),
            Row(
                "op_host_us_p50",
                "us",
                nearest_rank(ops, 0.50),
                [nearest_rank(r.op_us(), 0.50) for r in bare],
                len(ops),
            ),
            Row(
                "op_host_us_p99",
                "us",
                nearest_rank(ops, 0.99),
                [nearest_rank(r.op_us(), 0.99) for r in bare],
                len(ops),
            ),
            Row("table3_tps_error_pct", "%", table3_error_pct(tps)),
        )
    }


def table3_probe(tpca, seed: int) -> float:
    """Simulated RLVM TPC-A rate at ``seed``, outside any timed phase.

    Only ``tpca_rlvm`` runs the Table 3 configuration; every other
    workload runs it once untimed so that each run reports the model's
    error against the one numeric reference the paper gives.
    """
    rep = one_rep(tpca, seed, traced=False)
    if rep.outcome.failed:
        raise RuntimeError("the Table 3 reference run failed its correctness check")
    return rep.outcome.model["model.tpca.sim_tps"]


#: Host self time per layer: metric -> span name.
LAYER_SPANS = {
    "hw.host_self_s": "hw",
    "core.word.host_self_s": "core.word",
    "core.bulk.host_self_s": "core.bulk",
    "timewarp.saver.host_self_s": "timewarp.saver",
    "timewarp.host_self_s": "timewarp.run",
    "rvm.begin.host_self_s": "rvm.begin",
    "rvm.txn_ops.host_self_s": "rvm.txn_ops",
    "rvm.commit.host_self_s": "rvm.commit",
    "rvm.flush.host_self_s": "rvm.flush",
    "rvm.truncate.host_self_s": "rvm.truncate",
    "backends.write.host_self_s": "backends.write",
    "backends.flush.host_self_s": "backends.flush",
    "backends.barrier.host_self_s": "backends.barrier",
    "serve.host_self_s": "serve.run",
}

CALL_COUNTS = {
    "core.word.calls": "core.word",
    "core.bulk.calls": "core.bulk",
    "timewarp.saver.calls": "timewarp.saver",
}

#: Exact hardware counters, read from ``snapshot_machine`` after the run.
GAUGES = (
    "hw.bus.transactions",
    "hw.bus.busy_cycles",
    "hw.logger.records_logged",
    "hw.logger.overload_events",
    "hw.logger.logging_faults",
    "hw.logger.fifo_high_water",
    "hw.cpu.write_buffer_stalls",
    "hw.cpu.suspend_cycles",
    "kernel.page_faults",
    "kernel.logging_faults",
)


#: Per-layer metrics and model outputs the workloads report directly.
WORKLOAD_REPORTED = (
    "timewarp.events_committed",
    "timewarp.rollbacks",
    "rvm.txns",
    "rvm.wal.appends",
    "backends.write_ops",
    "backends.flush_ops",
    "backends.barrier_ops",
    "backends.bytes_written",
    "backends.writes_per_flush",
    "serve.acks_per_batch",
    *(f"serve.stage.{stage}_cycles" for stage in (
        "queue_wait", "library", "wal_append", "device", "barrier", "group_commit_wait"
    )),
    "model.sim_cycles",
    "model.timewarp.lvm_speedup",
    "model.tpca.sim_tps",
    "model.tpca.in_txn_fraction",
    "model.serve.commit_cycles_p50",
    "model.serve.commit_cycles_p99",
)


def per_layer_rows(reps: list[Rep], units: dict[str, str]) -> dict[str, Row]:
    bare = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    last = traced[-1]
    rows: dict[str, Row] = {}

    def add(name, per_rep):
        # median_low: a count stays an observed count
        rows[name] = Row(name, units[name], median_low(per_rep), per_rep, len(per_rep))

    for metric, span in LAYER_SPANS.items():
        add(metric, [r.summary["self_ns"][span] * r.scale / 1e9 for r in traced])
    for metric, span in CALL_COUNTS.items():
        add(metric, [r.summary["calls"][span] for r in traced])
    add(
        "hw.host_ns_per_logged_word",
        [_ratio(r.summary["self_ns"]["hw"] * r.scale, r.extra["logged_words"]) for r in traced],
    )
    add("core.bulk.bytes", [r.extra["bulk_bytes"] for r in traced])
    add(
        "core.bulk.host_ns_per_word",
        [
            _ratio(r.summary["self_ns"]["core.bulk"] * r.scale, r.extra["bulk_bytes"] / 4)
            for r in traced
        ],
    )
    add("serve.requests", [r.extra["requests"] for r in traced])
    for name in GAUGES:
        add(name, [r.outcome.gauges[name] for r in reps])
    # What the workload reports itself; a layer or model output the
    # workload does not exercise reads 0.
    known = {**last.outcome.model, **last.outcome.layer}
    for name in WORKLOAD_REPORTED:
        add(name, [known.get(name, 0)])
    bare_wall = median([r.wall_s for r in bare])
    add("bench.trace_overhead_ratio", [r.wall_s / bare_wall for r in traced])
    add(
        "bench.unattributed_share",
        [(r.wall_ns - r.summary["root_total_ns"]) / r.wall_ns for r in traced],
    )
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    add("bench.failed_op_ratio", [failed / attempted])
    return rows


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Verification, report, entry point
# ----------------------------------------------------------------------
def verify(reps: list[Rep]) -> list[str]:
    """Problems that make the run incorrect besides failed operations."""
    problems = []
    digests = {r.outcome.digest() for r in reps}
    if len(digests) != 1:
        problems.append(f"simulated outputs differ between repetitions: {sorted(digests)}")
    traced = [r for r in reps if r.traced]
    if len({repr(r.summary["calls"]) for r in traced}) > 1:
        problems.append("span counts differ between traced repetitions")
    for r in traced:
        s = r.summary
        if s["self_total_ns"] != s["root_total_ns"] or s["root_total_ns"] > r.wall_ns:
            problems.append(
                f"span accounting: self {s['self_total_ns']} ns, roots "
                f"{s['root_total_ns']} ns, wall {r.wall_ns} ns"
            )
    return problems


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(wl, rows: dict[str, Row], reps: list[Rep], problems: list[str]) -> None:
    bare = sum(not r.traced for r in reps)
    print(
        f"== {wl.name}: {len(reps)} repetitions ({bare} bare, {len(reps) - bare} traced); "
        f"operation = {wl.op}"
    )
    print(f"   digest of simulated outputs: {reps[0].outcome.digest()}")
    scale = median(r.scale for r in reps)
    raw_wall = median(r.wall_ns for r in reps if not r.traced) / 1e9
    print(
        f"   host speed: reference / measured = {scale:.3f} (median); "
        f"unscaled wall_s median {raw_wall:.4f} s"
    )
    print(f"   {'metric':<34} {'unit':<9} {'median':>14} {'spread':>8} {'n':>7}")
    for row in rows.values():
        sp = row.spread
        sp = "-" if sp is None else f"{sp:.1%}"
        print(f"   {row.name:<34} {row.unit:<9} {_fmt(row.value):>14} {sp:>8} {row.n:>7}")
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    print(f"   operations failed / attempted: {failed} / {attempted}")
    for problem in problems:
        print(f"   INCORRECT: {problem}")


def print_layer_shares(traced: list[Rep]) -> None:
    """Each layer's self time as a share of the traced wall time."""
    per_rep = []
    for r in traced:
        share: dict[str, float] = {}
        for span, ns in r.summary["self_ns"].items():
            layer = span.split(".")[0]
            share[layer] = share.get(layer, 0.0) + ns / r.wall_ns
        share["unattributed"] = 1 - sum(share.values())
        per_rep.append(share)
    parts = (f"{layer} {median(s[layer] for s in per_rep):.1%}" for layer in per_rep[0])
    print(f"   share of traced wall time: {', '.join(parts)}")


def run_workload(wl, seed: int, seconds: float, trace: bool, bench: dict):
    """Measure one workload; returns (correct, attempted, failed, rows)."""
    reps = measure(wl, seed, seconds, trace)
    problems = verify(reps)
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        rows = per_layer_rows(reps, units)
    else:
        rows = end_to_end_rows(wl, reps, seed)
    report(wl, rows, reps, problems)
    if trace:
        traced = [r for r in reps if r.traced]
        print_layer_shares(traced)
        SPAN_DIR.mkdir(exist_ok=True)
        traced[-1].tracer.write(SPAN_DIR / f"spans-{wl.name}.tsv.gz")
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    return not problems and failed == 0, attempted, failed, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        selected = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        selected = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    bench = load_benchmark()
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for wl in selected:
        ok, att, fail, rows = run_workload(wl, args.seed, args.seconds, bool(args.trace), bench)
        correct &= ok
        attempted += att
        failed += fail
        prefix = "" if len(selected) == 1 else f"{wl.name}."
        for m in wanted:
            row = rows[m["name"]]
            metrics[prefix + row.name] = {"value": row.value, "unit": row.unit}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
