"""Golden tests for the generated fault-site registry.

``repro/faults/sites.py`` is generated from the code by
``python -m repro lint --regen-sites``; these tests pin the contract
from both sides:

* the committed registry is byte-identical to a fresh sweep of the
  source tree (no drift, no orphans, no hand edits);
* every registered site is exercised — hit at least once — by a
  deterministic workload in this suite, and referenced literally by at
  least one test file, so a site can never rot into a string that no
  crash test can reach.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import probe
from repro.faults.plan import FaultPlan
from repro.faults.sites import ALL_SITES, SITES
from repro.sanitize.sitegen import render, sweep_sites

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
TESTS_DIR = REPO_ROOT / "tests"

#: Sites hit by one trigger-less count pass over the canonical crash
#: sweep script on the RLVM backend (RVM covers a strict subset: it
#: uses no hardware logger, so fifo.push / logger.dma never fire).
RLVM_SWEEP_SITES = (
    "backend.barrier",
    "backend.flush",
    "fifo.push",
    "logger.dma",
    "ramdisk.write",
    "rvm.abort",
    "rvm.commit.begin",
    "rvm.commit.buffered",
    "rvm.commit.durable",
    "rvm.commit.log",
    "rvm.flush",
    "rvm.truncate.applied",
    "rvm.truncate.apply",
    "rvm.truncate.begin",
    "wal.append",
    "wal.append_group",
    "wal.reset",
)


class TestRegistryMatchesCode:
    def test_committed_registry_is_regeneration_identical(self):
        committed = (SRC_REPRO / "faults" / "sites.py").read_text()
        regenerated = render(sweep_sites(SRC_REPRO))
        assert committed == regenerated, (
            "repro/faults/sites.py is stale; run "
            "`python -m repro lint --regen-sites`"
        )

    def test_registry_files_exist(self):
        for site, files in SITES.items():
            for rel in files:
                assert (REPO_ROOT / "src" / rel).is_file(), (site, rel)

    def test_all_sites_mirror(self):
        assert ALL_SITES == frozenset(SITES)

    def test_cross_library_duplicates_are_the_rvm_pair(self):
        # Sites declared in more than one file must be exactly the
        # shared rvm/rlvm durability protocol — anything else is an
        # accidental name collision.
        for site, files in SITES.items():
            if len(files) > 1:
                assert files == ("repro/rvm/rlvm.py", "repro/rvm/rvm.py"), (
                    site,
                    files,
                )


class TestEverySiteIsExercised:
    @pytest.fixture(scope="class")
    def rlvm_counts(self):
        from repro.faults.sweep import DEFAULT_SCRIPT, run_script
        from repro.rvm.rlvm import RLVM

        plan = FaultPlan(seed=0)
        run_script(RLVM, DEFAULT_SCRIPT, plan)
        return plan.counts

    @pytest.mark.parametrize("site", RLVM_SWEEP_SITES)
    def test_sweep_script_reaches(self, site, rlvm_counts):
        assert rlvm_counts[site] >= 1, site

    def test_timewarp_rollback_restore_reached(self):
        from repro.obs.workloads import run_timewarp

        plan = FaultPlan(seed=0)
        with probe.attached(plan):
            run_timewarp()
        assert plan.counts["timewarp.rollback.restore"] >= 1

    def test_logger_overload_reached(self):
        from repro.obs.workloads import run_copy

        plan = FaultPlan(seed=0)
        with probe.attached(plan):
            run_copy()
        assert plan.counts["logger.overload"] >= 1

    def test_replay_sites_reached(self, machine, proc):
        from repro.replay.engine import ReplayEngine

        from conftest import make_logged_region

        region, _log, va = make_logged_region(machine)
        engine = ReplayEngine(region, checkpoint_interval=4)
        plan = FaultPlan(seed=0)
        with probe.attached(plan):
            for i in range(8):
                proc.write(va + 4 * i, i)
            engine.state_at(len(engine))
        assert plan.counts["replay.checkpoint"] >= 1
        assert plan.counts["replay.restore"] == 1

    def test_analytics_rebuild_reached(self, machine, proc):
        from repro.analytics.stream import rebuild_tap

        from conftest import make_logged_region

        _region, log, va = make_logged_region(machine)
        for i in range(8):
            proc.write(va + 4 * i, i)
        machine.quiesce()
        plan = FaultPlan(seed=0)
        with probe.attached(plan):
            tap = rebuild_tap(log, cycle=machine.clock.now)
        assert plan.counts["analytics.rebuild"] == 1
        assert tap.stats.record_count == 8

    def test_fifo_overflow_reached(self):
        from repro.hw.fifo import HardwareFifo, PushResult

        plan = FaultPlan(seed=0)
        with probe.attached(plan):
            fifo = HardwareFifo(capacity=1)
            assert fifo.push(0, "a") is PushResult.OK
            assert fifo.push(0, "b") is PushResult.OVERFLOW
        assert plan.counts["fifo.overflow"] == 1

    def test_exercise_lists_cover_the_whole_registry(self):
        exercised = set(RLVM_SWEEP_SITES) | {
            "timewarp.rollback.restore",
            "logger.overload",
            "fifo.overflow",
            "replay.checkpoint",
            "replay.restore",
            "analytics.rebuild",
        }
        assert exercised == set(ALL_SITES), (
            "registry and exercise tests drifted apart: "
            f"unexercised={sorted(set(ALL_SITES) - exercised)} "
            f"stale={sorted(exercised - set(ALL_SITES))}"
        )

    def test_each_site_appears_literally_in_some_test(self):
        sources = [p.read_text() for p in TESTS_DIR.rglob("test_*.py")]
        for site in sorted(ALL_SITES):
            assert any(f'"{site}"' in text or f"'{site}'" in text for text in sources), (
                f"no test references fault site {site!r}"
            )
