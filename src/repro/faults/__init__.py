"""Deterministic fault injection and crash-consistency checking.

See :mod:`repro.faults.plan` for the injection machinery,
:mod:`repro.faults.checker` for the ACID verifier, and
:mod:`repro.faults.sweep` for the exhaustive crash-sweep driver
(``python -m repro.faults.sweep``).
"""

from repro.faults.plan import (
    SITE_DISK_WRITE,
    SITE_FIFO_PUSH,
    CrashPoint,
    CrashSpec,
    FaultPlan,
)

_LAZY = {
    # checker / sweep import the rvm stack, which imports plan; load
    # them on first use to keep the package import acyclic.
    "CrashCheckFailure": "checker",
    "CrashConsistencyChecker": "checker",
    "DurableSnapshot": "checker",
    "RecoveredState": "checker",
    "SegmentImage": "checker",
    "WorkloadOracle": "checker",
    "capture_snapshot": "checker",
    "recover": "checker",
    "DEFAULT_SCRIPT": "sweep",
    "SweepReport": "sweep",
    "check_run": "sweep",
    "enumerate_crash_specs": "sweep",
    "run_script": "sweep",
    "sweep": "sweep",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "SITE_DISK_WRITE",
    "SITE_FIFO_PUSH",
    "CrashPoint",
    "CrashSpec",
    "FaultPlan",
    *sorted(_LAZY),
]
