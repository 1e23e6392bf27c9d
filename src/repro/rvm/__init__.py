"""Recoverable virtual memory: the RVM baseline and RLVM (section 2.5).

:class:`RVM` is the Coda-style library with explicit ``set_range``
annotations; :class:`RLVM` replaces the annotations with LVM logged
regions.  Both share the RAM-disk write-ahead log and the TPC-A
benchmark harness used for Table 3.
"""

from repro.backends.ramdisk import RamDisk
from repro.rvm.rlvm import CONTROL_BYTES, RLVM, RLVMTransaction, RlvmSegment
from repro.rvm.rvm import (
    RVM,
    RecoverableSegment,
    SET_RANGE_CYCLES,
    Transaction,
)
from repro.rvm.tpca import TPCABenchmark, TPCAConfig, TPCAResult
from repro.rvm.wal import EntryKind, WalEntry, WriteAheadLog

__all__ = [
    "RamDisk",
    "CONTROL_BYTES",
    "RLVM",
    "RLVMTransaction",
    "RlvmSegment",
    "RVM",
    "RecoverableSegment",
    "SET_RANGE_CYCLES",
    "Transaction",
    "TPCABenchmark",
    "TPCAConfig",
    "TPCAResult",
    "EntryKind",
    "WalEntry",
    "WriteAheadLog",
]
