"""A memory-mapped object database on recoverable logged memory.

The paper's opening application (section 1): "Object-oriented database
management systems can also use logged virtual memory to log updates to
the objects mapped into a virtual memory region.  The resulting redo
log in combination with checkpointing can be used to implement
transaction atomicity and recoverability efficiently."

The store maps one RLVM recoverable segment and lays persistent objects
out in it.  *Everything* is in recoverable memory — the allocation bump
pointer, the per-type object lists, and the objects themselves — so a
transaction abort rolls back object creation as well as field updates,
and a crash recovers the committed database exactly.  Field reads and
writes are ordinary loads and stores; the hardware log provides the
redo information with no per-write library code (this is precisely what
RLVM removes relative to Coda RVM).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LVMError
from repro.core.process import Process
from repro.backends.ramdisk import RamDisk
from repro.rvm.rlvm import RLVM, RLVMTransaction
from repro.oodb.schema import (
    NEXT_LINK_OFFSET,
    TYPE_TAG_OFFSET,
    ObjectType,
    SchemaError,
)

#: Store header layout (offsets from the mapped base; all recoverable):
#: magic word, allocation bump pointer, root oid, then the per-type
#: list heads.
MAGIC = 0x00DB_00DB
MAGIC_OFFSET = 0
NEXT_FREE_OFFSET = 4
ROOT_OFFSET = 8
TYPE_HEADS_OFFSET = 16
MAX_TYPES = 16
HEADER_BYTES = TYPE_HEADS_OFFSET + 4 * MAX_TYPES

#: The null object id.
NULL_OID = 0


class StoreError(LVMError):
    """Invalid object-store operation."""


@dataclass(frozen=True)
class Handle:
    """A reference to a persistent object (its oid).

    Reads go straight to memory; writes require the enclosing
    transaction, mirroring how a mapped OODB object behaves.
    """

    store: "ObjectStore"
    oid: int

    @property
    def addr(self) -> int:
        return self.store._oid_addr(self.oid)

    @property
    def type(self) -> ObjectType:
        tag = self.store.proc.read(self.addr + TYPE_TAG_OFFSET)
        return self.store._type_by_id(tag)

    def get(self, field_name: str) -> int:
        """Read a field (an ordinary load)."""
        f = self.type.field(field_name)
        return self.store.proc.read(self.addr + f.offset, f.size)

    def set(self, txn: RLVMTransaction, field_name: str, value: int) -> None:
        """Write a field inside ``txn`` (an ordinary logged store)."""
        f = self.type.field(field_name)
        txn.write(self.addr + f.offset, value, f.size)

    def deref(self, field_name: str) -> "Handle | None":
        """Follow an 'oid' field to the referenced object."""
        f = self.type.field(field_name)
        if f.kind != "oid":
            raise SchemaError(f"{field_name!r} is not an oid field")
        oid = self.get(field_name)
        return None if oid == NULL_OID else Handle(self.store, oid)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Handle)
            and other.store is self.store
            and other.oid == self.oid
        )

    def __hash__(self) -> int:
        return hash((id(self.store), self.oid))


class ObjectStore:
    """A persistent object store over one recoverable segment."""

    def __init__(
        self,
        proc: Process,
        size: int = 1 << 20,
        disk: RamDisk | None = None,
        rlvm: RLVM | None = None,
        types: list[ObjectType] | None = None,
    ) -> None:
        self.proc = proc
        self.size = size
        self.rlvm = rlvm or RLVM(proc, disk=disk)
        if "oodb" in self.rlvm.segments:
            self.base = self.rlvm.segments["oodb"].data_va
        else:
            self.base = self.rlvm.map("oodb", size)
        self._types: list[ObjectType] = []
        self._active_txn: RLVMTransaction | None = None
        for otype in types or []:
            self.register_type(otype)
        if self.proc.read(self.base + MAGIC_OFFSET) != MAGIC:
            self._format()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _format(self) -> None:
        """Initialise an empty store (one committed transaction)."""
        txn = self.rlvm.begin()
        txn.write(self.base + MAGIC_OFFSET, MAGIC)
        txn.write(self.base + NEXT_FREE_OFFSET, HEADER_BYTES)
        txn.write(self.base + ROOT_OFFSET, NULL_OID)
        txn.commit()

    def register_type(self, otype: ObjectType) -> ObjectType:
        """Register an object type.

        Registration order is part of the schema: re-register the same
        types in the same order when reopening after a crash.
        """
        if len(self._types) >= MAX_TYPES:
            raise StoreError(f"at most {MAX_TYPES} object types")
        if otype.type_id is not None and otype.type_id != len(self._types):
            raise StoreError(
                f"type {otype.name} already registered with a different id"
            )
        otype.type_id = len(self._types)
        self._types.append(otype)
        return otype

    def _type_by_id(self, type_id: int) -> ObjectType:
        if not 0 <= type_id < len(self._types):
            raise StoreError(f"unknown type id {type_id} (schema mismatch?)")
        return self._types[type_id]

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _oid_addr(self, oid: int) -> int:
        if not HEADER_BYTES <= oid < self.size:
            raise StoreError(f"bad object id {oid:#x}")
        return self.base + oid

    def _type_head_addr(self, otype: ObjectType) -> int:
        return self.base + TYPE_HEADS_OFFSET + 4 * otype.type_id

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self):
        """Context manager: commit on success, abort on exception."""
        txn = self.rlvm.begin()
        self._active_txn = txn
        try:
            yield txn
        except BaseException:
            if txn.active:
                txn.abort()
            raise
        else:
            if txn.active:
                txn.commit()
        finally:
            self._active_txn = None

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def new(self, txn: RLVMTransaction, otype: ObjectType, **fields: int) -> Handle:
        """Allocate a new object inside ``txn``.

        The bump pointer and the type's object list live in recoverable
        memory, so aborting ``txn`` also undoes the allocation.
        """
        if otype.type_id is None or self._types[otype.type_id] is not otype:
            raise StoreError(f"type {otype.name} is not registered")
        next_free = txn.read(self.base + NEXT_FREE_OFFSET)
        if next_free + otype.size > self.size:
            raise StoreError("object store is full")
        oid = next_free
        txn.write(self.base + NEXT_FREE_OFFSET, next_free + otype.size)
        addr = self._oid_addr(oid)
        txn.write(addr + TYPE_TAG_OFFSET, otype.type_id)
        # Link into the per-type list (newest first).
        head_addr = self._type_head_addr(otype)
        txn.write(addr + NEXT_LINK_OFFSET, txn.read(head_addr))
        txn.write(head_addr, oid)
        handle = Handle(self, oid)
        for name, value in fields.items():
            handle.set(txn, name, value)
        return handle

    def handle(self, oid: int) -> Handle:
        """Re-materialise a handle from a stored oid."""
        if oid == NULL_OID:
            raise StoreError("null oid has no handle")
        return Handle(self, oid)

    # ------------------------------------------------------------------
    # Root and iteration
    # ------------------------------------------------------------------
    def set_root(self, txn: RLVMTransaction, handle: Handle) -> None:
        """Persist the database root object."""
        txn.write(self.base + ROOT_OFFSET, handle.oid)

    def root(self) -> Handle | None:
        oid = self.proc.read(self.base + ROOT_OFFSET)
        return None if oid == NULL_OID else Handle(self, oid)

    def objects(self, otype: ObjectType) -> Iterator[Handle]:
        """Iterate live objects of ``otype`` (newest first)."""
        oid = self.proc.read(self._type_head_addr(otype))
        while oid != NULL_OID:
            handle = Handle(self, oid)
            yield handle
            oid = self.proc.read(handle.addr + NEXT_LINK_OFFSET)

    def count(self, otype: ObjectType) -> int:
        return sum(1 for _ in self.objects(otype))

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Apply the committed redo log to the durable image
        ("the redo log in combination with checkpointing", section 1).
        """
        self.rlvm.truncate()

    def crash_and_recover(self) -> "ObjectStore":
        """Crash the machine's volatile state and reopen the store."""
        if self._active_txn is not None and self._active_txn.active:
            # A crash abandons the in-flight transaction.
            self._active_txn.active = False
            self.rlvm._active_txn = None
        recovered_rlvm = self.rlvm.crash_and_recover()
        store = ObjectStore(
            self.proc, size=self.size, rlvm=recovered_rlvm
        )
        for otype in self._types:
            otype.type_id = None
            store.register_type(otype)
        if store.proc.read(store.base + MAGIC_OFFSET) != MAGIC:
            raise StoreError("recovered store is not a valid database")
        return store
