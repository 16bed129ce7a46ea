"""Copy-on-write memory model.

An execution state's address space is a map from object ids to
:class:`MemObject` (an array of word cells).  Forking a state shallow-copies
the map and counts one more holder on every object; a write to an object
with more than one holder clones just that object and gives up the writer's
hold on the original, so once every other holder has cloned it away, the
last one writes in place again.  This is the Klee copy-on-write design the
paper calls out as the key to cheap snapshots and scalable schedule search
(sections 4.1 and 6.1).

Runtime pointer values are :class:`Pointer` -- an (object id, offset) pair.
Offsets may be symbolic; the executor concretizes them at access time.
Out-of-bounds and use-after-free accesses raise typed errors that the
executor converts into bug states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..solver.expr import Atom, Expr

CellValue = Union[int, Expr, "Pointer", "FnPtr"]


@dataclass(frozen=True, slots=True)
class Pointer:
    """A typed pointer: object id + cell offset (offset may be symbolic)."""

    obj: int
    offset: Atom = 0

    def __repr__(self) -> str:
        return f"ptr({self.obj}+{self.offset!r})"


@dataclass(frozen=True, slots=True)
class FnPtr:
    """A function pointer value."""

    name: str

    def __repr__(self) -> str:
        return f"&{self.name}"


class MemoryError_(Exception):
    """Base for memory access violations (underscore avoids the builtin)."""

    def __init__(self, message: str, obj: Optional["MemObject"] = None) -> None:
        super().__init__(message)
        self.obj = obj


class OutOfBounds(MemoryError_):
    pass


class UseAfterFree(MemoryError_):
    pass


class InvalidFree(MemoryError_):
    pass


class DoubleFree(MemoryError_):
    pass


class MemObject:
    """A contiguous run of word cells.

    ``holders`` counts the address spaces whose maps reference the object
    (an upper bound: a dropped state never releases its hold).
    """

    __slots__ = ("obj_id", "name", "kind", "cells", "freed", "holders")

    def __init__(
        self, obj_id: int, size: int, kind: str, name: str = "",
        init: Optional[list[CellValue]] = None,
    ) -> None:
        self.obj_id = obj_id
        self.name = name
        self.kind = kind  # 'global' | 'stack' | 'heap'
        self.cells: list[CellValue] = list(init) if init else [0] * size
        if init and len(self.cells) < size:
            self.cells.extend([0] * (size - len(self.cells)))
        self.freed = False
        self.holders = 1

    @property
    def size(self) -> int:
        return len(self.cells)

    def clone(self, share_cells: bool = False) -> "MemObject":
        copy = MemObject.__new__(MemObject)
        copy.obj_id = self.obj_id
        copy.name = self.name
        copy.kind = self.kind
        copy.cells = self.cells if share_cells else list(self.cells)
        copy.freed = self.freed
        copy.holders = 1
        return copy

    def __repr__(self) -> str:
        flags = " freed" if self.freed else ""
        return f"<obj {self.obj_id} {self.kind} {self.name!r} [{self.size}]{flags}>"


class AddressSpace:
    """COW map of object ids to memory objects."""

    __slots__ = ("objects",)

    def __init__(self) -> None:
        self.objects: dict[int, MemObject] = {}

    def fork(self) -> "AddressSpace":
        """Share all objects with a new address space (O(objects), no data copy)."""
        for obj in self.objects.values():
            obj.holders += 1
        other = AddressSpace.__new__(AddressSpace)
        other.objects = dict(self.objects)
        return other

    def _mark_freed(self, obj: MemObject) -> None:
        """Free ``obj`` in this space only.

        A shared object is replaced by a freed copy that shares its cells
        instead of copying them: no access reads a freed object's cells.
        The copy keeps this space's hold on the original, so the
        original's next writer clones it and the shared cells stay as they
        were at the free.
        """
        if obj.holders > 1:
            obj = self.objects[obj.obj_id] = obj.clone(share_cells=True)
        obj.freed = True

    def add(self, obj: MemObject) -> MemObject:
        assert obj.obj_id not in self.objects
        self.objects[obj.obj_id] = obj
        return obj

    def get(self, obj_id: int) -> MemObject:
        obj = self.objects.get(obj_id)
        if obj is None:
            raise OutOfBounds(f"dangling reference to object {obj_id}")
        return obj

    def read(self, obj_id: int, offset: int) -> CellValue:
        obj = self.get(obj_id)
        if obj.freed:
            raise UseAfterFree(f"read of freed {obj!r}", obj)
        if not 0 <= offset < obj.size:
            raise OutOfBounds(
                f"read at offset {offset} of {obj!r} (size {obj.size})", obj
            )
        return obj.cells[offset]

    def write(self, obj_id: int, offset: int, value: CellValue) -> None:
        obj = self.get(obj_id)
        if obj.freed:
            raise UseAfterFree(f"write to freed {obj!r}", obj)
        if not 0 <= offset < obj.size:
            raise OutOfBounds(
                f"write at offset {offset} of {obj!r} (size {obj.size})", obj
            )
        if obj.holders > 1:  # clone for this space; give up its hold
            obj.holders -= 1
            obj = self.objects[obj_id] = obj.clone()
        obj.cells[offset] = value

    def free(self, obj_id: int, offset: int) -> None:
        obj = self.objects.get(obj_id)
        if obj is None:
            raise InvalidFree(f"free of unknown object {obj_id}")
        if offset != 0:
            raise InvalidFree(f"free of interior pointer into {obj!r}", obj)
        if obj.kind != "heap":
            raise InvalidFree(f"free of non-heap {obj!r}", obj)
        if obj.freed:
            raise DoubleFree(f"double free of {obj!r}", obj)
        self._mark_freed(obj)

    def release_stack(self, obj_ids: list[int]) -> None:
        """Mark a returning frame's stack objects dead (enables stack-UAF
        checks)."""
        objects = self.objects
        for obj_id in obj_ids:
            obj = objects.get(obj_id)
            if obj is not None and not obj.freed:
                self._mark_freed(obj)

    def __len__(self) -> int:
        return len(self.objects)
