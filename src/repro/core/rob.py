"""The reorder buffer and the register resolve function.

The reorder buffer ``buf`` maps a contiguous range of natural-number
indices to transient instructions (Section 3, "Reorder buffer").  The
paper's conventions, which we follow exactly:

* ``MIN(∅) = MAX(∅) = 0`` and fetch inserts at ``MAX(buf) + 1`` — so the
  first index ever used is 1;
* retire removes ``MIN(buf)``; rollback keeps only indices ``j < i``;
* indices freed by a rollback are reused by subsequent fetches.

Buffers are immutable: every mutation returns a new buffer.  They are
small (bounded by the speculation bound), so structural copying is cheap
and keeps configurations value-like, which the SCT checker and the
exploration engines rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, Optional, Tuple, Union

from .transient import (TBr, TFence, TJmpi, TLoad, TOp, TStore, Transient,
                        assigned_register, resolved_value_of)
from .values import BOTTOM, Operand, Operands, Reg, Value, _Bottom

#: The target memo of a buffer that has learned nothing yet.  Never
#: written: a buffer copies it before its first write (see
#: :meth:`ReorderBuffer.remember_target`).
_NO_TARGETS: Dict[int, Tuple[Transient, int]] = {}


def _is_active(instr: Transient) -> bool:
    """Can this entry still have execute work (Definition B.18's eager
    moves, or the oldest-entry sweep's pending store addresses)?"""
    if isinstance(instr, (TOp, TBr, TJmpi)):
        return True
    if isinstance(instr, TLoad):
        return instr.pred is None
    if isinstance(instr, TStore):
        return not instr.fully_resolved()
    return False


def _slots_hash(base: int, slots: Tuple[Transient, ...]) -> int:
    """XOR of ``hash((index, entry))`` over slots starting at ``base``:
    a buffer's structural hash, or the part of it those slots make."""
    h = 0
    for off, instr in enumerate(slots):
        h ^= hash((base + off, instr))
    return h


def _scan_fence(base: int, slots: Tuple[Transient, ...]) -> int:
    """Index of the oldest fence in ``slots`` (-1: none)."""
    for off, instr in enumerate(slots):
        if isinstance(instr, TFence):
            return base + off
    return -1


class ReorderBuffer:
    """An immutable contiguous map from indices to transient instructions.

    Besides its slots, a buffer carries facts the DT(n) scheduler and
    the register resolve function ask at every decision, each a
    function of the buffer's value and each updated in O(1) or
    O(changed entries) by the mutations (DESIGN.md, "Scheduler
    caches"):

    * the oldest fence index (:meth:`first_fence`);
    * the *active* entries (:meth:`active_items`): those that can still
      execute — ops, branches, indirect jumps, loads without an
      aliasing prediction, and stores with an unresolved part;
    * per register, the indices of its in-flight assignments
      (:meth:`youngest_assignment`);
    * the structural hash, an XOR of per-slot ``hash((index, entry))``
      (invertible, like :class:`~repro.core.memory.Memory`'s), derived
      from the parent's when that one is already known;
    * a memo of resolved branch/jmpi targets
      (:meth:`known_target`/:meth:`remember_target`).
    """

    __slots__ = ("_base", "_slots", "_fence", "_active", "_assigns",
                 "_hash", "_targets", "_owns_targets")

    def __init__(self, base: int = 1, slots: Tuple[Transient, ...] = ()):
        self._base = base          # index of the first slot
        self._slots = slots
        self._fence = _scan_fence(base, slots)  # oldest fence (-1: none)
        self._active = tuple(base + off for off, instr in enumerate(slots)
                             if _is_active(instr))
        assigns: Dict[Reg, Tuple[int, ...]] = {}
        for off, instr in enumerate(slots):
            dest = assigned_register(instr)
            if dest is not None:
                assigns[dest] = assigns.get(dest, ()) + (base + off,)
        self._assigns = assigns
        self._hash: Optional[int] = None  # lazy, then derived
        self._targets = _NO_TARGETS
        self._owns_targets = False

    def _derive(self, base: int, slots: Tuple[Transient, ...], fence: int,
                active: Tuple[int, ...], assigns: Dict[Reg, Tuple[int, ...]],
                shash: Optional[int],
                targets: Optional[Dict] = None) -> "ReorderBuffer":
        """A mutation's result, whose facts the mutation updated from
        this buffer's.  It shares this buffer's target memo unless
        given its own (``targets``, which it then owns)."""
        buf = object.__new__(ReorderBuffer)
        buf._base = base
        buf._slots = slots
        buf._fence = fence
        buf._active = active
        buf._assigns = assigns
        buf._hash = shash
        if not slots:
            targets = _NO_TARGETS
        buf._owns_targets = targets is not None and targets is not _NO_TARGETS
        buf._targets = self._targets if targets is None else targets
        return buf

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __contains__(self, i: int) -> bool:
        return self._base <= i < self._base + len(self._slots)

    def __getitem__(self, i: int) -> Transient:
        if i not in self:
            raise KeyError(i)
        return self._slots[i - self._base]

    def get(self, i: int) -> Optional[Transient]:
        """The instruction at index ``i``, or None if absent."""
        return self[i] if i in self else None

    def min_index(self) -> int:
        """``MIN(buf)``; 0 for the *initial* empty buffer.

        For an empty buffer this is ``base - 1`` so that indices keep
        increasing monotonically across drains — matching the paper's
        worked examples (Fig 13 numbers fetches above retired indices)
        and keeping the RSB's index-ordered log meaningful.
        """
        return self._base if self._slots else self._base - 1

    def max_index(self) -> int:
        """``MAX(buf)``; 0 for the *initial* empty buffer (see
        :meth:`min_index` for the drained-buffer convention)."""
        return self._base + len(self._slots) - 1 if self._slots else self._base - 1

    def indices(self) -> range:
        """The contiguous domain of the buffer."""
        if not self._slots:
            return range(0)
        return range(self._base, self._base + len(self._slots))

    def items(self) -> Iterator[Tuple[int, Transient]]:
        """(index, instruction) pairs in increasing index order."""
        for off, instr in enumerate(self._slots):
            yield self._base + off, instr

    def first_fence(self) -> Optional[int]:
        """Index of the oldest in-flight fence, or None.

        Maintained by every mutation: the highlighted side condition of
        the execute rules (``∀j < i : buf(j) ≠ fence``) asks this on
        every execute step, and rescanning the window each time is the
        dominant cost at large speculation bounds.
        """
        f = self._fence
        return None if f == -1 else f

    def active_items(self) -> Iterator[Tuple[int, Transient]]:
        """(index, instruction) pairs, in increasing index order, of the
        entries that can still execute: ``op``, ``br``, ``jmpi``, loads
        without an aliasing prediction, and stores with an unresolved
        value or address.  Every other entry only waits to retire."""
        base, slots = self._base, self._slots
        for i in self._active:
            yield i, slots[i - base]

    def youngest_assignment(self, reg: Reg, i: int) -> Optional[int]:
        """Index of the youngest in-flight assignment ``(reg = _)``
        strictly before index ``i``, or None."""
        found = self._assigns.get(reg)
        if found is None:
            return None
        k = bisect_left(found, i)
        return found[k - 1] if k else None

    def known_target(self, i: int, entry: Transient) -> Optional[int]:
        """The remembered resolved target of the branch/jmpi ``entry``
        at index ``i``, or None.  Confirmed by entry identity, so a
        squashed-and-refetched index never answers for its old entry."""
        hit = self._targets.get(i)
        if hit is not None and hit[0] is entry:
            return hit[1]
        return None

    def remember_target(self, i: int, entry: Transient, target: int) -> None:
        """Record that ``entry`` at index ``i`` resolves to ``target``.

        Only valid once the entry's operands are resolved here: resolved
        values never change in a derived buffer (execute only resolves,
        retire moves a value into the register file unchanged, and a
        squash of a producer squashes every younger entry).  Buffers
        derived from this one share its memo; a buffer copies a shared
        memo before its first own write, so facts never flow to a
        parent or a sibling, whose values may resolve differently.
        """
        if not self._owns_targets:
            base = self._base
            self._targets = {k: v for k, v in self._targets.items()
                             if k >= base}
            self._owns_targets = True
        self._targets[i] = (entry, target)

    # -- mutations (all return fresh buffers) ------------------------------

    def insert_next(self, instr: Transient) -> Tuple[int, "ReorderBuffer"]:
        """Insert at ``MAX(buf) + 1``; returns (index, new buffer)."""
        i = self.max_index() + 1
        # An empty buffer keeps its base so indices are reused after a
        # full drain, matching MAX(∅) = 0 only for the initial buffer.
        base = self._base if self._slots else i
        fence = self._fence
        if fence == -1 and isinstance(instr, TFence):
            fence = i
        active = self._active + (i,) if _is_active(instr) else self._active
        assigns = self._assigns
        dest = assigned_register(instr)
        if dest is not None:
            assigns = dict(assigns)
            assigns[dest] = assigns.get(dest, ()) + (i,)
        h = self._hash
        if h is not None:
            h ^= hash((i, instr))
        return i, self._derive(base, self._slots + (instr,), fence, active,
                               assigns, h)

    def append_all(self, instrs: Tuple[Transient, ...]) -> "ReorderBuffer":
        """Insert several instructions at consecutive next indices."""
        buf = self
        for instr in instrs:
            _, buf = buf.insert_next(instr)
        return buf

    def set(self, i: int, instr: Transient) -> "ReorderBuffer":
        """``buf[i ↦ instr]`` for an existing index ``i``."""
        if i not in self:
            raise KeyError(i)
        off = i - self._base
        old = self._slots[off]
        slots = self._slots[:off] + (instr,) + self._slots[off + 1:]
        fence = self._fence
        if isinstance(instr, TFence):
            if fence == -1 or i < fence:
                fence = i
        elif fence == i:
            fence = _scan_fence(self._base, slots)
        active = self._active
        now = _is_active(instr)
        if now != _is_active(old):
            k = bisect_left(active, i)
            active = (active[:k] + (i,) + active[k:] if now
                      else active[:k] + active[k + 1:])
        assigns = self._assigns
        dest, old_dest = assigned_register(instr), assigned_register(old)
        if dest != old_dest:
            assigns = dict(assigns)
            if old_dest is not None:
                left = tuple(j for j in assigns[old_dest] if j != i)
                if left:
                    assigns[old_dest] = left
                else:
                    del assigns[old_dest]
            if dest is not None:
                assigns[dest] = tuple(sorted(assigns.get(dest, ()) + (i,)))
        h = self._hash
        if h is not None:
            h ^= hash((i, old)) ^ hash((i, instr))
        return self._derive(self._base, slots, fence, active, assigns, h)

    def remove_min(self, count: int = 1) -> "ReorderBuffer":
        """Remove the ``count`` lowest-indexed entries (retire)."""
        if count > len(self._slots):
            raise KeyError("retiring from an empty buffer")
        base = self._base + count
        slots = self._slots[count:]
        fence = self._fence
        if fence != -1 and fence < base:
            fence = _scan_fence(base, slots)
        active = self._active
        if active and active[0] < base:
            active = active[bisect_left(active, base):]
        assigns = self._assigns
        for instr in self._slots[:count]:
            dest = assigned_register(instr)
            if dest is not None:
                # Retirement is in order: the retired assignment is the
                # oldest one of its register.
                if assigns is self._assigns:
                    assigns = dict(assigns)
                left = assigns[dest][1:]
                if left:
                    assigns[dest] = left
                else:
                    del assigns[dest]
        h = self._hash
        if h is not None:
            h ^= _slots_hash(self._base, self._slots[:count])
        return self._derive(base, slots, fence, active, assigns, h)

    def truncate_before(self, i: int) -> "ReorderBuffer":
        """``buf[j : j < i]`` — drop index ``i`` and everything younger."""
        if not self._slots or i > self.max_index():
            return self
        keep = max(0, i - self._base)
        fence = self._fence if self._fence < i else -1
        active = self._active[:bisect_left(self._active, i)]
        assigns = {}
        for reg, found in self._assigns.items():
            left = found[:bisect_left(found, i)]
            if left:
                assigns[reg] = left
        h = self._hash
        if h is not None:
            # Rehash whichever side is smaller: a delayed branch rolls
            # back as the oldest entry, keeping next to nothing.
            if keep <= len(self._slots) - keep:
                h = _slots_hash(self._base, self._slots[:keep])
            else:
                h ^= _slots_hash(i, self._slots[keep:])
        targets = None
        if any(k >= i for k in self._targets):
            targets = {k: v for k, v in self._targets.items() if k < i}
        return self._derive(self._base, self._slots[:keep], fence, active,
                            assigns, h, targets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{i}: {instr!r}" for i, instr in self.items())
        return f"ROB{{{body}}}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReorderBuffer):
            return NotImplemented
        if not self._slots and not other._slots:
            return True
        return self._base == other._base and self._slots == other._slots

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # XOR of per-slot contributions: every empty buffer hashes
            # 0 whatever its base (all empty buffers are equal), and a
            # mutation derives its result's hash from this one in
            # O(changed slots).
            h = self._hash = _slots_hash(self._base, self._slots)
        return h


# ---------------------------------------------------------------------------
# Register resolve function (Fig 3, extended per Section 3.5)
# ---------------------------------------------------------------------------

def resolve_register(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                     reg: Reg) -> Union[Value, _Bottom]:
    """``(buf +i ρ)(r)``.

    Finds the youngest in-flight assignment to ``reg`` strictly before
    buffer index ``i`` (from the buffer's per-register index, not a
    walk).  If it is resolved (a value, or a partially resolved load's
    forwarded value), return its value; if it is still pending, return
    ``⊥``; with no in-flight assignment, fall back to the register
    file ``ρ``.
    """
    j = buf.youngest_assignment(reg, i)
    if j is not None:
        return resolved_value_of(buf[j])
    if reg not in regs:
        raise KeyError(f"register {reg!r} is not in the register file")
    return regs[reg]


def resolve_operand(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                    rv: Operand) -> Union[Value, _Bottom]:
    """``(buf +i ρ)`` lifted to operands: values resolve to themselves."""
    if isinstance(rv, Value):
        return rv
    return resolve_register(buf, i, regs, rv)


def resolve_operands(buf: ReorderBuffer, i: int, regs: Dict[Reg, Value],
                     rvs: Operands) -> Optional[Tuple[Value, ...]]:
    """Pointwise lifting; None if *any* operand is still unresolved."""
    out = []
    for rv in rvs:
        v = resolve_operand(buf, i, regs, rv)
        if v is BOTTOM:
            return None
        out.append(v)
    return tuple(out)
