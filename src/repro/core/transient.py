"""Transient instructions — the right-hand column of Table 1.

Fetched physical instructions become *transient* instructions in the
reorder buffer.  Transient instructions carry extra speculation state:
the guessed branch target of an unresolved ``br``/``jmpi``, the
provenance annotation ``{j, a}`` of a resolved load, or the speculatively
forwarded value of a partially resolved load (Section 3.5).

All forms are immutable; the machine rewrites buffer slots by replacing
whole instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .values import BOTTOM, Operand, Operands, Reg, Value, _Bottom

#: A load-provenance index: the buffer index of the forwarding store, or
#: ``⊥`` when the value was read from memory.
Provenance = Union[int, _Bottom]


@dataclass(frozen=True)
class Transient:
    """Base class of transient instructions."""


@dataclass(frozen=True)
class TOp(Transient):
    """Unresolved arithmetic operation ``(r = op(op, r⃗v))``."""

    dest: Reg
    opcode: str
    args: Operands

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.dest!r} = op({self.opcode}, {list(self.args)}))"


@dataclass(frozen=True)
class TValue(Transient):
    """Resolved value ``(r = v_ℓ)``.

    A resolved *load* additionally carries its provenance annotation
    ``{dep, addr}`` (forwarding store index or ``⊥``, and the computed
    address) and the program point ``pp`` of the physical load that
    produced it — the hazard rules roll back to ``pp``.  Plain resolved
    ops have ``addr is None``.
    """

    dest: Reg
    value: Value
    dep: Provenance = BOTTOM
    addr: Optional[int] = None
    pp: Optional[int] = None
    group: Optional[int] = None

    def is_load_result(self) -> bool:
        """True iff this value carries a load annotation ``{j, a}``."""
        return self.addr is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_load_result():
            return f"({self.dest!r} = {self.value!r}{{{self.dep!r},{self.addr}}})"
        return f"({self.dest!r} = {self.value!r})"


@dataclass(frozen=True)
class TBr(Transient):
    """Unresolved conditional ``br(op, r⃗v, n0, (n_true, n_false))``.

    ``guess`` records the speculatively followed program point n0.
    """

    opcode: str
    args: Operands
    guess: int
    targets: Tuple[int, int]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"br({self.opcode}, {list(self.args)}, {self.guess}, "
                f"{self.targets})")


@dataclass(frozen=True)
class TJump(Transient):
    """Resolved conditional / indirect jump ``jump n0``."""

    target: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"jump {self.target}"


@dataclass(frozen=True)
class TLoad(Transient):
    """Unresolved load ``(r = load(r⃗v))_n``.

    With ``pred`` set, this is the partially resolved load
    ``(r = load(r⃗v, (v_ℓ, j)))_n`` of Section 3.5: the aliasing predictor
    speculatively forwarded value ``pred[0]`` from the store at buffer
    index ``pred[1]`` before the load's own address was known.
    """

    dest: Reg
    args: Operands
    pp: int
    pred: Optional[Tuple[Value, int]] = None
    group: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.pred is None:
            return f"({self.dest!r} = load({list(self.args)}))_{self.pp}"
        v, j = self.pred
        return f"({self.dest!r} = load({list(self.args)}, ({v!r}, {j})))_{self.pp}"


@dataclass(frozen=True)
class TStore(Transient):
    """Store in any resolution state.

    * value unresolved: ``src`` is a :class:`Reg`;
      resolved: ``src`` is a :class:`Value`.
    * address unresolved: ``addr is None`` and ``args`` holds the operand
      list; resolved: ``addr`` is the labelled target address.
    """

    src: Operand
    args: Operands
    addr: Optional[Value] = None

    def value_resolved(self) -> bool:
        return isinstance(self.src, Value)

    def addr_resolved(self) -> bool:
        return self.addr is not None

    def fully_resolved(self) -> bool:
        return self.value_resolved() and self.addr_resolved()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = repr(self.addr) if self.addr is not None else repr(list(self.args))
        return f"store({self.src!r}, {where})"


@dataclass(frozen=True)
class TJmpi(Transient):
    """Unresolved indirect jump ``jmpi(r⃗v, n0)`` with guessed target."""

    args: Operands
    guess: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"jmpi({list(self.args)}, {self.guess})"


@dataclass(frozen=True)
class TFence(Transient):
    """Transient speculation barrier."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "fence"


@dataclass(frozen=True)
class TCallMarker(Transient):
    """The ``call`` marker heading a fetched call group (Appendix A.2)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "call"


@dataclass(frozen=True)
class TRetMarker(Transient):
    """The ``ret`` marker heading a fetched return group (Appendix A.2)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ret"


def assigned_register(instr: Transient) -> Optional[Reg]:
    """The register ``r`` of an instruction of the form ``(r = _)``, or
    None.  The reorder buffer indexes in-flight assignments by it for
    the register resolve function (Fig 3)."""
    if isinstance(instr, (TOp, TValue, TLoad)):
        return instr.dest
    return None


def resolved_value_of(instr: Transient) -> Union[Value, _Bottom]:
    """The value an in-flight assignment provides, or ``⊥``.

    Resolved values provide their value; partially resolved loads provide
    their speculatively forwarded value (Section 3.5's extension of the
    register resolve function); everything else is still pending.
    """
    if isinstance(instr, TValue):
        return instr.value
    if isinstance(instr, TLoad) and instr.pred is not None:
        return instr.pred[0]
    return BOTTOM
