"""Statements of the Jimple-like IR.

A method body is a flat list of statements; control flow is expressed with
labels (held by the enclosing :class:`repro.ir.method.IRMethod`), ``goto``
and conditional ``if`` branches, mirroring how Dalvik bytecode lowers
structured Java control flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .values import (
    ArrayRef,
    ConditionExpr,
    FieldRef,
    InvokeExpr,
    Local,
    Value,
    locals_in,
)

#: Things that may appear on the left-hand side of an assignment.
LValue = Union[Local, FieldRef, ArrayRef]


class Stmt:
    """Base class of all IR statements."""

    __slots__ = ()

    def defs(self) -> tuple[Local, ...]:
        """Locals written by this statement."""
        return ()

    def uses(self) -> tuple[Local, ...]:
        """Locals read by this statement."""
        return ()

    def invoke(self) -> Optional[InvokeExpr]:
        """The invocation embedded in this statement, if any."""
        return None

    @property
    def is_terminator(self) -> bool:
        """True when control never falls through to the next statement."""
        return False


@dataclass(frozen=True, slots=True)
class AssignStmt(Stmt):
    """``target = value`` where value may be a composite expression."""

    target: LValue
    value: Value

    def defs(self) -> tuple[Local, ...]:
        return (self.target,) if isinstance(self.target, Local) else ()

    def uses(self) -> tuple[Local, ...]:
        used = list(locals_in(self.value))
        # Field/array stores read their base and index.
        if not isinstance(self.target, Local):
            used.extend(locals_in(self.target))
        return tuple(used)

    def invoke(self) -> Optional[InvokeExpr]:
        return self.value if isinstance(self.value, InvokeExpr) else None

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


@dataclass(frozen=True, slots=True)
class InvokeStmt(Stmt):
    """A call whose return value (if any) is discarded."""

    expr: InvokeExpr

    def uses(self) -> tuple[Local, ...]:
        return locals_in(self.expr)

    def invoke(self) -> Optional[InvokeExpr]:
        return self.expr

    def __str__(self) -> str:
        return f"invoke {self.expr}"


@dataclass(frozen=True, slots=True)
class IfStmt(Stmt):
    """``if cond goto target`` — falls through when the condition is false."""

    condition: ConditionExpr
    target: str

    def uses(self) -> tuple[Local, ...]:
        return locals_in(self.condition)

    def __str__(self) -> str:
        return f"if {self.condition} goto {self.target}"


@dataclass(frozen=True, slots=True)
class GotoStmt(Stmt):
    target: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True, slots=True)
class ReturnStmt(Stmt):
    value: Optional[Value] = None

    def uses(self) -> tuple[Local, ...]:
        return locals_in(self.value) if self.value is not None else ()

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return "return" if self.value is None else f"return {self.value}"


@dataclass(frozen=True, slots=True)
class ThrowStmt(Stmt):
    value: Value

    def uses(self) -> tuple[Local, ...]:
        return locals_in(self.value)

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"throw {self.value}"


@dataclass(frozen=True, slots=True)
class NopStmt(Stmt):
    """No-op; also used as a label anchor for empty join points."""

    def __str__(self) -> str:
        return "nop"

