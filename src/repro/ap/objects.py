"""Objects and the two-level configuration (paper section 2.1).

"A processing element called a physical object performs its operation as
defined by the configuration data.  Such configuration data is called
local configuration data.  The pair of initial data and local
configuration data is called a logical object, and [a] logical object
binded on the physical object is called an object."

So three notions exist:

* :class:`PhysicalObject` — the silicon: a position in the array with a
  general-purpose compute fabric (Table 1: 64-bit FP mul/add/div, integer
  mul/ALU/shift/div, six registers);
* :class:`LogicalObject` — the *content*: an operation (local
  configuration data) plus initial data, loadable from the library;
* an **object** — a logical object currently bound to a physical object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "ObjectKind",
    "Operation",
    "LogicalObject",
    "PhysicalObject",
    "apply_operation",
]


class ObjectKind(enum.Enum):
    """Role of an object in the fabric (Figure 4(b) legend)."""

    COMPUTE = "compute"
    MEMORY = "memory"
    SYSTEM = "system"


class Operation(enum.Enum):
    """Local configuration data: what the compute fabric does.

    The set mirrors the Table 1 datapath — 64-bit floating point multiply
    / add / divide and integer multiply / ALU / shift / divide — plus the
    structural operations a dataflow graph needs (constants, pass-through,
    comparison and selection for the Figure 7 conditional example).
    """

    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IDIV = "idiv"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP_GT = "cmp_gt"
    CMP_LT = "cmp_lt"
    CMP_EQ = "cmp_eq"
    SELECT = "select"  # select(cond, a, b)
    CONST = "const"  # emits its initial data
    PASS = "pass"  # identity (buffers, Figure 7's z=buff)
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    SQRT = "sqrt"


#: Arity of each operation (number of input operands).
_ARITY: Dict[Operation, int] = {
    Operation.FADD: 2, Operation.FSUB: 2, Operation.FMUL: 2, Operation.FDIV: 2,
    Operation.IADD: 2, Operation.ISUB: 2, Operation.IMUL: 2, Operation.IDIV: 2,
    Operation.SHL: 2, Operation.SHR: 2,
    Operation.AND: 2, Operation.OR: 2, Operation.XOR: 2,
    Operation.CMP_GT: 2, Operation.CMP_LT: 2, Operation.CMP_EQ: 2,
    Operation.SELECT: 3,
    Operation.CONST: 0,
    Operation.PASS: 1, Operation.NEG: 1, Operation.ABS: 1, Operation.SQRT: 1,
    Operation.MIN: 2, Operation.MAX: 2,
}


def apply_operation(
    op: Operation, inputs: Sequence[Any], init_data: Any = None
) -> Any:
    """Evaluate one operation on its inputs.

    Raises
    ------
    ConfigurationError
        On arity mismatch or a CONST with no initial data.
    """
    expected = _ARITY[op]
    if len(inputs) != expected:
        raise ConfigurationError(
            f"{op.value} expects {expected} inputs, got {len(inputs)}"
        )
    if op is Operation.CONST:
        if init_data is None:
            raise ConfigurationError("CONST object needs initial data")
        return init_data
    a = inputs[0] if inputs else None
    b = inputs[1] if len(inputs) > 1 else None
    if op is Operation.FADD or op is Operation.IADD:
        return a + b
    if op is Operation.FSUB or op is Operation.ISUB:
        return a - b
    if op is Operation.FMUL or op is Operation.IMUL:
        return a * b
    if op is Operation.FDIV:
        return a / b
    if op is Operation.IDIV:
        return int(a) // int(b)
    if op is Operation.SHL:
        return int(a) << int(b)
    if op is Operation.SHR:
        return int(a) >> int(b)
    if op is Operation.AND:
        return int(a) & int(b)
    if op is Operation.OR:
        return int(a) | int(b)
    if op is Operation.XOR:
        return int(a) ^ int(b)
    if op is Operation.CMP_GT:
        return a > b
    if op is Operation.CMP_LT:
        return a < b
    if op is Operation.CMP_EQ:
        return a == b
    if op is Operation.SELECT:
        return inputs[1] if inputs[0] else inputs[2]
    if op is Operation.PASS:
        return a
    if op is Operation.NEG:
        return -a
    if op is Operation.ABS:
        return abs(a)
    if op is Operation.MIN:
        return min(a, b)
    if op is Operation.MAX:
        return max(a, b)
    if op is Operation.SQRT:
        return math.sqrt(a)
    raise ConfigurationError(f"unhandled operation {op}")  # pragma: no cover


@dataclass(frozen=True)
class LogicalObject:
    """Initial data + local configuration data (section 2.1).

    Attributes
    ----------
    object_id:
        The ID the global configuration stream requests it by.
    operation:
        Local configuration data (what the bound PE computes).
    init_data:
        Initial data (a CONST's value, a coefficient, ...).
    kind:
        Compute / memory / system role.
    """

    object_id: int
    operation: Operation
    init_data: Any = None
    kind: ObjectKind = ObjectKind.COMPUTE

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ConfigurationError("object IDs are non-negative")

    @property
    def arity(self) -> int:
        return _ARITY[self.operation]

    def evaluate(self, inputs: Sequence[Any]) -> Any:
        """Run the operation this logical object configures."""
        return apply_operation(self.operation, inputs, self.init_data)


@dataclass
class PhysicalObject:
    """One processing element of the array.

    A physical object is anonymous silicon until a logical object is
    bound onto it; the bound pair is "an object" in the paper's terms.
    """

    position: int
    kind: ObjectKind = ObjectKind.COMPUTE
    logical: Optional[LogicalObject] = None
    #: Set when the object acknowledged a hit and woke its execution fabric.
    active: bool = False

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ConfigurationError("positions are non-negative")

    @property
    def is_bound(self) -> bool:
        return self.logical is not None

    def bind(self, logical: LogicalObject) -> None:
        """Bind a logical object onto this PE (making it "an object")."""
        if self.kind is not ObjectKind.COMPUTE and logical.kind is not self.kind:
            raise ConfigurationError(
                f"cannot bind {logical.kind.value} object onto "
                f"{self.kind.value} element"
            )
        self.logical = logical

    def unbind(self) -> Optional[LogicalObject]:
        """Remove and return the bound logical object (swap-out path)."""
        logical, self.logical = self.logical, None
        self.active = False
        return logical

    def wake(self) -> None:
        """Activate the execution fabric (the hit acknowledgement path)."""
        if not self.is_bound:
            raise ConfigurationError(
                f"physical object {self.position} has nothing bound"
            )
        self.active = True

    def release(self) -> None:
        """Fire the release token: deactivate, keep the binding cached."""
        self.active = False

    def execute(self, inputs: Sequence[Any]) -> Any:
        """Run the bound operation.

        Raises
        ------
        ConfigurationError
            If unbound or inactive.
        """
        if not self.is_bound:
            raise ConfigurationError(
                f"physical object {self.position} has nothing bound"
            )
        if not self.active:
            raise ConfigurationError(
                f"object {self.logical.object_id} at {self.position} "
                "executed without being acquired"
            )
        return self.logical.evaluate(inputs)
