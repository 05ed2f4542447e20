"""Unit tests for objects and the two-level configuration (section 2.1)."""

import pytest

from repro.errors import ConfigurationError
from repro.ap.objects import (
    LogicalObject,
    ObjectKind,
    Operation,
    PhysicalObject,
    apply_operation,
)


class TestApplyOperation:
    @pytest.mark.parametrize(
        "op,inputs,expected",
        [
            (Operation.FADD, [1.5, 2.5], 4.0),
            (Operation.FSUB, [5.0, 2.0], 3.0),
            (Operation.FMUL, [3.0, 4.0], 12.0),
            (Operation.FDIV, [9.0, 2.0], 4.5),
            (Operation.IADD, [3, 4], 7),
            (Operation.ISUB, [3, 4], -1),
            (Operation.IMUL, [3, 4], 12),
            (Operation.IDIV, [9, 2], 4),
            (Operation.SHL, [1, 4], 16),
            (Operation.SHR, [16, 2], 4),
            (Operation.AND, [0b1100, 0b1010], 0b1000),
            (Operation.OR, [0b1100, 0b1010], 0b1110),
            (Operation.XOR, [0b1100, 0b1010], 0b0110),
            (Operation.CMP_GT, [3, 2], True),
            (Operation.CMP_LT, [3, 2], False),
            (Operation.CMP_EQ, [2, 2], True),
            (Operation.SELECT, [True, "a", "b"], "a"),
            (Operation.SELECT, [False, "a", "b"], "b"),
            (Operation.PASS, [42], 42),
            (Operation.NEG, [3], -3),
            (Operation.ABS, [-3], 3),
            (Operation.MIN, [3, 7], 3),
            (Operation.MAX, [3, 7], 7),
            (Operation.SQRT, [9.0], 3.0),
        ],
    )
    def test_semantics(self, op, inputs, expected):
        assert apply_operation(op, inputs) == expected

    def test_const_emits_init_data(self):
        assert apply_operation(Operation.CONST, [], init_data=7) == 7

    def test_const_requires_init_data(self):
        with pytest.raises(ConfigurationError):
            apply_operation(Operation.CONST, [])

    def test_arity_enforced(self):
        with pytest.raises(ConfigurationError):
            apply_operation(Operation.FADD, [1.0])
        with pytest.raises(ConfigurationError):
            apply_operation(Operation.PASS, [1, 2])


class TestLogicalObject:
    def test_fields(self):
        obj = LogicalObject(3, Operation.FMUL, kind=ObjectKind.COMPUTE)
        assert obj.object_id == 3
        assert obj.arity == 2

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicalObject(-1, Operation.PASS)

    def test_evaluate_delegates(self):
        obj = LogicalObject(0, Operation.CONST, init_data=11)
        assert obj.evaluate([]) == 11

    def test_frozen(self):
        obj = LogicalObject(0, Operation.PASS)
        with pytest.raises(AttributeError):
            obj.operation = Operation.NEG


class TestPhysicalObject:
    def test_starts_unbound_inactive(self):
        pe = PhysicalObject(0)
        assert not pe.is_bound and not pe.active

    def test_bind_unbind_roundtrip(self):
        pe = PhysicalObject(0)
        logical = LogicalObject(5, Operation.PASS)
        pe.bind(logical)
        assert pe.is_bound
        assert pe.unbind() is logical
        assert not pe.is_bound

    def test_unbind_clears_active(self):
        pe = PhysicalObject(0)
        pe.bind(LogicalObject(5, Operation.PASS))
        pe.wake()
        pe.unbind()
        assert not pe.active

    def test_kind_mismatch_rejected(self):
        pe = PhysicalObject(0, kind=ObjectKind.MEMORY)
        with pytest.raises(ConfigurationError):
            pe.bind(LogicalObject(1, Operation.PASS, kind=ObjectKind.SYSTEM))

    def test_compute_element_accepts_any(self):
        pe = PhysicalObject(0, kind=ObjectKind.COMPUTE)
        pe.bind(LogicalObject(1, Operation.PASS, kind=ObjectKind.MEMORY))

    def test_wake_requires_binding(self):
        with pytest.raises(ConfigurationError):
            PhysicalObject(0).wake()

    def test_execute_requires_acquirement(self):
        pe = PhysicalObject(0)
        pe.bind(LogicalObject(1, Operation.NEG))
        with pytest.raises(ConfigurationError):
            pe.execute([3])  # bound but never woken
        pe.wake()
        assert pe.execute([3]) == -3

    def test_release_deactivates(self):
        pe = PhysicalObject(0)
        pe.bind(LogicalObject(1, Operation.PASS))
        pe.wake()
        pe.release()
        assert not pe.active and pe.is_bound  # stays cached

    def test_execute_unbound_raises(self):
        with pytest.raises(ConfigurationError):
            PhysicalObject(0).execute([1])

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigurationError):
            PhysicalObject(-1)
