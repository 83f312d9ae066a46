"""Unit tests for the reorder buffer and register resolve function (Fig 3)."""

import pytest

from repro.core.rob import (ReorderBuffer, resolve_operand, resolve_operands,
                            resolve_register)
from repro.core.transient import TBr, TLoad, TOp, TStore, TValue
from repro.core.values import BOTTOM, Reg, Value, operands, public, secret

RA, RB = Reg("ra"), Reg("rb")


def _buf(*instrs):
    buf = ReorderBuffer()
    for instr in instrs:
        _i, buf = buf.insert_next(instr)
    return buf


class TestBufferBasics:
    def test_empty_min_max_zero(self):
        buf = ReorderBuffer()
        assert buf.min_index() == 0 and buf.max_index() == 0

    def test_first_insert_at_one(self):
        i, buf = ReorderBuffer().insert_next(TValue(RA, public(1)))
        assert i == 1 and buf.min_index() == buf.max_index() == 1

    def test_contiguous_domain(self):
        buf = _buf(*(TValue(RA, public(k)) for k in range(5)))
        assert list(buf.indices()) == [1, 2, 3, 4, 5]

    def test_set_replaces(self):
        buf = _buf(TValue(RA, public(1)))
        buf2 = buf.set(1, TValue(RA, public(2)))
        assert buf2[1].value.val == 2 and buf[1].value.val == 1  # immutable

    def test_set_missing_raises(self):
        with pytest.raises(KeyError):
            ReorderBuffer().set(1, TValue(RA, public(1)))

    def test_remove_min_advances_base(self):
        buf = _buf(TValue(RA, public(1)), TValue(RB, public(2)))
        buf2 = buf.remove_min()
        assert buf2.min_index() == 2 and 1 not in buf2

    def test_indices_monotone_after_drain(self):
        """Drained buffers keep counting up (matches Fig 13's numbering)."""
        buf = _buf(TValue(RA, public(1)))
        buf = buf.remove_min()
        i, buf = buf.insert_next(TValue(RB, public(2)))
        assert i == 2

    def test_truncate_before(self):
        buf = _buf(*(TValue(RA, public(k)) for k in range(5)))
        buf2 = buf.truncate_before(3)
        assert list(buf2.indices()) == [1, 2]

    def test_truncate_to_empty_reuses_index(self):
        buf = _buf(TValue(RA, public(1)), TValue(RB, public(2)))
        buf = buf.remove_min()          # min is now 2
        buf = buf.truncate_before(2)    # empty
        i, _ = buf.insert_next(TValue(RA, public(3)))
        assert i == 2                   # reuses the squashed slot

    def test_truncate_beyond_max_noop(self):
        buf = _buf(TValue(RA, public(1)))
        assert buf.truncate_before(99) == buf

    def test_equality_and_hash(self):
        a = _buf(TValue(RA, public(1)))
        b = _buf(TValue(RA, public(1)))
        assert a == b and hash(a) == hash(b)

    def test_empty_buffers_equal(self):
        assert ReorderBuffer() == _buf(TValue(RA, public(1))).remove_min()

    def test_retire_empty_raises(self):
        with pytest.raises(KeyError):
            ReorderBuffer().remove_min()


class TestRegisterResolve:
    """The (buf +i ρ) function of Figure 3."""

    def test_falls_back_to_register_file(self):
        buf = ReorderBuffer()
        assert resolve_register(buf, 1, {RA: public(9)}, RA) == public(9)

    def test_latest_resolved_assignment_wins(self):
        buf = _buf(TValue(RA, public(1)), TValue(RA, public(2)))
        assert resolve_register(buf, 3, {RA: public(0)}, RA) == public(2)

    def test_only_assignments_before_i(self):
        buf = _buf(TValue(RA, public(1)), TValue(RA, public(2)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) == public(1)

    def test_unresolved_assignment_is_bottom(self):
        buf = _buf(TOp(RA, "add", operands(1, 2)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) is BOTTOM

    def test_unresolved_load_is_bottom(self):
        buf = _buf(TLoad(RA, operands(0x40), pp=1))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) is BOTTOM

    def test_pending_assignment_shadows_older_resolved(self):
        """Fig 3: the *latest* assignment counts, even if unresolved."""
        buf = _buf(TValue(RA, public(1)), TOp(RA, "add", operands(1, 2)))
        assert resolve_register(buf, 3, {RA: public(0)}, RA) is BOTTOM

    def test_partially_resolved_load_provides_value(self):
        """Section 3.5's extension: a predicted-forward load resolves."""
        buf = _buf(TLoad(RA, operands(0x40), pp=1, pred=(secret(7), 0)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) == secret(7)

    def test_missing_register_raises(self):
        with pytest.raises(KeyError):
            resolve_register(ReorderBuffer(), 1, {}, RA)

    def test_stores_do_not_assign(self):
        buf = _buf(TStore(RA, operands(0x40)))
        assert resolve_register(buf, 2, {RA: public(5)}, RA) == public(5)

    def test_resolve_operand_value_identity(self):
        v = secret(3)
        assert resolve_operand(ReorderBuffer(), 1, {}, v) == v

    def test_resolve_operands_none_on_bottom(self):
        buf = _buf(TOp(RA, "add", operands(1, 2)))
        assert resolve_operands(buf, 2, {RA: public(0)}, (RA, RB)) is None

    def test_resolve_operands_all_good(self):
        buf = _buf(TValue(RA, public(1)))
        out = resolve_operands(buf, 2, {RB: public(2)}, operands("ra", "rb", 3))
        assert out == (public(1), public(2), public(3))


class TestTargetMemo:
    """The remembered branch/jmpi targets flow to derived buffers only,
    answer only for the very entry they were learned for, and are
    dropped by a squash."""

    def _branch(self):
        return TBr("eq", operands("ra", 0), 10, (10, 20))

    def test_derived_buffers_share_the_facts(self):
        br = self._branch()
        buf = _buf(TValue(RA, public(0)), br)
        buf.remember_target(2, br, 10)
        assert buf.known_target(2, br) == 10
        for derived in (buf.insert_next(TValue(RB, public(1)))[1],
                        buf.set(1, TValue(RA, public(0))),
                        buf.remove_min(), buf.truncate_before(3)):
            assert derived.known_target(2, br) == 10

    def test_facts_never_flow_to_parent_or_sibling(self):
        br = self._branch()
        parent = _buf(TOp(RA, "add", operands(1, 2)), br)
        child = parent.set(1, TValue(RA, public(3)))
        sibling = parent.set(1, TValue(RA, public(0)))
        child.remember_target(2, br, 20)
        assert child.known_target(2, br) == 20
        assert parent.known_target(2, br) is None
        assert sibling.known_target(2, br) is None

    def test_answers_only_for_the_same_entry(self):
        br = self._branch()
        buf = _buf(br)
        buf.remember_target(1, br, 10)
        assert buf.known_target(1, br) == 10
        assert buf.known_target(1, self._branch()) is None

    def test_truncate_drops_squashed_facts(self):
        br = self._branch()
        buf = _buf(TValue(RA, public(0)), br)
        buf.remember_target(2, br, 10)
        squashed = buf.truncate_before(2)
        _i, refetched = squashed.insert_next(br)
        assert refetched.known_target(2, br) is None
        assert buf.known_target(2, br) == 10


class TestAssignmentIndex:
    def test_youngest_assignment_before_index(self):
        buf = _buf(TValue(RA, public(1)), TStore(RA, operands(0x40)),
                   TOp(RA, "add", operands(1, 2)), TLoad(RB, operands(0), pp=4))
        assert buf.youngest_assignment(RA, 1) is None
        assert buf.youngest_assignment(RA, 3) == 1
        assert buf.youngest_assignment(RA, 9) == 3
        assert buf.youngest_assignment(RB, 9) == 4
        assert buf.remove_min().youngest_assignment(RA, 3) is None
        assert buf.truncate_before(3).youngest_assignment(RA, 9) == 1
