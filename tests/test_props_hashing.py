"""Property tests pinning the hash/__eq__ contract of the state core.

The subsumption table and the engine's trial-step cache key states by
structural hash (see ``repro.engine.subsume``), so the invariant every
test here defends is the Python hashing contract plus the two
properties the incremental maintenance relies on:

* agreement: ``a == b`` implies ``hash(a) == hash(b)`` — for every
  component a configuration is built from;
* path-independence: a memory's incrementally-maintained hash equals
  the from-scratch hash of the same cells, whatever order the writes
  arrived in (the XOR combination is commutative and invertible).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import Config
from repro.core.lattice import PUBLIC, SECRET
from repro.core.memory import Memory, Region
from repro.core.program import Program
from repro.core.rob import ReorderBuffer
from repro.core.rsb import ReturnStackBuffer
from repro.core.transient import (TBr, TCallMarker, TFence, TJmpi, TJump,
                                  TLoad, TOp, TStore, TValue,
                                  assigned_register)
from repro.core.values import Reg, Value, operands
from repro.litmus import all_cases

labels = st.sampled_from([PUBLIC, SECRET])
payloads = st.integers(min_value=0, max_value=2**16)
addrs = st.integers(min_value=0, max_value=15)
writes = st.lists(st.tuples(addrs, payloads, labels), max_size=24)


def _apply(mem, ws):
    for addr, payload, label in ws:
        mem = mem.write(addr, Value(payload, label))
    return mem


class TestMemoryHashProps:
    @given(writes)
    def test_incremental_equals_recomputed(self, ws):
        """The write-maintained hash equals a fresh Memory built from
        the same final cells (the from-scratch __init__ path)."""
        mem = _apply(Memory(), ws)
        rebuilt = Memory(mem.cells(), mem.regions())
        assert mem == rebuilt
        assert hash(mem) == hash(rebuilt)

    @given(writes)
    def test_write_order_independent(self, ws):
        """Any permutation of writes reaching the same final cells
        yields the same hash."""
        mem = _apply(Memory(), ws)
        last = {}      # only the final write per address survives
        for addr, payload, label in ws:
            last[addr] = (payload, label)
        shuffled = [(a, p, l) for a, (p, l) in last.items()]
        random.Random(0).shuffle(shuffled)
        other = _apply(Memory(), shuffled)
        assert mem == other
        assert hash(mem) == hash(other)

    @given(writes)
    def test_write_all_equals_writes(self, ws):
        one_by_one = _apply(Memory(), ws)
        batched = Memory().write_all(
            (addr, Value(p, l)) for addr, p, l in ws)
        assert one_by_one == batched
        assert hash(one_by_one) == hash(batched)

    @given(writes, writes)
    def test_eq_implies_hash_eq(self, ws_a, ws_b):
        a = _apply(Memory(), ws_a)
        b = _apply(Memory(), ws_b)
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=25)
    @given(writes)
    def test_compaction_preserves_hash(self, ws):
        """Force the overlay past the compaction threshold: folding the
        delta into a fresh base must not move the hash."""
        mem = _apply(Memory(), ws)
        # Map 40 distinct addresses (> _COMPACT_LIMIT forces at least
        # one fold of the delta into a fresh base) ...
        for addr in range(40):
            mem = mem.write(addr, Value(addr, PUBLIC))
        h = hash(mem)
        # ... then rewrite every mapped cell with its existing value:
        # contents are fixed, so the hash must not move, across more
        # compactions.
        for addr in range(40):
            mem = mem.write(addr, mem.read(addr))
        assert hash(mem) == h
        rebuilt = Memory(mem.cells(), mem.regions())
        assert mem == rebuilt and hash(rebuilt) == h

    @given(writes)
    def test_symbolic_cells_keep_contract(self, ws):
        """Non-int payloads contribute nothing to the hash, but
        equality still distinguishes them — hash collision, not hash
        disagreement, which the contract permits."""
        base = _apply(Memory(), ws)
        a = base.write(99, Value("sym_x", PUBLIC))
        b = base.write(99, Value("sym_y", PUBLIC))
        assert a != b
        assert hash(a) == hash(b) == hash(base.write(99, Value("sym_x",
                                                               SECRET)))

    def test_regions_do_not_affect_hash_but_do_affect_nothing_else(self):
        """with_region initialisation flows through the O(n) __init__
        path; its hash still agrees with an incrementally-built twin."""
        region = Region("A", 0x40, 4, PUBLIC)
        mem = Memory().with_region(region, [1, 2, 3, 4])
        twin = _apply(Memory(), [(0x40 + i, i + 1, PUBLIC)
                                 for i in range(4)])
        assert mem.cells() == twin.cells()
        assert hash(mem) == hash(twin)


class TestBufferHashProps:
    @given(st.lists(payloads, max_size=8))
    def test_rob_eq_implies_hash_eq(self, vals):
        a = ReorderBuffer()
        b = ReorderBuffer()
        for v in vals:
            _i, a = a.insert_next(TValue(Reg("r0"), Value(v)))
            _i, b = b.insert_next(TValue(Reg("r0"), Value(v)))
        assert a == b
        assert hash(a) == hash(b)

    @given(st.lists(payloads, min_size=1, max_size=8))
    def test_rob_empty_buffers_share_hash(self, vals):
        """Draining a buffer leaves an empty one equal to (and hashing
        like) a fresh one, whatever base index it drained to."""
        buf = ReorderBuffer()
        for v in vals:
            _i, buf = buf.insert_next(TValue(Reg("r0"), Value(v)))
        drained = buf.remove_min(len(vals))
        assert drained == ReorderBuffer()
        assert hash(drained) == hash(ReorderBuffer())

    @given(st.lists(payloads, min_size=1, max_size=8))
    def test_rob_unresolved_entries_hash(self, vals):
        a = ReorderBuffer()
        b = ReorderBuffer()
        for v in vals:
            _i, a = a.insert_next(TOp(Reg("r1"), "mov", operands(v)))
            _i, b = b.insert_next(TOp(Reg("r1"), "mov", operands(v)))
        assert a == b and hash(a) == hash(b)

    @given(st.lists(st.tuples(st.booleans(), payloads), max_size=8))
    def test_rsb_eq_implies_hash_eq(self, ops):
        a = ReturnStackBuffer()
        b = ReturnStackBuffer()
        for i, (is_push, target) in enumerate(ops):
            if is_push:
                a, b = a.push(i, target), b.push(i, target)
            else:
                a, b = a.pop(i), b.pop(i)
        assert a == b
        assert hash(a) == hash(b)


class TestConfigProgramHashProps:
    def test_litmus_configs_agree(self):
        """Two independent make_config() calls build equal configs that
        hash equal — the exact situation the subsumption table keys on."""
        for case in all_cases():
            a, b = case.make_config(), case.make_config()
            assert a == b, case.name
            assert hash(a) == hash(b), case.name
            assert a.program == b.program if hasattr(a, "program") else True

    def test_litmus_programs_agree(self):
        for case in all_cases():
            assert hash(case.program) == hash(case.program)

    @given(writes, payloads)
    def test_config_eq_implies_hash_eq(self, ws, r0):
        mem = _apply(Memory(), ws)
        a = Config.initial({"r0": r0}, mem, pc=0)
        b = Config.initial({"r0": r0}, _apply(Memory(), ws), pc=0)
        assert a == b
        assert hash(a) == hash(b)

    @given(writes, payloads)
    def test_config_hash_memoised(self, ws, r0):
        cfg = Config.initial({"r0": r0}, _apply(Memory(), ws), pc=0)
        assert hash(cfg) == hash(cfg)
        assert cfg.__dict__["_shash"] == hash(cfg)

    def test_stepped_configs_agree_across_runs(self):
        """Configurations reached by re-running the machine over the
        same schedule are equal and hash equal (Theorem B.1: the pure
        step relation is a function of configuration and directive)."""
        from repro.core.machine import Machine
        from repro.litmus import find_case
        from repro.pitchfork import enumerate_schedules
        case = find_case("kocher_01")
        machine = Machine(case.program, rsb_policy=case.rsb_policy)
        schedule = enumerate_schedules(machine, case.make_config(),
                                       bound=8)[0]
        runs = []
        for _ in range(2):
            cfg = case.make_config()
            seen = [cfg]
            for directive in schedule:
                cfg, _leak = machine.step(cfg, directive)
                seen.append(cfg)
            runs.append(seen)
        assert len(runs[0]) == len(runs[1]) > 1
        for a, b in zip(*runs):
            assert a == b
            assert hash(a) == hash(b)


# -- the reorder buffer's scheduler caches ---------------------------------

_R0, _R1, _R2 = Reg("r0"), Reg("r1"), Reg("r2")
_ENTRIES = [
    TOp(_R0, "add", (_R1, Value(1))),
    TOp(_R1, "mov", (_R0,)),
    TValue(_R0, Value(3)),
    TValue(_R2, Value(4, SECRET)),
    TLoad(_R1, (_R0,), pp=5),
    TLoad(_R2, (_R0,), pp=6, pred=(Value(7), 1)),
    TStore(_R0, (_R1,)),
    TStore(Value(2), (_R1,)),
    TStore(Value(2), (_R1,), Value(9)),
    TBr("eq", (_R0, Value(0)), 3, (3, 4)),
    TJmpi((_R1,), 8),
    TFence(),
    TJump(4),
    TCallMarker(),
]
entries = st.sampled_from(_ENTRIES)
buffer_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(entries, min_size=1, max_size=6)),
    st.tuples(st.just("set"), st.integers(0, 15), entries),
    st.tuples(st.just("retire"), st.integers(1, 3)),
    st.tuples(st.just("truncate"), st.integers(-2, 16)),
), max_size=30)


def _history(ops, hash_each):
    """Every buffer along a random fetch/execute/retire/rollback
    history; ``hash_each`` hashes each one on the way, so the next
    derives its hash incrementally instead of lazily from scratch."""
    buf = ReorderBuffer()
    out = [buf]
    for op in ops:
        if op[0] == "insert":
            buf = buf.append_all(tuple(op[1]))
        elif op[0] == "set":
            if buf:
                buf = buf.set(buf.min_index() + op[1] % len(buf), op[2])
        elif op[0] == "retire":
            if buf:
                buf = buf.remove_min(min(op[1], len(buf)))
        else:
            buf = buf.truncate_before(buf.min_index() + op[1])
        if hash_each:
            hash(buf)
        out.append(buf)
    return out


def _fresh(buf):
    """The same value, built from scratch."""
    return ReorderBuffer(buf.min_index(), tuple(e for _i, e in buf.items()))


def _can_act(entry):
    return (isinstance(entry, (TOp, TBr, TJmpi))
            or (isinstance(entry, TLoad) and entry.pred is None)
            or (isinstance(entry, TStore) and not entry.fully_resolved()))


class TestBufferCacheProps:
    """Each fact a mutation maintains on the buffer equals the fact
    recomputed from the buffer's value."""

    @given(buffer_ops, st.booleans())
    def test_caches_equal_recomputation(self, ops, hash_each):
        for buf in _history(ops, hash_each):
            items = list(buf.items())
            fence = next((i for i, e in items if isinstance(e, TFence)),
                         None)
            assert buf.first_fence() == fence
            assert list(buf.active_items()) == [(i, e) for i, e in items
                                                if _can_act(e)]
            for reg in (_R0, _R1, _R2):
                for i in range(buf.min_index() - 1, buf.max_index() + 2):
                    walk = [j for j, e in items
                            if j < i and assigned_register(e) == reg]
                    assert buf.youngest_assignment(reg, i) == \
                        (walk[-1] if walk else None)
            assert hash(buf) == hash(_fresh(buf))

    @given(buffer_ops)
    def test_hash_independent_of_when_it_was_first_taken(self, ops):
        eager = _history(ops, hash_each=True)
        lazy = _history(ops, hash_each=False)
        for a, b in zip(eager, lazy):
            assert a == b and hash(a) == hash(b)

    @given(buffer_ops)
    def test_equal_buffers_from_different_histories_hash_equal(self, ops):
        """Rebuild the final buffer another way — from an empty buffer at
        its base, each slot fetched as a fence and then rewritten — and
        the two must be equal and hash equal."""
        buf = _history(ops, hash_each=True)[-1]
        twin = ReorderBuffer(buf.min_index() if buf else 1)
        hash(twin)
        for _i, entry in buf.items():
            i, twin = twin.insert_next(TFence())
            twin = twin.set(i, entry)
        assert twin == buf
        assert hash(twin) == hash(buf)
        assert twin.first_fence() == buf.first_fence()
        assert list(twin.active_items()) == list(buf.active_items())

    @given(st.integers(1, 50), st.integers(1, 50), buffer_ops)
    def test_empty_buffers_hash_equal_at_any_base(self, b1, b2, ops):
        drained = _history(ops, hash_each=True)[-1]
        drained = drained.remove_min(len(drained))
        for empty in (ReorderBuffer(b1), ReorderBuffer(b2), drained):
            assert empty == ReorderBuffer()
            assert hash(empty) == hash(ReorderBuffer())
