"""Properties of the ``_LazyInput`` queue and its in-place absorption.

The queue composes pending changes into its unfolded tail: the first
composition copies the tail into a delta the queue owns, and later
pushes of the same group absorb into it in place, touching only the
pushed change's keys.  Every regime must agree with the naive
semantics -- folding the queue equals applying every change
sequentially with ``⊕`` -- roll back exactly, and never mutate a change
it was given.
"""

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.bag import Bag
from repro.data.change_values import GroupChange, Replace, oplus_value
from repro.data.group import BAG_GROUP, INT_ADD_GROUP, map_group
from repro.data.pmap import PMap
from repro.incremental.caching import CachingIncrementalProgram
from repro.incremental.engine import IncrementalProgram, _LazyInput
from repro.lang.parser import parse
from repro.mapreduce.skeleton import histogram_term
from repro.plugins.registry import standard_registry

MAP_OF_BAGS = map_group(BAG_GROUP)


int_changes = st.one_of(
    st.integers(min_value=-9, max_value=9).map(
        lambda delta: GroupChange(INT_ADD_GROUP, delta)
    ),
    st.integers(min_value=-50, max_value=50).map(Replace),
)

small_bags = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
).map(Bag)

bag_changes = st.one_of(
    st.integers(min_value=0, max_value=9).map(
        lambda element: GroupChange(BAG_GROUP, Bag.singleton(element))
    ),
    small_bags.map(lambda delta: GroupChange(BAG_GROUP, delta)),
    st.lists(
        st.integers(min_value=0, max_value=9), max_size=3
    ).map(lambda elements: Replace(Bag.from_iterable(elements))),
)

maps_of_bags = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    small_bags.filter(bool),
    max_size=3,
).map(PMap)

map_changes = st.one_of(
    maps_of_bags.map(lambda delta: GroupChange(MAP_OF_BAGS, delta)),
    maps_of_bags.map(Replace),
)

#: One strategy per input kind, with a base value each.
KINDS = {
    "int": (7, int_changes),
    "bag": (Bag.of(1, 2, 3), bag_changes),
    "map": (PMap({0: Bag.of(1), 2: Bag.of(2, 2)}), map_changes),
}
KINDS_BY_BASE = {type(base): changes for base, changes in KINDS.values()}


@st.composite
def kind_and_changes(draw, min_size=0, max_size=12):
    kind = draw(st.sampled_from(sorted(KINDS)))
    base, changes = KINDS[kind]
    return base, draw(st.lists(changes, min_size=min_size, max_size=max_size))


def naive_fold(value, changes):
    for change in changes:
        value = oplus_value(value, change)
    return value


class TestFoldEqualsNaive:
    @settings(deadline=None)
    @given(st.integers(min_value=-50, max_value=50), st.lists(int_changes, max_size=12))
    def test_int_queue(self, value, changes):
        lazy = _LazyInput(value)
        for change in changes:
            lazy.push(change)
        assert lazy.current() == naive_fold(value, changes)

    @settings(deadline=None)
    @given(st.lists(bag_changes, max_size=12))
    def test_bag_queue(self, changes):
        value = Bag.of(1, 2, 3)
        lazy = _LazyInput(value)
        for change in changes:
            lazy.push(change)
        assert lazy.current() == naive_fold(value, changes)

    @settings(deadline=None)
    @given(st.lists(int_changes, max_size=12), st.lists(int_changes, max_size=12))
    def test_interleaved_folds(self, first, second):
        """Materializing mid-stream (as a verifier would) does not change
        the final value."""
        value = 7
        lazy = _LazyInput(value)
        for change in first:
            lazy.push(change)
        middle = lazy.current()
        assert middle == naive_fold(value, first)
        for change in second:
            lazy.push(change)
        assert lazy.current() == naive_fold(middle, second)


class TestInPlaceAbsorption:
    @settings(deadline=None)
    @given(kind_and_changes(), st.lists(st.booleans(), max_size=12))
    def test_absorption_equals_naive_fold(self, case, folds):
        """Int, bag, map-of-bags and ``Replace`` changes, with reads
        (folds) between pushes and a transaction around each push, as
        the engine runs them."""
        base, changes = case
        lazy = _LazyInput(base)
        for index, change in enumerate(changes):
            lazy.snapshot()
            lazy.push(change)
            if index < len(folds) and folds[index]:
                assert lazy.current() == naive_fold(base, changes[: index + 1])
        assert lazy.current() == naive_fold(base, changes)
        assert lazy.folds <= lazy.advances

    @settings(deadline=None)
    @given(
        kind_and_changes(max_size=6),
        st.data(),
        st.booleans(),
    )
    def test_snapshot_pushes_restore_is_exact(self, case, data, read):
        base, committed = case
        aborted = data.draw(st.lists(KINDS_BY_BASE[type(base)], max_size=6))
        lazy = _LazyInput(base)
        for change in committed:
            lazy.snapshot()
            lazy.push(change)
        snapshot = lazy.snapshot()
        log_before = copy.deepcopy(lazy._changes)
        value_before = lazy._value
        counters_before = (lazy.advances, lazy.materializations)
        for change in aborted:
            lazy.push(change)
        if read:
            lazy.current()
        lazy.restore(snapshot)

        assert lazy._changes == log_before
        assert lazy._value is value_before
        assert (lazy.advances, lazy.materializations) == counters_before
        # The restored queue keeps absorbing correctly afterwards.
        for change in aborted:
            lazy.snapshot()
            lazy.push(change)
        assert lazy.current() == naive_fold(base, committed + aborted)

    @settings(deadline=None)
    @given(kind_and_changes(), st.lists(st.booleans(), max_size=12))
    def test_pushed_changes_are_never_mutated(self, case, folds):
        base, changes = case
        copies = copy.deepcopy(changes)
        lazy = _LazyInput(base)
        for index, change in enumerate(changes):
            lazy.snapshot()
            lazy.push(change)
            if index < len(folds) and folds[index]:
                lazy.current()
        # Pushing one change object twice must not alias it either.
        if changes:
            lazy.push(changes[-1])
        lazy.current()
        assert changes == copies

    def test_absorbs_count_as_compositions(self):
        from repro.observability import observing

        lazy = _LazyInput(Bag.empty())
        with observing() as hub:
            before = hub.metrics.counter("changes.compose").value
            for element in range(5):
                lazy.push(GroupChange(BAG_GROUP, Bag.singleton(element)))
            assert hub.metrics.counter("changes.compose").value == before + 4

    def test_failed_absorb_leaves_the_tail_unchanged(self):
        lazy = _LazyInput(PMap.empty())
        lazy.push(GroupChange(MAP_OF_BAGS, PMap({0: Bag.of(1)})))
        lazy.push(GroupChange(MAP_OF_BAGS, PMap({1: Bag.of(2)})))
        before = copy.deepcopy(lazy._changes)
        corrupt = GroupChange(MAP_OF_BAGS, PMap({2: Bag.of(3), 0: 5}))
        with pytest.raises(TypeError):
            lazy.push(corrupt)
        assert lazy._changes == before
        assert lazy.current() == PMap({0: Bag.of(1), 1: Bag.of(2)})


class TestAbsorptionCost:
    """A push writes and copies O(|dv|) entries, however large the
    pending delta it composes into has grown."""

    @staticmethod
    def count_copies(monkeypatch):
        copied = [0]
        for cls in (Bag, PMap):
            original = cls.__init__

            def counting(self, entries=None, _original=original):
                copied[0] += len(entries) if entries else 0
                _original(self, entries)

            monkeypatch.setattr(cls, "__init__", counting)
        return copied

    @pytest.mark.parametrize("kind", ["bag", "map"])
    def test_push_work_is_flat_in_pending_size(self, kind, monkeypatch):
        def change(key):
            if kind == "bag":
                return GroupChange(BAG_GROUP, Bag.singleton(key))
            return GroupChange(MAP_OF_BAGS, PMap.singleton(key, Bag.singleton(key)))

        copied = self.count_copies(monkeypatch)
        work = {}
        for size in (10, 100, 1_000, 10_000):
            lazy = _LazyInput(Bag.empty() if kind == "bag" else PMap.empty())
            for key in range(size):
                lazy.snapshot()
                lazy.push(change(key))
            assert lazy.pending_changes == 1
            assert len(lazy._changes[-1].delta) == size
            # One push of a new key and one of an existing key.
            probes = [change(size), change(0)]
            lazy.snapshot()
            copied[0] = 0
            for probe in probes:
                lazy.push(probe)
            work[size] = len(lazy._undo) + copied[0]
        assert work[10] > 0
        assert len(set(work.values())) == 1, work


class TestComposeCap:
    """Pushes compose into one tail entry at any delta size."""

    def test_scalar_deltas_always_compose(self):
        lazy = _LazyInput(0)
        for _ in range(100):
            lazy.push(GroupChange(INT_ADD_GROUP, 1))
        assert lazy.pending_changes == 1
        assert lazy.current() == 100

    def test_replace_collapses_queue_tail(self):
        lazy = _LazyInput(5)
        lazy.push(GroupChange(INT_ADD_GROUP, 3))
        lazy.push(Replace(42))
        assert lazy.pending_changes == 1
        assert lazy.current() == 42


class TestSnapshotRestore:
    def test_roundtrip_undoes_pushes(self):
        lazy = _LazyInput(Bag.of(1))
        lazy.push(GroupChange(BAG_GROUP, Bag.singleton(2)))
        snapshot = lazy.snapshot()
        lazy.push(GroupChange(BAG_GROUP, Bag.singleton(3)))
        lazy.push(Replace(Bag.empty()))
        lazy.restore(snapshot)
        assert lazy.current() == Bag.of(1, 2)

    def test_roundtrip_undoes_materialization(self):
        lazy = _LazyInput(Bag.of(1))
        snapshot = lazy.snapshot()
        lazy.push(GroupChange(BAG_GROUP, Bag.singleton(2)))
        assert lazy.current() == Bag.of(1, 2)  # folds the queue
        lazy.restore(snapshot)
        assert lazy.current() == Bag.of(1)
        assert lazy.advances == 0

    @settings(deadline=None)
    @given(st.lists(int_changes, max_size=8), st.lists(int_changes, max_size=8))
    def test_restore_is_exact(self, committed, aborted):
        lazy = _LazyInput(3)
        for change in committed:
            lazy.push(change)
        snapshot = lazy.snapshot()
        for change in aborted:
            lazy.push(change)
        if aborted:
            lazy.current()
        lazy.restore(snapshot)
        assert lazy.current() == naive_fold(3, committed)


class TestFoldedPrefixCache:
    """``current()`` remembers the already-folded prefix: repeated reads
    of an unchanged queue re-apply *zero* changes (previously every read
    re-folded the whole queue from the base value)."""

    def test_repeated_current_folds_nothing_new(self):
        lazy = _LazyInput(Bag.of(1))
        for element in range(2, 7):
            lazy.push(GroupChange(BAG_GROUP, Bag.singleton(element)))
        expected = Bag.of(1, 2, 3, 4, 5, 6)

        assert lazy.current() == expected
        folds_after_first = lazy.folds
        assert folds_after_first > 0

        from repro.observability import observing

        with observing() as hub:
            before = hub.metrics.counter("changes.oplus").value
            for _ in range(10):
                assert lazy.current() == expected
            assert hub.metrics.counter("changes.oplus").value == before
        assert lazy.folds == folds_after_first

    def test_new_pushes_fold_only_the_suffix(self):
        lazy = _LazyInput(Bag.of(1))
        lazy.push(GroupChange(BAG_GROUP, Bag.singleton(2)))
        lazy.push(GroupChange(BAG_GROUP, Bag.from_iterable([3, 3])))
        assert lazy.current() == Bag.from_iterable([1, 2, 3, 3])
        folded = lazy.folds
        assert folded > 0

        # A folded tail absorbs nothing more: a fresh push opens one new
        # queue entry, and the next read folds exactly that entry, not
        # the whole history again.
        lazy.push(GroupChange(BAG_GROUP, Bag.singleton(4)))
        assert lazy.pending_changes == 1
        assert lazy.current() == Bag.from_iterable([1, 2, 3, 3, 4])
        assert lazy.folds == folded + 1


# -- both engines ---------------------------------------------------------------

REGISTRY = standard_registry()
GRAND_TOTAL = r"\xs ys -> foldBag gplus id (merge xs ys)"
PRODUCT = (
    r"\xs ys -> let tx = foldBag gplus id xs in "
    r"let ty = foldBag gplus id ys in mul tx ty"
)
ENGINES = {
    "plain": IncrementalProgram,
    "caching": CachingIncrementalProgram,
}
#: (term builder, initial inputs, strategy of one change row)
bag_rows = st.tuples(bag_changes, bag_changes)
PROGRAMS = {
    "grand_total": (
        lambda: parse(GRAND_TOTAL, REGISTRY),
        (Bag.of(1, 2, 3), Bag.of(10, 20)),
        bag_rows,
    ),
    "product": (
        lambda: parse(PRODUCT, REGISTRY),
        (Bag.of(1, 2, 3), Bag.of(10, 20)),
        bag_rows,
    ),
    "histogram": (
        lambda: histogram_term(REGISTRY),
        (PMap({0: Bag.of(1, 2), 1: Bag.of(2)}),),
        st.tuples(map_changes),
    ),
}


@functools.lru_cache(maxsize=None)
def _compiled(engine, program):
    return ENGINES[engine](PROGRAMS[program][0](), REGISTRY)


def engine_program(engine, program):
    """A compiled engine, built once per (engine, program) and freshly
    initialized per call."""
    built = _compiled(engine, program)
    built.initialize(*PROGRAMS[program][1])
    return built


ENGINE_CASES = [
    (engine, program)
    for engine in ENGINES
    for program in PROGRAMS
]


@pytest.mark.parametrize("engine,program", ENGINE_CASES)
class TestEngines:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_coalesced_batch_equals_per_row_steps(self, engine, program, data):
        rows = PROGRAMS[program][2]
        batches = data.draw(
            st.lists(st.lists(rows, min_size=1, max_size=4), max_size=4)
        )
        coalesced = engine_program(engine, program)
        for batch in batches:
            coalesced.step_batch(batch, coalesce=True)
        coalesced_state = (coalesced.output, list(coalesced.current_inputs()))
        assert coalesced.verify()

        stepped = engine_program(engine, program)
        for batch in batches:
            for row in batch:
                stepped.step(*row)
        assert (stepped.output, list(stepped.current_inputs())) == coalesced_state

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_step_changes_are_never_mutated(self, engine, program, data):
        rows = PROGRAMS[program][2]
        singles = data.draw(st.lists(rows, max_size=6))
        batches = data.draw(
            st.lists(st.lists(rows, min_size=1, max_size=4), max_size=3)
        )
        copies = copy.deepcopy((singles, batches))
        live = engine_program(engine, program)
        for row in singles:
            live.step(*row)
        for batch in batches:
            live.step_batch(batch)
        for row in singles:
            live.step(*row)
        assert live.verify()
        assert (singles, batches) == copies

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_held_outputs_never_change(self, engine, program, data):
        # A reader may hold any output it was served; a later step must
        # build a new output, not rewrite the one the reader holds.
        rows = PROGRAMS[program][2]
        singles = data.draw(st.lists(rows, max_size=6))
        batches = data.draw(
            st.lists(st.lists(rows, min_size=1, max_size=4), max_size=3)
        )
        live = engine_program(engine, program)
        held = [(live.output, copy.deepcopy(live.output))]
        for row in singles:
            live.step(*row)
            held.append((live.output, copy.deepcopy(live.output)))
        for batch in batches:
            live.step_batch(batch)
            held.append((live.output, copy.deepcopy(live.output)))
        assert live.verify()
        for output, snapshot in held:
            assert output == snapshot
