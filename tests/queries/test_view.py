"""Tests for materialized views (incremental view maintenance)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.bag import Bag
from repro.data.pmap import PMap
from repro.lang.types import TInt, TPair
from repro.queries import Query

from tests.strategies import REGISTRY


def const(name):
    return REGISTRY.constant(name)


def revenue_view(rows=None):
    query = (
        Query.source("sales", TPair(TInt, TInt), REGISTRY)
        .group_sum(key=lambda r: const("fst")(r), value=lambda r: const("snd")(r))
    )
    return query.materialize(rows)


class TestLifecycle:
    def test_load_then_read(self):
        view = revenue_view([(1, 10), (2, 20)])
        assert view.value == PMap({1: 10, 2: 20})

    def test_mutations_before_load_rejected(self):
        view = revenue_view()
        with pytest.raises(RuntimeError):
            view.insert((1, 10))
        with pytest.raises(RuntimeError):
            view.value
        with pytest.raises(RuntimeError):
            view.batch()

    def test_load_accepts_bags(self):
        view = revenue_view(Bag.from_counts([((1, 5), 3)]))
        assert view.value == PMap({1: 15})

    def test_repr(self):
        assert "empty" in repr(revenue_view())
        assert "loaded" in repr(revenue_view([]))


class TestMutations:
    def test_insert(self):
        view = revenue_view([(1, 10)])
        view.insert((1, 5), (2, 7))
        assert view.value == PMap({1: 15, 2: 7})

    def test_delete(self):
        view = revenue_view([(1, 10), (1, 5)])
        view.delete((1, 5))
        assert view.value == PMap({1: 10})

    def test_delete_to_zero_removes_key(self):
        view = revenue_view([(1, 10)])
        view.delete((1, 10))
        assert view.value == PMap.empty()

    def test_update(self):
        view = revenue_view([(1, 10)])
        view.update((1, 10), (1, 99))
        assert view.value == PMap({1: 99})

    def test_batch_is_one_step(self):
        view = revenue_view([(1, 10)])
        steps_before = view.program.steps
        with view.batch():
            view.insert((1, 1))
            view.insert((1, 2))
            view.delete((1, 10))
        assert view.program.steps == steps_before + 1
        assert view.value == PMap({1: 3})

    def test_empty_batch_is_free(self):
        view = revenue_view([(1, 10)])
        steps_before = view.program.steps
        with view.batch():
            pass
        assert view.program.steps == steps_before

    def test_batch_aborts_on_exception(self):
        view = revenue_view([(1, 10)])
        with pytest.raises(RuntimeError):
            with view.batch():
                view.insert((1, 5))
                raise RuntimeError("boom")
        # Aborted batch applied nothing.
        assert view.value == PMap({1: 10})

    def test_verify_against_recompute(self):
        view = revenue_view([(k % 5, k) for k in range(200)])
        for k in range(30):
            view.insert((k % 3, k))
        view.delete((0, 0))
        assert view.verify()


class TestSelfMaintainability:
    def test_group_sum_view_is_self_maintainable(self):
        assert revenue_view([]).self_maintainable

    def test_filtered_view_is_self_maintainable(self):
        query = (
            Query.source("sales", TPair(TInt, TInt), REGISTRY)
            .where(lambda r: const("leqInt")(50, const("snd")(r)))
            .count()
        )
        assert query.materialize([]).self_maintainable

    def test_maintenance_never_scans_base_table(self):
        view = revenue_view([(k % 7, k) for k in range(500)])
        folds_after_load = view.program.stats.calls("foldBag")
        for k in range(20):
            view.insert((k, 1))
        assert view.program.stats.calls("foldBag") == folds_after_load


class TestPropertyBased:
    rows = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-20, max_value=20),
        ),
        max_size=8,
    )

    @settings(max_examples=40, deadline=None)
    @given(rows, rows, rows)
    # Empty table, insert (0, 0): the group's sum is 0, so recompute's
    # singleton fold must drop the zero entry as maintenance does.
    @example([], [(0, 0)], [])
    def test_random_mutation_scripts(self, base, inserts, deletes):
        view = revenue_view(base)
        for record in inserts:
            view.insert(record)
        for record in deletes:
            view.delete(record)
        assert view.verify()

    @settings(max_examples=25, deadline=None)
    @given(rows, rows)
    def test_batched_equals_sequential(self, base, updates):
        batched = revenue_view(base)
        sequential = revenue_view(base)
        with batched.batch():
            for record in updates:
                batched.insert(record)
        for record in updates:
            sequential.insert(record)
        assert batched.value == sequential.value
