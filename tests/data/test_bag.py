"""Unit and property tests for ``repro.data.bag``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.bag import Bag
from repro.data.group import AbelianGroup, BAG_GROUP, INT_ADD_GROUP, map_group
from repro.data.pmap import PMap

from tests.strategies import bags_of_ints


class TestConstruction:
    def test_empty_bag_is_falsy(self):
        assert not Bag.empty()
        assert Bag.empty().is_empty()
        assert Bag.empty().distinct_size() == 0

    def test_of_counts_duplicates(self):
        bag = Bag.of(1, 1, 2)
        assert bag.multiplicity(1) == 2
        assert bag.multiplicity(2) == 1
        assert bag.multiplicity(3) == 0

    def test_zero_multiplicities_are_dropped(self):
        assert Bag({1: 0, 2: 3}) == Bag({2: 3})
        assert 1 not in Bag({1: 0})

    def test_from_counts_sums_duplicates(self):
        bag = Bag.from_counts([(1, 2), (1, -2), (2, 1)])
        assert bag == Bag.of(2)

    def test_non_int_multiplicity_rejected(self):
        with pytest.raises(TypeError):
            Bag({1: 1.5})

    def test_singleton(self):
        assert Bag.singleton("word") == Bag.of("word")

    def test_empty_is_interned(self):
        assert Bag.empty() is Bag.empty()


class TestGroupOperations:
    def test_merge_sums_multiplicities(self):
        # The paper's example: merge {{1̄, 2}} {{1, 1, 5̄}} = {{1, 2, 5̄}}.
        left = Bag({1: -1, 2: 1})
        right = Bag({1: 2, 5: -1})
        assert left.merge(right) == Bag({1: 1, 2: 1, 5: -1})

    def test_negate_example(self):
        # negate {{1, 1, 5̄}} = {{1̄, 1̄, 5}}.
        assert Bag({1: 2, 5: -1}).negate() == Bag({1: -2, 5: 1})

    def test_merge_with_wrong_type_raises(self):
        with pytest.raises(TypeError):
            Bag.of(1).merge([1])

    @given(bags_of_ints, bags_of_ints)
    def test_merge_commutative(self, left, right):
        assert left.merge(right) == right.merge(left)

    @given(bags_of_ints, bags_of_ints, bags_of_ints)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(bags_of_ints)
    def test_empty_is_identity(self, bag):
        assert bag.merge(Bag.empty()) == bag
        assert Bag.empty().merge(bag) == bag

    @given(bags_of_ints)
    def test_negate_is_inverse(self, bag):
        assert bag.merge(bag.negate()) == Bag.empty()

    @given(bags_of_ints, bags_of_ints)
    def test_difference_then_merge_restores(self, new, old):
        assert old.merge(new.difference(old)) == new


class TestQueries:
    def test_sizes(self):
        bag = Bag({1: 2, 2: -3})
        assert bag.distinct_size() == 2
        assert bag.total_size() == 5
        assert bag.signed_size() == -1

    def test_is_proper(self):
        assert Bag.of(1, 2).is_proper()
        assert not Bag({1: -1}).is_proper()

    def test_expand(self):
        assert sorted(Bag.of(1, 1, 2).expand()) == [1, 1, 2]

    def test_expand_negative_raises(self):
        with pytest.raises(ValueError):
            list(Bag({1: -1}).expand())

    def test_iteration_yields_counts(self):
        assert dict(Bag.of(1, 1)) == {1: 2}


class TestStructureOps:
    def test_map_merges_clashes(self):
        assert Bag.of(1, -1).map(abs) == Bag({1: 2})

    def test_map_cancellation(self):
        # f(1) == f(-1) with opposite multiplicities cancels to nothing.
        assert Bag({1: 1, -1: -1}).map(abs) == Bag.empty()

    def test_filter(self):
        assert Bag.of(1, 2, 3).filter(lambda x: x > 1) == Bag.of(2, 3)

    def test_flat_map_multiplies_multiplicities(self):
        bag = Bag({1: 2})
        result = bag.flat_map(lambda x: Bag({x: 3}))
        assert result == Bag({1: 6})

    def test_flat_map_negative(self):
        bag = Bag({1: -1})
        assert bag.flat_map(lambda x: Bag({x: 2})) == Bag({1: -2})

    @given(bags_of_ints, bags_of_ints)
    def test_map_is_homomorphism(self, left, right):
        fn = lambda x: x % 3
        assert left.merge(right).map(fn) == left.map(fn).merge(right.map(fn))

    def test_fold_group_sums(self):
        assert Bag.of(1, 2, 3).fold_group(INT_ADD_GROUP, lambda x: x) == 6

    def test_fold_group_negative_multiplicities_invert(self):
        assert Bag({5: -2}).fold_group(INT_ADD_GROUP, lambda x: x) == -10

    def test_fold_group_empty_is_zero(self):
        assert Bag.empty().fold_group(INT_ADD_GROUP, lambda x: x) == 0

    @given(bags_of_ints, bags_of_ints)
    def test_fold_group_is_homomorphism(self, left, right):
        # foldBag g f (merge a b) = foldBag g f a • foldBag g f b.
        fold = lambda bag: bag.fold_group(INT_ADD_GROUP, lambda x: x * x)
        assert fold(left.merge(right)) == fold(left) + fold(right)


MAP_OF_INTS = map_group(INT_ADD_GROUP)
MAP_OF_MAPS_OF_BAGS = map_group(map_group(BAG_GROUP))


def without_bulk_fold(group):
    """The same group with ``fold_group``'s bulk path switched off."""
    return AbelianGroup(
        group.name, group.merge, group.inverse, group.zero, args=group.args
    )


def reference_fold(bag, group, fn):
    """``foldBag``'s defining equations, one plain ``merge`` per
    occurrence: no singleton fast path, no ``scale``, no bulk fold."""
    result = group.zero
    for element, count in bag.counts():
        image = fn(element) if count > 0 else group.inverse(fn(element))
        for _ in range(abs(count)):
            result = group.merge(result, image)
    return result


elements = st.integers(min_value=0, max_value=3)
fold_bags = st.dictionaries(
    elements,
    st.integers(min_value=-3, max_value=3).filter(lambda count: count != 0),
    max_size=4,
).map(Bag)
#: ``singletonMap k 0``-style images: zero values at the top level.
int_map_images = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
).map(PMap)
#: Maps of maps of bags whose inner levels are canonical, but whose
#: top level may hold the inner group's zero (an empty inner map).
nonempty_bags = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-2, max_value=2).filter(lambda count: count != 0),
    min_size=1,
    max_size=2,
).map(Bag)
nested_map_images = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.dictionaries(
        st.integers(min_value=0, max_value=2), nonempty_bags, max_size=2
    ).map(PMap),
    max_size=3,
).map(PMap)


class TestFoldGroupPaths:
    """``fold_group``'s singleton fast path, ``scale`` and bulk fold
    all agree with a plain ``merge`` fold, on nested groups."""

    @given(fold_bags, st.lists(int_map_images, min_size=4, max_size=4))
    def test_map_of_ints(self, bag, images):
        self.check(bag, MAP_OF_INTS, images.__getitem__)

    @given(fold_bags, st.lists(nested_map_images, min_size=4, max_size=4))
    def test_map_of_maps_of_bags(self, bag, images):
        self.check(bag, MAP_OF_MAPS_OF_BAGS, images.__getitem__)

    @given(elements, st.integers(min_value=-3, max_value=3), nested_map_images)
    def test_singleton_bags(self, element, count, image):
        bag = Bag({element: count})
        self.check(bag, MAP_OF_MAPS_OF_BAGS, lambda _: image)

    def test_singleton_zero_entry_is_dropped(self):
        # singletonMap 0 0 summed over a one-row table.
        folded = Bag.of((0, 0)).fold_group(
            MAP_OF_INTS, lambda row: PMap.singleton(row[0], row[1])
        )
        assert folded == PMap.empty()

    @staticmethod
    def check(bag, group, fn):
        expected = reference_fold(bag, group, fn)
        assert bag.fold_group(group, fn) == expected
        assert bag.fold_group(without_bulk_fold(group), fn) == expected

    @given(nested_map_images, st.integers(min_value=-4, max_value=4))
    def test_scale_equals_repeated_merge(self, value, count):
        group = MAP_OF_MAPS_OF_BAGS
        expected = reference_fold(Bag({0: count}), group, lambda _: value)
        assert group.scale(value, count) == expected


class TestObjectProtocol:
    def test_equality_and_hash(self):
        assert Bag.of(1, 2) == Bag.of(2, 1)
        assert hash(Bag.of(1, 2)) == hash(Bag.of(2, 1))
        assert Bag.of(1) != Bag.of(1, 1)

    def test_not_equal_to_other_types(self):
        assert Bag.of(1) != {1: 1}

    def test_bags_nest(self):
        outer = Bag.of(Bag.of(1), Bag.of(1))
        assert outer.multiplicity(Bag.of(1)) == 2

    def test_repr_stable(self):
        assert repr(Bag({2: 1, 1: 2})) == "Bag({1: 2, 2: 1})"
        assert repr(Bag.empty()) == "Bag({})"

    def test_bag_group_scale(self):
        assert BAG_GROUP.scale(Bag.of(1), 3) == Bag({1: 3})
        assert BAG_GROUP.scale(Bag.of(1), -2) == Bag({1: -2})
