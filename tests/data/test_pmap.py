"""Unit and property tests for ``repro.data.pmap``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.bag import Bag
from repro.data.group import BAG_GROUP, INT_ADD_GROUP, map_group
from repro.data.pmap import PMap

from tests.strategies import maps_int_int


int_values = st.integers(min_value=-3, max_value=3).filter(
    lambda value: value != 0
)
bag_values = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-2, max_value=2).filter(lambda count: count != 0),
    min_size=1,
    max_size=3,
).map(Bag)
map_of_bag_values = st.dictionaries(
    st.integers(min_value=0, max_value=2), bag_values, min_size=1, max_size=2
).map(PMap)
#: name -> (value group, strategy of its canonical non-zero values)
VALUE_GROUPS = {
    "int": (INT_ADD_GROUP, int_values),
    "bag": (BAG_GROUP, bag_values),
    "map_of_bags": (map_group(BAG_GROUP), map_of_bag_values),
}


def to_plain(value):
    """A deep plain-Python copy: ints stay ints, bags and maps become
    dicts (element -> count, key -> plain value)."""
    if isinstance(value, PMap):
        return {key: to_plain(entry) for key, entry in value.items()}
    if isinstance(value, Bag):
        return dict(value.counts())
    return value


def plain_merge(left, right):
    """The reference ⊕ on plain values: ints add, dicts merge pointwise
    and drop the entries that reach zero (``0`` or ``{}``)."""
    if isinstance(left, int):
        return left + right
    result = dict(left)
    for key, value in right.items():
        merged = plain_merge(result[key], value) if key in result else value
        if merged == 0 or merged == {}:
            result.pop(key, None)
        else:
            result[key] = merged
    return result


def draw_keys(data, mapping):
    """A subset of ``mapping``'s keys."""
    if not mapping:
        return set()
    return data.draw(st.sets(st.sampled_from(sorted(mapping.keys()))))


def draw_map(data, group, values):
    """A canonical map built by merging in the inverse of a subset of its
    entries, so that its dict may hold deleted slots."""
    entries = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=7), values, max_size=8
        )
    )
    dropped = draw_keys(data, entries)
    inverse = PMap({key: group.inverse(entries[key]) for key in dropped})
    return PMap(entries).merged_with(inverse, group)


class TestConstruction:
    def test_empty(self):
        assert PMap.empty().is_empty()
        assert len(PMap.empty()) == 0
        assert PMap.empty() is PMap.empty()

    def test_singleton(self):
        mapping = PMap.singleton("a", 1)
        assert mapping["a"] == 1
        assert "a" in mapping
        assert mapping.get("b") is None
        assert mapping.get("b", 9) == 9

    def test_from_pairs(self):
        assert PMap.from_pairs([("a", 1), ("b", 2)]) == PMap.of(a=1, b=2)

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            PMap.empty()["nope"]


class TestPersistence:
    def test_set_does_not_mutate(self):
        original = PMap.singleton("a", 1)
        updated = original.set("b", 2)
        assert "b" not in original
        assert updated["b"] == 2

    def test_remove(self):
        mapping = PMap.of(a=1, b=2)
        assert mapping.remove("a") == PMap.of(b=2)
        assert mapping.remove("zzz") is mapping

    def test_update_with(self):
        mapping = PMap.of(a=1)
        assert mapping.update_with("a", 0, lambda v: v + 10)["a"] == 11
        assert mapping.update_with("b", 0, lambda v: v + 10)["b"] == 10


class TestGroupStructure:
    def test_merged_with_pointwise(self):
        left = PMap.of(a=1, b=2)
        right = PMap.of(b=3, c=4)
        merged = left.merged_with(right, INT_ADD_GROUP)
        assert merged == PMap.of(a=1, b=5, c=4)

    def test_merged_with_drops_zeros(self):
        left = PMap.of(a=1)
        right = PMap.of(a=-1, b=0)
        merged = left.merged_with(right, INT_ADD_GROUP)
        assert merged == PMap.empty()

    def test_merged_with_wrong_type_raises(self):
        with pytest.raises(TypeError):
            PMap.empty().merged_with({}, INT_ADD_GROUP)

    def test_map_group_operations(self):
        group = map_group(INT_ADD_GROUP)
        assert group.zero == PMap.empty()
        mapping = PMap.of(a=2)
        assert group.merge(mapping, group.inverse(mapping)) == PMap.empty()

    def test_map_group_equality_is_structural(self):
        assert map_group(INT_ADD_GROUP) == map_group(INT_ADD_GROUP)
        assert map_group(INT_ADD_GROUP) != map_group(BAG_GROUP)

    def test_nested_map_of_bags(self):
        group = map_group(BAG_GROUP)
        docs = PMap.of(d1=Bag.of(1, 2))
        delta = PMap.of(d1=Bag.of(3), d2=Bag.of(4))
        merged = group.merge(docs, delta)
        assert merged["d1"] == Bag.of(1, 2, 3)
        assert merged["d2"] == Bag.of(4)

    def test_removing_last_word_drops_document(self):
        group = map_group(BAG_GROUP)
        docs = PMap.of(d1=Bag.of(1))
        delta = PMap.of(d1=Bag.of(1).negate())
        assert group.merge(docs, delta) == PMap.empty()

    @given(maps_int_int, maps_int_int)
    def test_merge_commutative(self, left, right):
        group = map_group(INT_ADD_GROUP)
        assert group.merge(left, right) == group.merge(right, left)

    @given(maps_int_int, maps_int_int, maps_int_int)
    def test_merge_associative(self, a, b, c):
        group = map_group(INT_ADD_GROUP)
        assert group.merge(group.merge(a, b), c) == group.merge(
            a, group.merge(b, c)
        )

    @given(maps_int_int)
    def test_inverse(self, mapping):
        group = map_group(INT_ADD_GROUP)
        assert group.merge(mapping, group.inverse(mapping)) == PMap.empty()

    @pytest.mark.parametrize("name", sorted(VALUE_GROUPS))
    @given(data=st.data())
    def test_merged_with_matches_plain_dict_reference(self, name, data):
        group, values = VALUE_GROUPS[name]
        left = draw_map(data, group, values)
        right = draw_map(data, group, values)
        # Cancel some of ``left``'s entries, so the merge deletes keys
        # from its clone.
        cancelled = draw_keys(data, left)
        right = PMap(
            {
                **dict(right.items()),
                **{key: group.inverse(left[key]) for key in cancelled},
            }
        )
        left_before, right_before = to_plain(left), to_plain(right)

        merged = left.merged_with(right, group)

        assert to_plain(merged) == plain_merge(left_before, right_before)
        assert not any(group.is_zero(value) for value in merged.values())
        assert to_plain(left) == left_before
        assert to_plain(right) == right_before

    def test_normalized(self):
        mapping = PMap.of(a=0, b=1)
        assert mapping.normalized(INT_ADD_GROUP) == PMap.of(b=1)


class TestStructureOps:
    def test_map_values(self):
        assert PMap.of(a=1).map_values(lambda v: v * 10) == PMap.of(a=10)

    def test_map_entries(self):
        mapping = PMap.of(a=1).map_entries(lambda k, v: f"{k}{v}")
        assert mapping == PMap.of(a="a1")

    def test_filter(self):
        mapping = PMap.of(a=1, b=2).filter(lambda k, v: v > 1)
        assert mapping == PMap.of(b=2)

    def test_fold_map(self):
        total = PMap.of(a=1, b=2).fold_map(0, lambda x, y: x + y, lambda k, v: v)
        assert total == 3


class TestObjectProtocol:
    def test_hash_consistent(self):
        assert hash(PMap.of(a=1, b=2)) == hash(PMap.of(b=2, a=1))

    def test_not_equal_to_dict(self):
        assert PMap.of(a=1) != {"a": 1}

    def test_repr(self):
        assert repr(PMap.of(a=1)) == "PMap({'a': 1})"
        assert repr(PMap.empty()) == "PMap({})"

    def test_maps_as_keys(self):
        bag = Bag.of(PMap.of(a=1), PMap.of(a=1))
        assert bag.multiplicity(PMap.of(a=1)) == 2
