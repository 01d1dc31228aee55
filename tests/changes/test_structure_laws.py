"""Property tests of the change-structure laws (Def. 2.1, Lemma 2.3) for
every first-order structure in the library -- the executable counterpart
of the paper's Agda lemmas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.changes.bag import BAG_CHANGES
from repro.changes.group import GroupChangeStructure, INT_CHANGES
from repro.changes.map import KeywiseMapChangeStructure, MapChangeStructure
from repro.changes.primitive import BOOL_CHANGES, NAT_CHANGES, ReplaceChangeStructure
from repro.changes.product import ProductChangeStructure
from repro.changes.laws import (
    LawViolation,
    check_change_structure_laws,
    check_nil_behavior,
)
from repro.data.group import INT_ADD_GROUP
from repro.data.pmap import PMap

from tests.strategies import bags_of_ints, maps_int_int, small_ints

naturals = st.integers(min_value=0, max_value=100)

INT_PAIR_CHANGES = ProductChangeStructure(INT_CHANGES, INT_CHANGES)
MAP_INT_CHANGES = MapChangeStructure(INT_ADD_GROUP)
KEYWISE_CHANGES = KeywiseMapChangeStructure(INT_CHANGES)


@given(small_ints, small_ints)
def test_int_laws(new, old):
    check_change_structure_laws(INT_CHANGES, new, old)


@given(small_ints)
def test_int_nil(value):
    check_nil_behavior(INT_CHANGES, value)
    assert INT_CHANGES.nil(value) == 0


@given(naturals, naturals)
def test_nat_laws(new, old):
    check_change_structure_laws(NAT_CHANGES, new, old)


@given(naturals)
def test_nat_nil(value):
    check_nil_behavior(NAT_CHANGES, value)


def test_nat_change_sets_depend_on_value():
    # The Sec. 2.1 motivation: Δv = {dv | v + dv ≥ 0}.
    assert NAT_CHANGES.delta_contains(3, -3)
    assert not NAT_CHANGES.delta_contains(3, -4)
    with pytest.raises(ValueError):
        NAT_CHANGES.oplus(3, -4)


@given(st.booleans(), st.booleans())
def test_bool_laws(new, old):
    check_change_structure_laws(BOOL_CHANGES, new, old)
    check_nil_behavior(BOOL_CHANGES, old)


@given(bags_of_ints, bags_of_ints)
def test_bag_laws(new, old):
    check_change_structure_laws(BAG_CHANGES, new, old)


@given(bags_of_ints)
def test_bag_nil_is_empty(value):
    check_nil_behavior(BAG_CHANGES, value)
    assert BAG_CHANGES.nil(value).is_empty()


@given(maps_int_int, maps_int_int)
def test_map_group_laws(new, old):
    check_change_structure_laws(MAP_INT_CHANGES, new, old)
    check_nil_behavior(MAP_INT_CHANGES, old)


@given(maps_int_int, maps_int_int)
def test_keywise_map_laws(new, old):
    check_change_structure_laws(KEYWISE_CHANGES, new, old)
    check_nil_behavior(KEYWISE_CHANGES, old)


@st.composite
def keywise_edits(draw):
    """``(old, new)`` where ``new ⊖ old`` removes at least one key,
    updates the others and may insert fresh keys."""
    old = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=9), small_ints,
            min_size=2, max_size=8,
        )
    )
    keys = sorted(old)
    removed = draw(st.sets(st.sampled_from(keys), min_size=1))
    new = {
        key: draw(small_ints) for key in keys if key not in removed
    }
    new.update(
        draw(
            st.dictionaries(
                st.integers(min_value=10, max_value=14), small_ints,
                max_size=3,
            )
        )
    )
    return PMap(new), PMap(old)


@given(keywise_edits())
def test_keywise_map_laws_multi_key_removals(edit):
    new, old = edit
    held = PMap(dict(old.items()))
    updates, insertions = KEYWISE_CHANGES.ominus(new, old)
    assert len(updates) + len(insertions) >= 2
    assert KeywiseMapChangeStructure.REMOVE in updates.values()
    check_change_structure_laws(KEYWISE_CHANGES, new, old)
    # ⊕ writes to a copy of its own: the value it was given is unchanged.
    assert old == held


@given(
    st.tuples(small_ints, small_ints), st.tuples(small_ints, small_ints)
)
def test_product_laws(new, old):
    check_change_structure_laws(INT_PAIR_CHANGES, new, old)
    check_nil_behavior(INT_PAIR_CHANGES, old)


class TestGroupConstruction:
    """Each abelian group induces a change structure (Sec. 2.1)."""

    @given(small_ints, small_ints)
    def test_induced_operations(self, new, old):
        structure = GroupChangeStructure(INT_ADD_GROUP)
        assert structure.oplus(old, 5) == old + 5
        assert structure.ominus(new, old) == new - old

    def test_nil_is_group_zero_without_touching_value(self):
        structure = GroupChangeStructure(INT_ADD_GROUP)
        assert structure.nil(123456) == 0

    def test_membership_predicate(self):
        assert INT_CHANGES.contains(3)
        assert not INT_CHANGES.contains(True)  # bools are not ints here
        assert not INT_CHANGES.contains("x")


class TestReplaceStructure:
    @given(small_ints, small_ints)
    def test_replacement_laws(self, new, old):
        structure = ReplaceChangeStructure()
        check_change_structure_laws(structure, new, old)
        assert structure.oplus(old, new) == new

    def test_multiple_changes_same_effect(self):
        # Changes are never compared for equality: Replace(v) and the
        # group nil take old to the same new value (Sec. 2.1).
        from repro.data.bag import Bag

        bag = Bag.of(1, 1, 2)
        via_group = BAG_CHANGES.oplus(bag, BAG_CHANGES.nil(bag))
        via_replace = ReplaceChangeStructure().oplus(bag, bag)
        assert via_group == via_replace == bag


class TestLawViolationReporting:
    def test_violation_raises_with_counterexample(self):
        class Broken(ReplaceChangeStructure):
            def oplus(self, value, change):
                return value  # ignores the change: breaks law (e)

        with pytest.raises(LawViolation):
            check_change_structure_laws(Broken(), 1, 2)
