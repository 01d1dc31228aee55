"""Change structures on finite maps.

Two useful structures exist on ``Map K A``:

* when ``A`` carries an abelian group, ``groupOnMaps`` (Fig. 6) lifts it
  pointwise and the group construction applies -- this is the structure the
  MapReduce case study exploits for self-maintainable ``foldMap``;
* in general, a map change assigns a *value change* to each touched key
  (plus insertions/deletions); we provide the group-based structure here
  since that is what the paper's plugin uses, and the key-wise structure as
  ``KeywiseMapChangeStructure`` for completeness.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.changes.group import GroupChangeStructure
from repro.changes.structure import ChangeStructure
from repro.data.group import AbelianGroup, map_group
from repro.data.pmap import PMap


class MapChangeStructure(GroupChangeStructure):
    """The group-induced change structure on maps with group values."""

    def __init__(self, value_group: AbelianGroup):
        super().__init__(
            map_group(value_group), name=f"M̂ap({value_group!r})"
        )
        self.value_group = value_group

    def contains(self, value: Any) -> bool:
        return isinstance(value, PMap)

    def delta_contains(self, value: Any, change: Any) -> bool:
        return isinstance(change, PMap)


class KeywiseMapChangeStructure(ChangeStructure):
    """Map changes as per-key changes of an arbitrary value structure.

    A change is a pair ``(updates, insertions)`` where ``updates`` maps
    existing keys to value-changes or the removal marker, and
    ``insertions`` maps fresh keys to values.  This structure does not
    require a group on values and shows that change structures compose
    beyond the abelian case.
    """

    REMOVE = object()

    def __init__(self, value_changes: ChangeStructure):
        self.value_changes = value_changes
        self.name = f"KeywiseMap({value_changes!r})"

    def contains(self, value: Any) -> bool:
        return isinstance(value, PMap) and all(
            self.value_changes.contains(entry) for entry in value.values()
        )

    def delta_contains(self, value: Any, change: Any) -> bool:
        if not (isinstance(change, tuple) and len(change) == 2):
            return False
        updates, insertions = change
        if not isinstance(updates, dict) or not isinstance(insertions, dict):
            return False
        for key, value_change in updates.items():
            if key not in value:
                return False
            if value_change is not self.REMOVE and not (
                self.value_changes.delta_contains(value[key], value_change)
            ):
                return False
        return all(key not in value for key in insertions)

    def oplus(self, value: Any, change: Any) -> Any:
        updates, insertions = change
        # One copy per change, then writes to the copy this call owns.
        result = value._copy()
        entries = result._entries
        for key, value_change in updates.items():
            if value_change is self.REMOVE:
                entries.pop(key, None)
            else:
                entries[key] = self.value_changes.oplus(
                    value[key], value_change
                )
        entries.update(insertions)
        return result

    def ominus(self, new: Any, old: Any) -> Any:
        updates: Dict[Any, Any] = {}
        insertions: Dict[Any, Any] = {}
        for key, old_value in old.items():
            if key in new:
                updates[key] = self.value_changes.ominus(new[key], old_value)
            else:
                updates[key] = self.REMOVE
        for key, new_value in new.items():
            if key not in old:
                insertions[key] = new_value
        return (updates, insertions)

    def nil(self, value: Any) -> Tuple[Dict, Dict]:
        return ({key: self.value_changes.nil(entry) for key, entry in value.items()}, {})
