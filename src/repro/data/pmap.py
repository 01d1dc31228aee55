"""Immutable finite maps.

The counterpart of the Scala ``Map[K, A]`` in Fig. 6.  Maps whose values
live in an abelian group themselves form an abelian group under pointwise
merge (``groupOnMaps``); entries whose merged value equals the inner group's
zero are dropped so the zero map stays canonical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class PMap:
    """An immutable map with structural equality and hashing.

    >>> PMap.singleton("a", 1).merged_with(PMap.singleton("a", 2), INT_ADD)
    ... # doctest: +SKIP
    PMap({'a': 3})
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Dict[Any, Any] | None = None):
        # ``dict.copy`` clones the hash table while at least 2/3 of its
        # slots are live; ``dict()`` clones only a table with no deleted
        # slot and otherwise re-inserts every entry (~4.7x slower at 37k
        # keys).  Outputs whose keys were deleted are the common case.
        self._entries = entries.copy() if entries else {}
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty() -> "PMap":
        return _EMPTY_MAP

    @staticmethod
    def singleton(key: Any, value: Any) -> "PMap":
        return PMap({key: value})

    @staticmethod
    def of(**entries: Any) -> "PMap":
        return PMap(entries)

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Any, Any]]) -> "PMap":
        return PMap(dict(pairs))

    # -- queries -------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self._entries[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Any]:
        return iter(self._entries)

    def values(self) -> Iterator[Any]:
        return iter(self._entries.values())

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    # -- updates (persistent) --------------------------------------------------

    def set(self, key: Any, value: Any) -> "PMap":
        result = self._copy()
        result._entries[key] = value
        return result

    def remove(self, key: Any) -> "PMap":
        if key not in self._entries:
            return self
        result = self._copy()
        del result._entries[key]
        return result

    def update_with(
        self, key: Any, default: Any, fn: Callable[[Any], Any]
    ) -> "PMap":
        """Apply ``fn`` to the value at ``key`` (or ``default`` if absent)."""
        current = self._entries.get(key, default)
        return self.set(key, fn(current))

    # -- group structure ---------------------------------------------------------

    def merged_with(self, other: "PMap", value_group: Any) -> "PMap":
        """Pointwise merge using ``value_group``, dropping zero entries.

        This is ``groupOnMaps(group).merge`` of Fig. 6: keys present in only
        one map keep their value (merging with the implicit zero), keys in
        both merge their values, and any resulting zero is removed so maps
        stay in canonical form.
        """
        # Persistent: one clone of ``self``, O(len(self)) at memcpy speed,
        # then O(len(other)) merges.  The engine's pending-change log
        # avoids the clone by calling ``_absorb`` on a map it owns.
        result = self._copy()
        result._absorb(other, value_group, None)
        return result

    def _copy(self) -> "PMap":
        """A map equal to this one with entries of its own, which the
        caller owns and may ``_absorb`` into."""
        return PMap(self._entries)

    def _absorb(
        self, other: "PMap", value_group: Any, undo: Optional[List[tuple]]
    ) -> None:
        """``merged_with`` *in place*: only ``other``'s keys are touched,
        so the cost is O(|other|) rather than O(|self|).

        Maps are immutable to everyone else: only an owner holding the
        sole reference (``_LazyInput``'s composed tail) may call this.
        Values are replaced, never mutated, so values shared with
        ``other`` stay safe.  Unless ``undo`` is None, each write is
        logged to it as ``(entries, key)`` for a new key or
        ``(entries, key, old)`` otherwise, so the owner can roll it back.
        """
        if not isinstance(other, PMap):
            raise TypeError(f"cannot merge PMap with {type(other).__name__}")
        entries = self._entries
        merge = value_group.merge
        is_zero = value_group.is_zero
        for key, value in other._entries.items():
            if key in entries:
                old = entries[key]
                merged = merge(old, value)
                if undo is not None:
                    undo.append((entries, key, old))
                if is_zero(merged):
                    del entries[key]
                else:
                    entries[key] = merged
            elif not is_zero(value):
                if undo is not None:
                    undo.append((entries, key))
                entries[key] = value
        self._hash = None

    def normalized(self, value_group: Any) -> "PMap":
        """Drop entries equal to the inner group's zero."""
        return PMap(
            {
                key: value
                for key, value in self._entries.items()
                if not value_group.is_zero(value)
            }
        )

    # -- structure-preserving operations ------------------------------------------

    def map_values(self, fn: Callable[[Any], Any]) -> "PMap":
        return PMap({key: fn(value) for key, value in self._entries.items()})

    def map_entries(self, fn: Callable[[Any, Any], Any]) -> "PMap":
        """Map ``fn(key, value)`` over entries, keeping keys."""
        return PMap(
            {key: fn(key, value) for key, value in self._entries.items()}
        )

    def filter(self, predicate: Callable[[Any, Any], bool]) -> "PMap":
        return PMap(
            {
                key: value
                for key, value in self._entries.items()
                if predicate(key, value)
            }
        )

    def fold_map(
        self, zero: Any, merge: Callable[[Any, Any], Any],
        fn: Callable[[Any, Any], Any],
    ) -> Any:
        """``foldMapGen zero merge fn self`` of Fig. 6: map ``fn`` over the
        entries and fold the results with ``merge``/``zero``."""
        result = zero
        for key, value in self._entries.items():
            result = merge(result, fn(key, value))
        return result

    # -- object protocol -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMap):
            return NotImplemented
        return self._entries == other._entries

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._entries:
            return "PMap({})"
        try:
            items = sorted(self._entries.items(), key=lambda kv: repr(kv[0]))
        except TypeError:
            items = list(self._entries.items())
        body = ", ".join(f"{key!r}: {value!r}" for key, value in items)
        return f"PMap({{{body}}})"


_EMPTY_MAP = PMap()
