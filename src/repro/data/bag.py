"""Bags (multisets) with signed multiplicities.

A bag maps elements to integer multiplicities, which may be negative; this
is the ``Bag S`` of Sec. 2.1 of the paper, following Koch's "ring of
databases" representation.  Bags with signed multiplicities form an abelian
group under element-wise addition of multiplicities (``merge``), with
``negate`` as inverse and the empty bag as identity, which is what makes
them an ideal change representation: *every* bag is a valid change to every
other bag.

Bags are immutable and hashable, so they can be used as map keys and as
elements of other bags.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Bag:
    """An immutable multiset with signed multiplicities.

    >>> Bag.of(1, 1, 2)
    Bag({1: 2, 2: 1})
    >>> Bag.of(1).merge(Bag.of(1).negate())
    Bag({})
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Dict[Any, int] | None = None):
        cleaned: Dict[Any, int] = {}
        if counts:
            for element, count in counts.items():
                if not isinstance(count, int):
                    raise TypeError(
                        f"bag multiplicities must be ints, got {count!r}"
                    )
                if count != 0:
                    cleaned[element] = count
        self._counts = cleaned
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Bag":
        """The empty bag, the identity of the bag group."""
        return _EMPTY_BAG

    @staticmethod
    def singleton(element: Any) -> "Bag":
        """A bag containing ``element`` exactly once."""
        return Bag({element: 1})

    @staticmethod
    def of(*elements: Any) -> "Bag":
        """Build a bag from positive occurrences of ``elements``."""
        return Bag.from_iterable(elements)

    @staticmethod
    def from_iterable(elements: Iterable[Any]) -> "Bag":
        counts: Dict[Any, int] = {}
        for element in elements:
            counts[element] = counts.get(element, 0) + 1
        return Bag(counts)

    @staticmethod
    def from_counts(pairs: Iterable[Tuple[Any, int]]) -> "Bag":
        """Build a bag from ``(element, multiplicity)`` pairs, summing dups."""
        counts: Dict[Any, int] = {}
        for element, count in pairs:
            counts[element] = counts.get(element, 0) + count
        return Bag(counts)

    # -- group operations --------------------------------------------------

    def merge(self, other: "Bag") -> "Bag":
        """Element-wise sum of multiplicities (the group operation)."""
        if not isinstance(other, Bag):
            raise TypeError(f"cannot merge Bag with {type(other).__name__}")
        if not self._counts:
            return other
        if not other._counts:
            return self
        merged = self._copy()
        merged._absorb(other, None)
        return merged

    def negate(self) -> "Bag":
        """Negate every multiplicity (the group inverse)."""
        return Bag({element: -count for element, count in self._counts.items()})

    def difference(self, other: "Bag") -> "Bag":
        """``self ⊖ other`` in the bag change structure: merge with negation."""
        return self.merge(other.negate())

    # -- queries -----------------------------------------------------------

    def multiplicity(self, element: Any) -> int:
        """The signed multiplicity of ``element`` (0 if absent)."""
        return self._counts.get(element, 0)

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def distinct_size(self) -> int:
        """Number of distinct elements with nonzero multiplicity."""
        return len(self._counts)

    def total_size(self) -> int:
        """Sum of absolute multiplicities (the "weight" of the bag)."""
        return sum(abs(count) for count in self._counts.values())

    def signed_size(self) -> int:
        """Sum of signed multiplicities."""
        return sum(self._counts.values())

    def is_empty(self) -> bool:
        return not self._counts

    def is_proper(self) -> bool:
        """True if every multiplicity is positive (an "ordinary" multiset)."""
        return all(count > 0 for count in self._counts.values())

    def counts(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over ``(element, multiplicity)`` pairs."""
        return iter(self._counts.items())

    def elements(self) -> Iterator[Any]:
        """Iterate distinct elements (ignoring multiplicities)."""
        return iter(self._counts)

    def expand(self) -> Iterator[Any]:
        """Iterate elements with positive multiplicity, repeated.

        Raises ``ValueError`` on bags with negative multiplicities, for
        which expansion is not meaningful.
        """
        for element, count in self._counts.items():
            if count < 0:
                raise ValueError(
                    f"cannot expand bag with negative multiplicity: "
                    f"{element!r} has {count}"
                )
            for _ in range(count):
                yield element

    # -- structure-preserving operations ------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "Bag":
        """Apply ``fn`` to every element, summing multiplicities of clashes."""
        counts: Dict[Any, int] = {}
        for element, count in self._counts.items():
            image = fn(element)
            new_count = counts.get(image, 0) + count
            if new_count == 0:
                counts.pop(image, None)
            else:
                counts[image] = new_count
        return Bag(counts)

    def filter(self, predicate: Callable[[Any], bool]) -> "Bag":
        return Bag(
            {
                element: count
                for element, count in self._counts.items()
                if predicate(element)
            }
        )

    def flat_map(self, fn: Callable[[Any], "Bag"]) -> "Bag":
        """Monadic bind: ``fn`` maps each element to a bag; multiplicities
        multiply, following the signed-multiset monad."""
        result: Dict[Any, int] = {}
        for element, count in self._counts.items():
            for image, inner_count in fn(element).counts():
                new_count = result.get(image, 0) + count * inner_count
                if new_count == 0:
                    result.pop(image, None)
                else:
                    result[image] = new_count
        return Bag(result)

    def fold_group(self, group: Any, fn: Callable[[Any], Any]) -> Any:
        """``foldBag group fn self`` -- the unique abelian-group homomorphism
        from the free group on elements to ``group`` extending ``fn``.

        Satisfies the defining equations of Sec. 4.4:

        * ``foldBag g f empty        = g.zero``
        * ``foldBag g f (merge a b)  = foldBag g f a  •  foldBag g f b``
        * ``foldBag g f (negate b)   = inverse (foldBag g f b)``
        * ``foldBag g f (singleton v) = f v``
        """
        # scale() handles signs and uses the group's fast path (or
        # O(log count) doubling), so high multiplicities don't cost one
        # merge per occurrence; a group-provided bulk fold lets container
        # groups accumulate mutably instead of copying the partial per
        # element.  Empty/singleton bags (the per-step change shape) skip
        # the bulk fold.
        counts = self._counts
        if not counts:
            return group.zero
        scale = group.scale
        if len(counts) == 1:
            ((element, count),) = counts.items()
            if count == 1:
                # zero ⊕ v, not v itself: a map group's merge drops the
                # zero entries fn may produce (``singletonMap k 0``), as
                # the bulk path and a plain merge fold do.
                return group.merge(group.zero, fn(element))
            return scale(fn(element), count)
        fold = getattr(group, "_fold", None)
        if fold is not None:
            return fold(
                scale(fn(element), count) for element, count in counts.items()
            )
        result = group.zero
        merge = group.merge
        for element, count in counts.items():
            result = merge(result, scale(fn(element), count))
        return result

    # -- in-place absorption (owner only) ------------------------------------

    def _copy(self) -> "Bag":
        """A bag equal to this one with counts of its own, which the
        caller owns and may ``_absorb`` into."""
        return Bag(self._counts)

    def _absorb(self, other: "Bag", undo: Optional[List[tuple]]) -> None:
        """Merge ``other`` into this bag *in place*, touching only
        ``other``'s elements, so the cost is O(|other|).

        Bags are immutable to everyone else: only an owner holding the
        sole reference (a fresh ``merge`` result, ``_LazyInput``'s
        composed tail) may call this.  Unless ``undo`` is None, each
        write is logged to it as ``(counts, element)`` for a new element
        or ``(counts, element, old)`` otherwise, so the owner can roll
        it back.  Zero counts are dropped, keeping the bag canonical.
        """
        if not isinstance(other, Bag):
            raise TypeError(f"cannot merge Bag with {type(other).__name__}")
        counts = self._counts
        for element, count in other._counts.items():
            old = counts.get(element)
            if old is None:
                if undo is not None:
                    undo.append((counts, element))
                counts[element] = count
                continue
            if undo is not None:
                undo.append((counts, element, old))
            if old + count:
                counts[element] = old + count
            else:
                del counts[element]
        self._hash = None

    # -- object protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[Any, int]]:
        return iter(self._counts.items())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        if not self._counts:
            return "Bag({})"
        try:
            items = sorted(self._counts.items(), key=lambda kv: repr(kv[0]))
        except TypeError:
            items = list(self._counts.items())
        body = ", ".join(f"{element!r}: {count}" for element, count in items)
        return f"Bag({{{body}}})"


_EMPTY_BAG = Bag()
