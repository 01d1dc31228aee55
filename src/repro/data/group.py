"""First-class abelian groups.

The paper (Sec. 2.1 and Fig. 6) uses abelian groups ``(G, •, inverse, zero)``
in two roles: every abelian group induces a change structure, and the
``foldBag`` / ``foldMap`` primitives take a group argument describing how to
combine per-element results.  Groups here are ordinary immutable Python
values so they can flow through the object language as first-class data.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class AbelianGroup:
    """An abelian group ``(carrier, merge, inverse, zero)``.

    ``merge`` must be commutative and associative with identity ``zero``
    and ``inverse`` producing inverses; these laws are checked by the
    property tests in ``tests/changes/test_group.py`` rather than enforced
    at construction.

    Groups compare structurally by name and argument groups so that, e.g.,
    ``map_group(INT_ADD_GROUP)`` built twice is a single logical group.
    """

    __slots__ = (
        "name", "merge", "inverse", "zero", "_args", "_scale", "_fold", "_absorb",
    )

    def __init__(
        self,
        name: str,
        merge: Callable[[Any, Any], Any],
        inverse: Callable[[Any], Any],
        zero: Any,
        args: tuple = (),
        scale: Callable[[Any, int], Any] | None = None,
        fold: Callable[[Iterable[Any]], Any] | None = None,
        absorb: Callable[[Any, Any, list | None], None] | None = None,
    ):
        self.name = name
        self.merge = merge
        self.inverse = inverse
        self.zero = zero
        self._args = args
        self._scale = scale
        self._fold = fold
        #: ``absorb(target, delta, undo)`` merges ``delta`` into a
        #: ``target`` its caller owns, in place, logging each write to
        #: ``undo`` unless it is None (see ``Bag._absorb``); None for
        #: groups without mutable containers as elements.
        self._absorb = absorb

    @property
    def args(self) -> tuple:
        """Structural arguments (component groups) of a derived group."""
        return self._args

    def scale(self, value: Any, count: int) -> Any:
        """``value`` merged with itself ``count`` times (negatives invert).

        Uses the group-specific fast path when available, falling back to
        doubling (O(log count) merges).
        """
        if self._scale is not None:
            return self._scale(value, count)
        if count == 0:
            return self.zero
        if count < 0:
            return self.scale(self.inverse(value), -count)
        result = self.zero
        power = value
        remaining = count
        while remaining:
            if remaining & 1:
                result = self.merge(result, power)
            remaining >>= 1
            if remaining:
                power = self.merge(power, power)
        return result

    def fold(self, values: Iterable[Any]) -> Any:
        """Merge ``values`` into one group element.

        Associativity/commutativity make the result independent of order,
        which lets container groups (bags, maps) accumulate into one
        mutable buffer instead of copying the partial result per merge —
        the difference between O(n²) and O(n) for large base folds.
        """
        if self._fold is not None:
            return self._fold(values)
        result = self.zero
        for value in values:
            result = self.merge(result, value)
        return result

    def is_zero(self, value: Any) -> bool:
        """True if ``value`` equals the group identity."""
        return value == self.zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.name == other.name and self._args == other._args

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.name, self._args))

    def __repr__(self) -> str:
        if self._args:
            inner = ", ".join(repr(arg) for arg in self._args)
            return f"{self.name}({inner})"
        return self.name


INT_ADD_GROUP = AbelianGroup(
    "IntAdd",
    merge=lambda a, b: a + b,
    inverse=lambda a: -a,
    zero=0,
    scale=lambda a, n: a * n,
)
"""The additive group of integers, ``G+ = (Z, +, -, 0)`` of Sec. 2.1."""

INT_MUL_GROUP = AbelianGroup(
    "RatMul",
    merge=lambda a, b: a * b,
    inverse=lambda a: 1 / a if not isinstance(a, int) or a not in (1, -1) else a,
    zero=1,
)
"""The multiplicative group of (nonzero) rationals; the paper mentions
"multiply floating-point numbers" as an alternative ``foldBag`` group."""

FLOAT_ADD_GROUP = AbelianGroup(
    "FloatAdd",
    merge=lambda a, b: a + b,
    inverse=lambda a: -a,
    zero=0.0,
    scale=lambda a, n: a * n,
)
"""The additive group of floats."""


def _bag_group() -> AbelianGroup:
    from repro.data.bag import Bag

    def fold(values) -> Bag:
        counts: dict = {}
        get = counts.get
        for bag in values:
            for element, count in bag.counts():
                new_count = get(element, 0) + count
                if new_count:
                    counts[element] = new_count
                elif element in counts:
                    del counts[element]
        return Bag(counts)

    return AbelianGroup(
        "BagGroup",
        merge=lambda a, b: a.merge(b),
        inverse=lambda a: a.negate(),
        zero=Bag.empty(),
        scale=lambda a, n: Bag(
            {element: count * n for element, count in a.counts()}
        ),
        fold=fold,
        absorb=lambda bag, delta, undo: bag._absorb(delta, undo),
    )


BAG_GROUP = _bag_group()
"""``groupOnBags``: bags with signed multiplicities under ``merge``."""


def map_group(value_group: AbelianGroup) -> AbelianGroup:
    """``groupOnMaps``: lift a group on values to maps, merging pointwise
    and dropping entries whose merged value is the inner zero (Fig. 6)."""
    from repro.data.pmap import PMap

    inner_merge = value_group.merge
    inner_is_zero = value_group.is_zero

    def fold(values) -> PMap:
        entries: dict = {}
        for mapping in values:
            for key, value in mapping.items():
                if key in entries:
                    entries[key] = inner_merge(entries[key], value)
                else:
                    entries[key] = value
        return PMap(
            {
                key: value
                for key, value in entries.items()
                if not inner_is_zero(value)
            }
        )

    return AbelianGroup(
        f"MapGroup",
        merge=lambda a, b: a.merged_with(b, value_group),
        inverse=lambda a: a.map_values(value_group.inverse),
        zero=PMap.empty(),
        args=(value_group,),
        fold=fold,
        absorb=lambda pmap, delta, undo: pmap._absorb(delta, value_group, undo),
    )


def pair_group(left: AbelianGroup, right: AbelianGroup) -> AbelianGroup:
    """The product group: componentwise merge/inverse, pair of zeros."""
    return AbelianGroup(
        "PairGroup",
        merge=lambda a, b: (left.merge(a[0], b[0]), right.merge(a[1], b[1])),
        inverse=lambda a: (left.inverse(a[0]), right.inverse(a[1])),
        zero=(left.zero, right.zero),
        args=(left, right),
    )


# Backwards-friendly aliases used by the plugin layer.
MapGroup = map_group
PairGroup = pair_group
