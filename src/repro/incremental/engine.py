"""Running programs incrementally.

The paper's workflow (Sec. 4.1): write the program against plugin
primitives, ``Derive`` it once, then "arrange for the program to be called
on changes instead of updated inputs".  ``IncrementalProgram`` is that
arrangement:

* ``initialize(a₁ … aₙ)`` runs the base program once and caches inputs and
  output;
* ``step(da₁ … daₙ)`` evaluates the derivative on the cached inputs and
  the incoming changes, updates the output with ``⊕``, and advances the
  cached inputs -- *lazily*, so a self-maintainable derivative never
  actually materializes them (Sec. 4.3);
* ``recompute()`` reruns the base program from the current inputs, for
  verification and for the benchmarks' from-scratch baseline.

Evaluation statistics are exposed so callers can assert, not merely time,
that the fast path stayed self-maintainable (e.g. the base ``merge`` is
never called during steps of the specialized ``grand_total``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.compile import compile_value
from repro.data.change_values import (
    _COMPOSE_COUNTER,
    GroupChange,
    change_size,
    compose_changes,
    oplus_value,
)
from repro.derive.derive import derive_program
from repro.errors import DerivativeError, InvalidChangeError
from repro.lang.infer import infer_type
from repro.lang.terms import Term
from repro.lang.types import Type, uncurry_fun_type
from repro.observability import Observability, Span, get_observability
from repro.observability import metrics as _metrics

#: Pre-bound enabled flag: the step fast path reads one attribute
#: instead of calling into the observability hub.
_STATE = _metrics.STATE
from repro.optimize.pipeline import optimize as run_optimizer
from repro.plugins.registry import Registry
from repro.semantics.eval import apply_value, evaluate
from repro.semantics.thunk import EvalStats, Thunk, force


class _LazyInput:
    """A cached input advanced lazily by a log of pending changes.

    ``current()`` folds the log iteratively, so arbitrarily long change
    sequences never build nested thunk chains (and never overflow the
    Python stack).  While the log is unfolded, a self-maintainable
    derivative pays nothing for input advancement beyond an append.

    Pending changes are composed into the log's unfolded tail (the
    change-composition monoid), *in place* where the group allows it:
    the first composition copies the tail into a delta this queue owns,
    and later pushes of the same group ``_absorb`` into it, touching
    only the pushed change's keys.  A push therefore costs O(|dv|) no
    matter how large the pending delta has grown, and no pushed change
    is ever mutated.  A tail that ``current()`` has folded may be
    shared with the folded value, so it is never mutated again.

    The folded prefix is *cached*: ``_value`` always reflects the first
    ``_folded`` log entries, so repeated ``current()`` calls between
    steps (recompute baselines, verifiers, drift detectors) fold each
    change exactly once instead of re-applying the whole queue.

    ``advances`` counts pushes; ``materializations`` counts the times
    ``current()`` actually had to fold unapplied changes -- i.e. someone
    (a non-self-maintainable derivative, ``recompute``, a verifier)
    demanded the up-to-date base value.  A self-maintainable fast path
    shows ``materializations == 0`` across steps, which is the checkable
    form of "the derivative never touched its base input".  ``folds``
    counts individual changes applied by folding; it must never exceed
    ``advances`` (each pushed change is folded at most once).
    """

    __slots__ = (
        "_value",
        "_changes",
        "_folded",
        "_owned",
        "_undo",
        "advances",
        "materializations",
        "folds",
    )

    def __init__(self, value: Any):
        self._value = value
        self._changes: List[Any] = []
        self._folded = 0
        #: True while the unfolded tail is a ``GroupChange`` whose delta
        #: this queue created and may absorb into.
        self._owned = False
        #: Writes to the owned tail since ``snapshot()`` (None when no
        #: snapshot is open), replayed backwards by ``restore()``.
        self._undo: Optional[List[tuple]] = None
        self.advances = 0
        self.materializations = 0
        self.folds = 0

    def push(self, change: Any) -> None:
        self.advances += 1
        changes = self._changes
        # Only an *unfolded* tail entry may absorb the new change:
        # folded entries are already reflected in ``_value``.
        if len(changes) > self._folded:
            tail = changes[-1]
            if self._absorb(tail, change):
                return
            composed = compose_changes(tail, change)
            if composed is not None:
                changes[-1] = composed
                self._owned = False
                return
        changes.append(change)
        self._owned = False

    def _absorb(self, tail: Any, change: Any) -> bool:
        """Compose ``change`` into ``tail`` in place when both are
        changes of one group with an ``absorb`` hook; False otherwise."""
        if not (
            isinstance(tail, GroupChange)
            and isinstance(change, GroupChange)
            and tail.group._absorb is not None
            and (change.group is tail.group or change.group == tail.group)
        ):
            return False
        if _STATE.on:
            # An in-place absorb is a change composition and counts as one.
            _COMPOSE_COUNTER.inc()
        if not self._owned:
            # The first composition takes ownership with a copy: the tail
            # may be the caller's change, or a composition that returned
            # one of its operands unchanged.  The copy is fresh, so its
            # writes need no undo entries.
            owned = GroupChange(tail.group, tail.delta._copy())
            tail.group._absorb(owned.delta, change.delta, None)
            self._changes[-1] = owned
            self._owned = True
            return True
        undo = self._undo if self._undo is not None else []
        mark = len(undo)
        try:
            tail.group._absorb(tail.delta, change.delta, undo)
        except BaseException:
            # A failing push leaves the tail as it found it.
            _replay(undo, mark)
            raise
        return True

    def current(self) -> Any:
        value = force(self._value)
        changes = self._changes
        folded = self._folded
        if len(changes) > folded:
            self.materializations += 1
            for index in range(folded, len(changes)):
                value = oplus_value(value, changes[index])
            self.folds += len(changes) - folded
            self._folded = len(changes)
            self._value = value
        return value

    @property
    def pending_changes(self) -> int:
        """Log entries not yet folded into the cached value."""
        return len(self._changes) - self._folded

    # -- transactional support ---------------------------------------------

    def snapshot(self) -> Tuple[Any, int, Any, bool, int, int]:
        """Capture enough state to undo pushes/folds done after this point.

        Folding is a pure optimization over persistent values, and the
        only mutation -- absorbing into the owned tail -- is logged, so
        the snapshot is O(1) and opens an undo log that grows by O(|dv|)
        per push: the cached value reference, the log length, the tail
        entry (a later ``push`` may replace the tail slot), its
        ownership and the counters.  The already-folded prefix is
        compacted away first so the log length alone pins the unfolded
        suffix.
        """
        if self._folded:
            del self._changes[: self._folded]
            self._folded = 0
        self._undo = []
        changes = self._changes
        return (
            self._value,
            len(changes),
            changes[-1] if changes else None,
            self._owned,
            self.advances,
            self.materializations,
        )

    def restore(self, snapshot: Tuple[Any, int, Any, bool, int, int]) -> None:
        value, length, tail, owned, self.advances, self.materializations = (
            snapshot
        )
        if self._undo:
            _replay(self._undo, 0)
        self._undo = None
        self._value = value
        del self._changes[length:]
        if length:
            self._changes[length - 1] = tail
        # A tail folded since the snapshot may be shared with the folded
        # value, so it is no longer ours to mutate.
        self._owned = owned and not self._folded
        self._folded = 0


def _replay(undo: List[tuple], mark: int) -> None:
    """Undo the writes logged in ``undo[mark:]``, newest first, and drop
    them from the log (see ``Bag._absorb`` for the entry format)."""
    for index in range(len(undo) - 1, mark - 1, -1):
        entry = undo[index]
        if len(entry) == 2:
            del entry[0][entry[1]]
        else:
            entry[0][entry[1]] = entry[2]
    del undo[mark:]


#: Recognized evaluation backends: ``compiled`` stages terms into plain
#: Python closures once (see :mod:`repro.compile`), ``interpreted`` keeps
#: the reference tree-walking evaluator.  Semantics and EvalStats are
#: identical; only the constant factor differs.
BACKENDS = ("compiled", "interpreted")


def compose_change_rows(rows: Sequence[Sequence[Any]]) -> Optional[List[Any]]:
    """Fold a burst of change rows into one composed change per input.

    Returns None as soon as any pairwise composition is unsupported, in
    which case the caller must fall back to per-row stepping.
    """
    composed = list(rows[0])
    for row in rows[1:]:
        for index, change in enumerate(row):
            try:
                merged = compose_changes(composed[index], change)
            except Exception:
                # A composition that *raises* (e.g. a corrupt payload
                # meeting an eager group merge) is as unsupported as one
                # that returns None -- per-row stepping will attribute
                # the failure to the offending row transactionally.
                return None
            if merged is None:
                return None
            composed[index] = merged
    return composed


class _BatchSteppingMixin:
    """``step_batch`` shared by both engines (change-batch fusion)."""

    def step_batch(
        self, batch: Sequence[Sequence[Any]], coalesce: bool = True
    ) -> Any:
        """React to a burst of change rows (one row = one change per
        input); returns the updated output.

        With ``coalesce`` (the default) the rows are first folded into a
        single composed change per input via the change-composition
        monoid, and the derivative runs *once* instead of ``len(batch)``
        times -- exact for group/bag/map changes, where
        ``df a (da₁ ∘ da₂)`` and ``df a da₁`` followed by
        ``df (a ⊕ da₁) da₂`` update the output identically (see
        ``docs/performance.md``).  A coalesced burst counts as one
        ``step``; rows it absorbed are tallied in ``coalesced_changes``
        and the ``engine.coalesced_changes`` metric.  When any pairwise
        composition is unsupported the whole batch falls back to
        per-row stepping (still transactional per row).
        """
        if self._inputs is None:
            raise RuntimeError("call initialize() before step_batch()")
        rows = [tuple(row) for row in batch]
        for row in rows:
            if len(row) != self.arity:
                raise ValueError(
                    f"expected {self.arity} changes per row, got {len(row)}"
                )
        if not rows:
            return self._output
        if coalesce and len(rows) > 1:
            composed = compose_change_rows(rows)
            if composed is not None:
                output = self.step(*composed)
                absorbed = len(rows) - 1
                self.coalesced_changes += absorbed
                if _STATE.on:
                    get_observability().metrics.counter(
                        "engine.coalesced_changes"
                    ).inc(absorbed)
                return output
        output = self._output
        for row in rows:
            output = self.step(*row)
        return output


class IncrementalProgram(_BatchSteppingMixin):
    """A closed curried program plus its statically-derived derivative."""

    def __init__(
        self,
        term: Term,
        registry: Registry,
        specialize: bool = True,
        optimize: bool = True,
        strict: bool = False,
        arity: Optional[int] = None,
        infer: bool = True,
        backend: str = "compiled",
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of {BACKENDS})"
            )
        self.registry = registry
        self.strict = strict
        self.backend = backend
        self.stats = EvalStats()

        if infer:
            term, program_type = infer_type(term)
            self.program_type: Optional[Type] = program_type
            inferred_arity = len(uncurry_fun_type(program_type)[0])
        else:
            self.program_type = None
            inferred_arity = 0
        self.term = term
        self.arity = arity if arity is not None else inferred_arity
        if self.arity == 0:
            raise ValueError("program must take at least one input")

        derived = derive_program(term, registry, specialize=specialize)
        if optimize:
            optimization = run_optimizer(derived)
            derived = optimization.term
            self.optimization = optimization
        else:
            self.optimization = None
        self.derived_term = derived

        if backend == "compiled":
            # Stage base program and derivative once; step() never
            # touches the AST again.
            self._program_value = compile_value(
                self.term, strict=strict, stats=self.stats
            )
            self._derivative_value = compile_value(
                self.derived_term, strict=strict, stats=self.stats
            )
        else:
            self._program_value = evaluate(
                self.term, strict=strict, stats=self.stats
            )
            self._derivative_value = evaluate(
                self.derived_term, strict=strict, stats=self.stats
            )

        self._inputs: Optional[List[_LazyInput]] = None
        self._output: Any = None
        self._steps = 0
        #: Change rows absorbed into composed steps by ``step_batch``.
        self.coalesced_changes = 0
        #: The root span of the most recent observed step (None while
        #: observability is disabled) -- the CLI and tests read it.
        self.last_step_span: Optional[Span] = None

    # -- lifecycle -----------------------------------------------------------

    def initialize(self, *inputs: Any) -> Any:
        """Run the base program on ``inputs`` and cache everything."""
        if len(inputs) != self.arity:
            raise ValueError(
                f"expected {self.arity} inputs, got {len(inputs)}"
            )
        hub = get_observability()
        if not hub.enabled:
            return self._initialize(inputs)
        stats_before = self.stats.snapshot()
        with hub.tracer.span("engine.initialize", arity=self.arity) as span:
            output = self._initialize(inputs)
            delta = self.stats.diff(stats_before)
            span.set(
                thunks_created=delta.thunks_created,
                thunks_forced=delta.thunks_forced,
                primitive_calls=delta.primitive_calls,
            )
        hub.metrics.counter("engine.initializations").inc()
        hub.metrics.histogram("engine.initialize.wall_time_s").record(
            span.duration
        )
        return output

    def _initialize(self, inputs: Sequence[Any]) -> Any:
        self._inputs = [_LazyInput(value) for value in inputs]
        self._output = apply_value(
            self._program_value,
            *[Thunk(lazy_input.current) for lazy_input in self._inputs],
        )
        self._steps = 0
        return self._output

    def step(self, *changes: Any) -> Any:
        """React to one change per input; returns the updated output.

        The step is *transactional*: derivative application, the output
        ``⊕``, and input advancement either all take effect or none do.
        On any failure the pre-step state is restored and a typed
        :class:`~repro.errors.ReproError` carrying the step number, the
        program term, and the offending changes is raised -- the engine
        stays resumable.
        """
        if self._inputs is None:
            raise RuntimeError("call initialize() before step()")
        if len(changes) != self.arity:
            raise ValueError(
                f"expected {self.arity} changes, got {len(changes)}"
            )
        if _STATE.on:
            return self._step_observed(get_observability(), changes)
        new_output = self._transact(changes)
        self._output = new_output
        self._steps += 1
        return self._output

    def _transact(self, changes: Sequence[Any]) -> Any:
        """Run one step's derivative/⊕/advance against shadow state.

        Returns the new output; on success the input queues have been
        advanced, on failure they are rolled back and a typed error is
        raised.  The caller commits ``_output``/``_steps`` only on
        success, so the program state is never mutually inconsistent.
        """
        snapshots = [lazy_input.snapshot() for lazy_input in self._inputs]
        try:
            output_change = self._apply_derivative(changes)
        except Exception as error:
            self._rollback(snapshots)
            raise DerivativeError(
                "derivative application failed",
                term=self.term,
                step=self._steps,
                change=changes,
                cause=error,
            ) from error
        try:
            new_output = oplus_value(self._output, output_change)
            # Advance the cached inputs lazily: if the derivative never
            # needs base inputs, they are never materialized either.
            for lazy_input, change in zip(self._inputs, changes):
                lazy_input.push(change)
        except Exception as error:
            self._rollback(snapshots)
            raise InvalidChangeError(
                "change application failed",
                term=self.term,
                step=self._steps,
                change=changes,
                cause=error,
            ) from error
        return new_output

    def _rollback(self, snapshots: Sequence[Any]) -> None:
        for lazy_input, snapshot in zip(self._inputs, snapshots):
            lazy_input.restore(snapshot)
        if _STATE.on:
            get_observability().metrics.counter("engine.rollbacks").inc()

    def _apply_derivative(self, changes: Sequence[Any]) -> Any:
        interleaved: List[Any] = []
        for lazy_input, change in zip(self._inputs, changes):
            # The derivative must see the input *before* this change; the
            # thunk is only forced (if at all) inside the synchronous
            # apply below, before the change is queued.
            interleaved.append(Thunk(lazy_input.current, self.stats))
            interleaved.append(change)
        return apply_value(self._derivative_value, *interleaved)

    def _step_observed(self, hub: Observability, changes: Sequence[Any]) -> Any:
        """``step`` with a per-step span and per-step metric deltas.

        The span reports exactly the quantities behind the O(|change|)
        claim: derivative-apply time, ⊕ count, the output change's size,
        thunk created/forced deltas, primitive-call deltas, and whether
        any base input was materialized.
        """
        metrics = hub.metrics
        stats_before = self.stats.snapshot()
        oplus_before = metrics.counter_value("changes.oplus")
        compose_before = metrics.counter_value("changes.compose")
        materialized_before = sum(
            lazy_input.materializations for lazy_input in self._inputs
        )
        with hub.tracer.span("engine.step", step=self._steps) as span:
            snapshots = [lazy_input.snapshot() for lazy_input in self._inputs]
            try:
                with hub.tracer.span("derivative"):
                    output_change = self._apply_derivative(changes)
            except Exception as error:
                self._rollback(snapshots)
                raise DerivativeError(
                    "derivative application failed",
                    term=self.term,
                    step=self._steps,
                    change=changes,
                    cause=error,
                ) from error
            try:
                with hub.tracer.span("oplus"):
                    new_output = oplus_value(self._output, output_change)
                for lazy_input, change in zip(self._inputs, changes):
                    lazy_input.push(change)
            except Exception as error:
                self._rollback(snapshots)
                raise InvalidChangeError(
                    "change application failed",
                    term=self.term,
                    step=self._steps,
                    change=changes,
                    cause=error,
                ) from error
            self._output = new_output
            self._steps += 1
            delta = self.stats.diff(stats_before)
            span.set(
                oplus_count=metrics.counter_value("changes.oplus")
                - oplus_before,
                compose_count=metrics.counter_value("changes.compose")
                - compose_before,
                output_change_size=change_size(output_change),
                thunks_created=delta.thunks_created,
                thunks_forced=delta.thunks_forced,
                thunk_hits=delta.thunk_hits,
                primitive_calls=delta.primitive_calls,
                pending_depth=[
                    lazy_input.pending_changes for lazy_input in self._inputs
                ],
                inputs_materialized=sum(
                    lazy_input.materializations for lazy_input in self._inputs
                )
                - materialized_before,
            )
        metrics.counter("engine.steps").inc()
        metrics.counter("engine.step.oplus").inc(span["oplus_count"])
        metrics.counter("engine.step.thunks_forced").inc(delta.thunks_forced)
        metrics.counter("engine.step.inputs_materialized").inc(
            span["inputs_materialized"]
        )
        metrics.histogram("engine.step.wall_time_s").record(span.duration)
        metrics.histogram("engine.step.output_change_size").record(
            span["output_change_size"]
        )
        metrics.gauge("engine.pending_depth").set(
            sum(lazy_input.pending_changes for lazy_input in self._inputs)
        )
        self.last_step_span = span
        return self._output

    # -- inspection ------------------------------------------------------------

    @property
    def output(self) -> Any:
        if self._inputs is None:
            raise RuntimeError("program not initialized")
        return self._output

    @property
    def steps(self) -> int:
        return self._steps

    def current_inputs(self) -> Sequence[Any]:
        """Force and return the current inputs (defeats laziness; intended
        for verification)."""
        if self._inputs is None:
            raise RuntimeError("program not initialized")
        return [lazy_input.current() for lazy_input in self._inputs]

    def recompute(self) -> Any:
        """Run the base program from scratch on the current inputs."""
        if self._inputs is None:
            raise RuntimeError("program not initialized")
        return apply_value(self._program_value, *self.current_inputs())

    def verify(self) -> bool:
        """Check the incremental output against recomputation (Eq. 1)."""
        return self.recompute() == self._output

    # -- recovery ----------------------------------------------------------

    def rebase(self, *changes: Any) -> Any:
        """Apply ``changes`` to the inputs by ``⊕`` and recompute the
        output from scratch -- the fallback path when the derivative is
        partial (raised) but the changes themselves are valid.

        Counts as one step.  Atomic like ``step``: on failure the
        pre-call state is fully restored.
        """
        if self._inputs is None:
            raise RuntimeError("call initialize() before rebase()")
        if len(changes) != self.arity:
            raise ValueError(
                f"expected {self.arity} changes, got {len(changes)}"
            )
        try:
            updated = [
                oplus_value(lazy_input.current(), change)
                for lazy_input, change in zip(self._inputs, changes)
            ]
        except Exception as error:
            raise InvalidChangeError(
                "change application failed during rebase",
                term=self.term,
                step=self._steps,
                change=changes,
                cause=error,
            ) from error
        saved = (self._inputs, self._output, self._steps)
        try:
            self._initialize(updated)
            self._steps = saved[2] + 1
        except Exception:
            self._inputs, self._output, self._steps = saved
            raise
        if _STATE.on:
            get_observability().metrics.counter("engine.rebases").inc()
        return self._output

    def resync(self) -> Any:
        """Overwrite the incremental output with the recomputed one (the
        self-healing arm of drift detection)."""
        self._output = self.recompute()
        return self._output

    def fast_forward(self, steps: int) -> None:
        """Adopt ``steps`` as the number of already-absorbed steps.

        Crash recovery restores a checkpoint by re-initializing from the
        checkpointed inputs; the restored state *is* the result of that
        many steps, and journal replay needs the counter to agree so a
        suffix record's step number can be cross-checked before it is
        applied.
        """
        if self._inputs is None:
            raise RuntimeError("call initialize() before fast_forward()")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        self._steps = steps


def incrementalize(
    term: Term,
    registry: Registry,
    **kwargs: Any,
) -> IncrementalProgram:
    """Convenience constructor mirroring the paper's usage."""
    return IncrementalProgram(term, registry, **kwargs)
