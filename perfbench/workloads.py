"""The benchmark workloads: seeded inputs, client loops, references.

Every workload is a closed loop: one client in one process sends its next
call only after the previous one returned.  The system is driven only
through its public entry points (``assemble_stack``, ``SupervisedRuntime``
and ``persistence.recovery.recover``); the program receives nothing but
the generated inputs.  Outputs are checked against plain-Python
references kept with ``dict``/``Counter`` arithmetic, never with the
system's own ``Bag``/``PMap`` ⊕ or its ``recompute``.

A workload object owns its inputs, its reference and its change stream.
``run.py`` drives it through ``build`` (set-up, timed as ``setup_s``),
then per client call ``prepare`` (untimed), ``execute`` (timed) and
``check`` (untimed), then ``final_check``, and last
``recovery_stream`` (a fixed-length durable run that ``recover`` then
restores).
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.data.bag import Bag
from repro.data.change_values import GroupChange
from repro.data.group import BAG_GROUP
from repro.lang.parser import parse
from repro.mapreduce.skeleton import histogram_term
from repro.mapreduce.workloads import (
    add_word_change,
    make_corpus,
    remove_word_change,
)
from repro.runtime import (
    INCREMENTAL,
    DurabilityPolicy,
    SupervisedRuntime,
    assemble_stack,
)

#: Fig. 5 wordcount over a vocabulary wide enough that the output map
#: (about 37k words) grows with the input.
WORDCOUNT_WORDS = 256_000
WORDCOUNT_VOCABULARY = 64_000
#: Share of single-word changes that add a word (the rest remove one).
ADD_SHARE = 0.8
#: Reads after each write on ``wordcount-reads`` (the 3:1 read-heavy mix).
READS_PER_WRITE = 3

#: The §5.2.2 program whose top-level derivative is not self-maintainable.
PRODUCT_SOURCE = (
    r"\xs ys -> let tx = foldBag gplus id xs in "
    r"let ty = foldBag gplus id ys in mul tx ty"
)
PRODUCT_BAG_SIZE = 16_000
PRODUCT_VALUES = 1000
#: One call in BURST_EVERY is a burst of BURST_ROWS rows.
BURST_EVERY = 4
BURST_ROWS = 8
PRODUCT_SPEC = ["metrics", "durable", "resilient"]

#: Durable-layer settings shared by the serving stack and the recovery
#: phase: journal framing and encoding are measured, fsync is not,
#: because fsync on a shared disk measures the host.
SNAPSHOT_EVERY = 256
#: Rows journaled before ``recover`` is timed.  Fixed, so recovery time
#: does not grow with the throughput of the timed window.  Wordcount
#: journals fewer: each of its rows is replayed against a 256k-word
#: corpus, and checkpoint 0 plus a short replay already covers both
#: recovery paths.
WORDCOUNT_RECOVERY_ROWS = 64
PRODUCT_RECOVERY_ROWS = 8192


def durability_policy() -> DurabilityPolicy:
    return DurabilityPolicy(journal_fsync="never", snapshot_every=SNAPSHOT_EVERY)


def wordcount_runtime(registry: Any, directory: Optional[str] = None) -> SupervisedRuntime:
    """Fig. 5 wordcount on the bare engine, or, given a ``directory``,
    under a durable layer journaling there."""
    if directory is None:
        return SupervisedRuntime(assemble_stack(histogram_term(registry), registry, []))
    stack = assemble_stack(
        histogram_term(registry),
        registry,
        ["durable"],
        durable={"directory": directory, "policy": durability_policy()},
    )
    return SupervisedRuntime(stack)


def product_runtime(registry: Any, directory: str) -> SupervisedRuntime:
    """The product program on the caching engine behind the serving stack."""
    os.makedirs(directory, exist_ok=True)
    stack = assemble_stack(
        parse(PRODUCT_SOURCE, registry),
        registry,
        PRODUCT_SPEC,
        engine="caching",
        durable={"directory": directory, "policy": durability_policy()},
    )
    return SupervisedRuntime(stack)


def zipf_word(rng: random.Random, vocabulary: int) -> int:
    """A word id with the Zipf-like rank distribution of ``make_corpus``."""
    return min(int(vocabulary ** rng.random()), vocabulary - 1)


@dataclass
class CallResult:
    """What one client call committed and how many of its checks failed."""

    rows: int
    failures: int


class WordcountStream:
    """Seeded single-word changes and the reference histogram they imply.

    Adds draw a Zipf-distributed word; removes take a word present in the
    document, so counts never go negative.  Documents are uniform.
    """

    def __init__(self, documents: Dict[int, Dict[int, int]], vocabulary: int,
                 seed: int):
        self.rng = random.Random(seed)
        self.vocabulary = vocabulary
        self.documents = {doc: dict(words) for doc, words in documents.items()}
        self.document_ids = sorted(self.documents)
        self.counts: Counter = Counter()
        for words in self.documents.values():
            self.counts.update(words)

    def next_change(self) -> Tuple[int, int, int]:
        rng = self.rng
        doc = self.document_ids[rng.randrange(len(self.document_ids))]
        words = self.documents[doc]
        if rng.random() < ADD_SHARE or not words:
            return doc, zipf_word(rng, self.vocabulary), 1
        return doc, rng.choice(tuple(words)), -1

    def apply(self, doc: int, word: int, delta: int) -> None:
        words = self.documents[doc]
        count = words.get(word, 0) + delta
        if count:
            words[word] = count
        else:
            del words[word]
        total = self.counts[word] + delta
        if total:
            self.counts[word] = total
        else:
            del self.counts[word]

    @staticmethod
    def row(doc: int, word: int, delta: int) -> Tuple[Any]:
        change = add_word_change if delta > 0 else remove_word_change
        return (change(doc, word),)

    def expected(self) -> Dict[int, int]:
        return {word: count for word, count in self.counts.items() if count}


def output_mismatches(output: Any, expected: Dict[Any, Any]) -> int:
    """Entries of a map-valued ``output`` that differ from ``expected``."""
    actual = dict(output.items())
    keys = set(actual) | set(expected)
    return sum(1 for key in keys if actual.get(key) != expected.get(key))


class Wordcount:
    """``wordcount-reads``: the wide-vocabulary wordcount, each write
    followed by ``READS_PER_WRITE`` reads of the changed word.

    The stack is ``SupervisedRuntime`` over the bare compiled engine with
    observability off.
    """

    observe = False

    def __init__(self, seed: int, words: int = WORDCOUNT_WORDS,
                 vocabulary: int = WORDCOUNT_VOCABULARY):
        corpus = make_corpus(words, vocabulary, seed=seed)
        self.inputs = (corpus.documents,)
        self.documents = {
            doc: dict(bag.counts()) for doc, bag in corpus.documents.items()
        }
        self.vocabulary = vocabulary
        self.stream = WordcountStream(self.documents, vocabulary, seed + 1)
        self.reads_done = 0
        self.held: Optional[Tuple[Any, int, int]] = None
        self.seed = seed

    def build(self, registry: Any, directory: str) -> SupervisedRuntime:
        return wordcount_runtime(registry)

    def prepare(self) -> Tuple[Any, ...]:
        """The next request: one single-word change row."""
        doc, word, delta = self.stream.next_change()
        row = self.stream.row(doc, word, delta)
        return row, doc, word, delta, self.stream.counts.get(word, 0)

    def execute(self, runtime: Any, request: Tuple[Any, ...], read: Any) -> Any:
        """The timed part of a call: the write, then the reads."""
        outcomes = runtime.apply_rows([request[0]])
        last = None
        for _ in range(READS_PER_WRITE):
            last = read(runtime, request[2])
        return outcomes, last

    def check(self, request: Tuple[Any, ...], response: Any) -> CallResult:
        """Advance the reference and count the call's failed checks.

        A read must show the reference count, and the output held from
        the previous call must still show the counts it showed then.
        """
        _, doc, word, delta, old_count = request
        outcomes, last = response
        self.stream.apply(doc, word, delta)
        failures = sum(1 for outcome in outcomes if outcome != INCREMENTAL)
        self.reads_done += READS_PER_WRITE
        output, count = last
        if count != self.stream.counts.get(word, 0):
            failures += 1
        failures += self.held_read_failures(word, old_count)
        self.held = (output, word, count)
        return CallResult(1, failures)

    def held_read_failures(self, word: int, old_count: int) -> int:
        """1 if the output read on the previous call changed since then:
        the word it read, or the word this call's write changed."""
        if self.held is None:
            return 0
        output, held_word, held_count = self.held
        if held_word == word:
            return 0 if output.get(word, 0) == held_count else 1
        if output.get(held_word, 0) != held_count:
            return 1
        return 0 if output.get(word, 0) == old_count else 1

    def final_check(self, runtime: Any) -> int:
        return 1 if output_mismatches(runtime.output, self.stream.expected()) else 0

    def recovery_stream(self) -> "WordcountRecovery":
        return WordcountRecovery(self)


class WordcountRecovery:
    """A fixed number of single-word rows against the initial corpus."""

    def __init__(self, workload: Wordcount):
        self.stream = WordcountStream(
            workload.documents, workload.vocabulary, workload.seed + 2
        )
        self.inputs = workload.inputs

    def build(self, registry: Any, directory: str) -> SupervisedRuntime:
        return wordcount_runtime(registry, directory)

    def batches(self) -> List[List[Tuple[Any]]]:
        batches = []
        for _ in range(WORDCOUNT_RECOVERY_ROWS):
            doc, word, delta = self.stream.next_change()
            self.stream.apply(doc, word, delta)
            batches.append([self.stream.row(doc, word, delta)])
        return batches

    def matches(self, output: Any) -> bool:
        return output_mismatches(output, self.stream.expected()) == 0


class ProductStream:
    """Seeded bag rows for ``mul (Σxs) (Σys)`` and the reference sums.

    Each row adds an int to each bag, or (one row in five) removes one
    that is present: the first present value at or after a uniform draw
    (an empty bag gets an add instead).
    """

    def __init__(self, xs: List[int], ys: List[int], seed: int):
        self.rng = random.Random(seed)
        # Multiplicities per value, so the client's own memory stays
        # bounded however many rows a run sends.
        self.xs = Counter(xs)
        self.ys = Counter(ys)
        self.sum_x = sum(xs)
        self.sum_y = sum(ys)

    def _side(self, counts: Counter) -> Tuple[Any, int]:
        rng = self.rng
        value = rng.randrange(PRODUCT_VALUES)
        if rng.random() >= ADD_SHARE:
            for offset in range(PRODUCT_VALUES):
                present = (value + offset) % PRODUCT_VALUES
                if counts[present] > 0:
                    counts[present] -= 1
                    change = Bag.singleton(present).negate()
                    return GroupChange(BAG_GROUP, change), -present
        counts[value] += 1
        return GroupChange(BAG_GROUP, Bag.singleton(value)), value

    def next_row(self) -> Tuple[Tuple[Any, Any], int, int]:
        """A row plus the amounts it adds to each reference sum (applied
        by ``apply`` once the call returned)."""
        dxs, ax = self._side(self.xs)
        dys, ay = self._side(self.ys)
        return (dxs, dys), ax, ay

    def apply(self, ax: int, ay: int) -> None:
        self.sum_x += ax
        self.sum_y += ay

    def expected(self) -> int:
        return self.sum_x * self.sum_y


def product_batch(stream: ProductStream, call_index: int) -> Tuple[List[Any], int, int]:
    """The rows of call ``call_index``, plus what they add to each sum:
    one call in ``BURST_EVERY`` is a burst of ``BURST_ROWS`` rows."""
    size = BURST_ROWS if call_index % BURST_EVERY == BURST_EVERY - 1 else 1
    rows, total_x, total_y = [], 0, 0
    for _ in range(size):
        row, ax, ay = stream.next_row()
        rows.append(row)
        total_x += ax
        total_y += ay
    return rows, total_x, total_y


class ProductServing:
    """``product-serving``: the caching engine behind the full serving
    stack ``SupervisedRuntime`` > metrics > durable > resilient, with
    observability on."""

    observe = True

    def __init__(self, seed: int, size: int = PRODUCT_BAG_SIZE):
        rng = random.Random(seed)
        xs = [rng.randrange(PRODUCT_VALUES) for _ in range(size)]
        ys = [rng.randrange(PRODUCT_VALUES) for _ in range(size)]
        self.xs, self.ys = xs, ys
        self.inputs = (Bag(Counter(xs)), Bag(Counter(ys)))
        self.stream = ProductStream(xs, ys, seed + 1)
        self.calls = 0
        self.seed = seed

    def build(self, registry: Any, directory: str) -> SupervisedRuntime:
        return product_runtime(registry, directory)

    def prepare(self) -> Tuple[List[Any], int, int]:
        request = product_batch(self.stream, self.calls)
        self.calls += 1
        return request

    def execute(self, runtime: Any, request: Tuple[Any, ...], read: Any) -> Any:
        return runtime.apply_rows(request[0])

    def check(self, request: Tuple[Any, ...], outcomes: Any) -> CallResult:
        rows, ax, ay = request
        self.stream.apply(ax, ay)
        failures = sum(1 for outcome in outcomes if outcome != INCREMENTAL)
        return CallResult(len(rows), failures)

    def final_check(self, runtime: Any) -> int:
        return 0 if runtime.output == self.stream.expected() else 1

    def recovery_stream(self) -> "ProductRecovery":
        return ProductRecovery(self)


class ProductRecovery:
    """A fixed number of rows, in the serving burst pattern, against the
    initial bags."""

    def __init__(self, workload: ProductServing):
        self.stream = ProductStream(workload.xs, workload.ys, workload.seed + 2)
        self.inputs = workload.inputs

    def build(self, registry: Any, directory: str) -> SupervisedRuntime:
        return product_runtime(registry, directory)

    def batches(self) -> List[List[Any]]:
        batches, rows, index = [], 0, 0
        while rows < PRODUCT_RECOVERY_ROWS:
            batch, ax, ay = product_batch(self.stream, index)
            self.stream.apply(ax, ay)
            batches.append(batch)
            rows += len(batch)
            index += 1
        return batches

    def matches(self, output: Any) -> bool:
        return output == self.stream.expected()


WORKLOADS = ("wordcount-reads", "product-serving")


def make_workload(name: str, seed: int) -> Any:
    if name == "wordcount-reads":
        return Wordcount(seed)
    if name == "product-serving":
        return ProductServing(seed)
    raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
