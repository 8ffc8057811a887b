"""Intra-query parallelism: the Exchange operator family.

:class:`Exchange` fans one logical subtree out over N *partition*
subtrees (each typically rooted at a partitioned
:class:`~repro.exec.scans.TableScan`), runs them on worker threads, and
re-merges their batches behind the unchanged operator contract —
consumers cannot tell an Exchange from the sequential subtree it
replaced.

Determinism: partitions are *contiguous* page ranges and the consumer
emits them **partition-major** (all of partition 0, then 1, ...), so the
output row order equals the sequential scan's storage order exactly.
Workers still run concurrently — partition k+1's batches accumulate in
its bounded queue while partition k drains.

:class:`MergeExchange` is the order-preserving variant used under
``ORDER BY``: each partition subtree is a per-partition ``Sort``, and
the consumer k-way-merges the sorted streams with the Sort comparator
plus a partition-index tie-break.  Because partitions are contiguous
and ``Sort`` is stable, that merge reproduces the global stable sort
bit-for-bit.

Lifecycle: ``open()`` spawns one worker per partition; ``close()`` (or
an early close from ``Limit``) signals stop, drains the queues so no
worker stays blocked on a full queue, and joins every thread — an
Exchange never leaks a worker, and re-``open()`` after ``close()``
starts a fresh generation.  A worker failure is carried to the consumer
and re-raised from ``next_batch()`` after the other workers are torn
down.
"""

import os
import queue
import threading

from repro.exec.operator import Operator
from repro.exec.sort import _compare_values
from repro.util.errors import ExecutionError, ReproError

#: Batches buffered per partition before its worker blocks (backpressure).
QUEUE_DEPTH = 4

#: Poll granularity for stoppable blocking queue ops.
_TICK = 0.05


def default_parallelism():
    """Worker count from ``$REPRO_PARALLELISM`` (default 1 — sequential)."""
    raw = os.environ.get("REPRO_PARALLELISM")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ReproError(
            "REPRO_PARALLELISM must be a positive integer, got {!r}".format(raw)
        )
    if value < 1:
        raise ReproError(
            "REPRO_PARALLELISM must be a positive integer, got {!r}".format(raw)
        )
    return value


class _EndOfStream:
    __slots__ = ()


class _WorkerError:
    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


_EOS = _EndOfStream()


class Exchange(Operator):
    """Partition-major fan-out/fan-in over worker threads.

    *partitions* are the per-partition subtrees; they must share one
    schema.  Each runs its full ``open -> next_batch* -> close``
    lifecycle on its own worker thread, feeding a bounded queue the
    consumer drains in partition order.
    """

    def __init__(self, partitions):
        partitions = list(partitions)
        if not partitions:
            raise ExecutionError("Exchange needs at least one partition")
        self.partitions = partitions
        self.schema = partitions[0].schema
        self.children = tuple(partitions)
        self._queues = None
        self._workers = None
        self._stop = None
        self._current = 0
        self._pending_rows = None

    # -- lifecycle ------------------------------------------------------------

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self._shutdown()  # tolerate open() after an aborted run
        self._stop = threading.Event()
        self._queues = [queue.Queue(maxsize=QUEUE_DEPTH) for _ in self.partitions]
        self._current = 0
        self._pending_rows = None
        self._workers = []
        for child, chute in zip(self.partitions, self._queues):
            worker = threading.Thread(
                target=self._run_partition,
                args=(child, chute, self._stop),
                name="exchange-worker",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def close(self):
        self._shutdown()
        self._current = 0
        self._pending_rows = None

    def _shutdown(self):
        """Stop, drain, and join every worker of the current generation."""
        if self._workers is None:
            return
        self._stop.set()
        workers, queues = self._workers, self._queues
        self._workers = None
        self._queues = None
        for worker in workers:
            while worker.is_alive():
                # Keep the queues empty so a worker blocked on put() can
                # notice the stop flag and exit.
                for chute in queues:
                    try:
                        while True:
                            chute.get_nowait()
                    except queue.Empty:
                        pass
                worker.join(timeout=_TICK)

    # -- the worker -----------------------------------------------------------

    def _run_partition(self, child, chute, stop):
        try:
            child.open()
            try:
                while not stop.is_set():
                    batch = child.next_batch(self.batch_size)
                    if batch is None:
                        break
                    if not self._put(chute, batch, stop):
                        return
            finally:
                child.close()
            self._put(chute, _EOS, stop)
        except Exception as exc:  # noqa: BLE001 - carried to the consumer
            self._put(chute, _WorkerError(exc), stop)

    @staticmethod
    def _put(chute, item, stop):
        while not stop.is_set():
            try:
                chute.put(item, timeout=_TICK)
                return True
            except queue.Full:
                continue
        return False

    # -- the consumer ---------------------------------------------------------

    def next_batch(self, max_rows=None):
        if self._queues is None:
            raise ExecutionError("Exchange.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        if self._pending_rows:
            rows = self._pending_rows[:limit]
            self._pending_rows = self._pending_rows[limit:] or None
            return self.make_batch(rows)
        while self._current < len(self.partitions):
            item = self._take(self._current)
            if item is _EOS:
                self._current += 1
                continue
            if isinstance(item, _WorkerError):
                self._shutdown()
                raise item.error
            if len(item) <= limit:
                return item
            rows = item.to_rows()
            self._pending_rows = rows[limit:]
            return self.make_batch(rows[:limit])
        return None

    def _take(self, index):
        chute = self._queues[index]
        worker = self._workers[index]
        while True:
            try:
                return chute.get(timeout=_TICK)
            except queue.Empty:
                if not worker.is_alive():
                    # One more non-blocking look: the worker may have
                    # produced its terminal item between the timeout and
                    # the liveness check.
                    try:
                        return chute.get_nowait()
                    except queue.Empty:
                        self._shutdown()
                        raise ExecutionError(
                            "Exchange worker for partition {} died without "
                            "reporting end of stream".format(index)
                        )

    def label(self):
        return "Exchange: {} partitions".format(len(self.partitions))


class MergeExchange(Exchange):
    """Order-preserving Exchange: k-way merge of sorted partitions.

    *partitions* must each emit rows already ordered by *keys* (a list
    of ``(BoundExpr, descending)`` pairs — per-partition ``Sort``
    subtrees).  Rows that compare equal merge lowest-partition-first,
    which — partitions being contiguous ranges of a stable sort's input
    — reproduces the global stable order exactly.
    """

    def __init__(self, partitions, keys):
        super().__init__(partitions)
        self.keys = list(keys)
        self._heads = None
        self._exhausted = None

    def open(self, bindings=None):
        super().open(bindings)
        self._heads = [None] * len(self.partitions)  # (key_tuple, row) or None
        self._exhausted = [False] * len(self.partitions)
        self._buffers = [[] for _ in self.partitions]  # undrained rows per part

    def close(self):
        super().close()
        self._heads = None
        self._exhausted = None
        self._buffers = None

    def _refill(self, index):
        """Ensure partition *index* has a decorated head row (or is done)."""
        if self._heads[index] is not None or self._exhausted[index]:
            return
        buffer = self._buffers[index]
        while not buffer:
            item = self._take(index)
            if item is _EOS:
                self._exhausted[index] = True
                return
            if isinstance(item, _WorkerError):
                self._shutdown()
                raise item.error
            buffer.extend(item.to_rows())
        row = buffer.pop(0)
        self._heads[index] = (
            tuple(expr.eval(row) for expr, _ in self.keys),
            row,
        )

    def _pop_min(self):
        """The next row in global order, or ``None`` when all are done."""
        best = None
        for index in range(len(self.partitions)):
            self._refill(index)
            head = self._heads[index]
            if head is None:
                continue
            if best is None or self._before(head[0], self._heads[best][0]):
                best = index
        if best is None:
            return None
        row = self._heads[best][1]
        self._heads[best] = None
        return row

    def _before(self, key_a, key_b):
        """Does *key_a* sort strictly before *key_b*?  (Ties keep the
        earlier partition, because the scan above visits partitions in
        ascending index order.)"""
        for i, (_, descending) in enumerate(self.keys):
            result = _compare_values(key_a[i], key_b[i])
            if result != 0:
                return (result > 0) if descending else (result < 0)
        return False

    def next_batch(self, max_rows=None):
        if self._queues is None:
            raise ExecutionError("MergeExchange.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        rows = []
        while len(rows) < limit:
            row = self._pop_min()
            if row is None:
                break
            rows.append(row)
        if not rows:
            return None
        return self.make_batch(rows)

    def label(self):
        rendered = ", ".join(
            "{}{}".format(expr.sql(self.schema), " Desc" if descending else "")
            for expr, descending in self.keys
        )
        return "MergeExchange: {} ({} partitions)".format(
            rendered, len(self.partitions)
        )
