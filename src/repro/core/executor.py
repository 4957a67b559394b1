"""Shared-memory parallel execution: the process-global thread pool.

The paper's system is aggressively multi-threaded — construction runs on 40
threads per node (Section 5.2) and queries are served by many workers — while
the kernels in this repository, although fully vectorised, used a single
core.  This module is the missing layer: a lazily created, size-configurable
:class:`~concurrent.futures.ThreadPoolExecutor` shared by every hot path,
plus the small mapping/sharding helpers those paths express their
parallelism with.

Threads, not processes, are the right tool here because every hot kernel
(the ``probe_words_batch`` gathers, the word-OR scatters, the bitwise
AND/OR mask reductions, the batched MurmurHash3 passes) bottoms out in
numpy operations that release the GIL — a thread pool gets near-linear
speedup on real arrays without pickling a single byte, and memory-mapped
index shards additionally share one page cache across all workers.

Configuration, in decreasing precedence:

1. :func:`set_num_threads` / the :func:`num_threads` context manager —
   explicit programmatic control (the CLI's ``--threads`` lands here);
2. the ``REPRO_THREADS`` environment variable;
3. ``os.cpu_count()``.

``threads == 1`` means *strictly inline* execution: :func:`parallel_map`
degenerates to a plain loop with zero pool overhead and perfect
determinism, which is both the test-suite reference mode and the sensible
default on single-core containers.

Every parallel consumer in the repository is bit-identical to its inline
form by construction — work is sharded along axes whose results combine
with order-independent operations (per-term result rows, per-shard pair
lists over disjoint documents, Bloom-filter ORs) — and the property
suite (``tests/test_parallel_exec.py``) asserts it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Environment variable consulted when no explicit override is set.
THREADS_ENV_VAR = "REPRO_THREADS"

#: Environment variable overriding the default term-shard minimum.
MIN_TERMS_ENV_VAR = "REPRO_MIN_TERMS_PER_SHARD"

#: Default smallest term-shard COBS's batched query (the one term-sharded
#: engine left; RAMBO's runs inline) splits off for a worker thread.  Below
#: ~64 terms the per-task Python overhead (a future, a closure call, a
#: result hand-off) rivals the numpy work inside the shard, so shorter
#: batches simply run inline.
DEFAULT_MIN_TERMS_PER_SHARD = 64

#: The machine's core count, read once: :func:`get_num_threads` runs on every
#: query batch and ``os.cpu_count()`` is a system call each time.
_CPU_COUNT = os.cpu_count() or 1

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0
_override: Optional[int] = None
_min_terms_override: Optional[int] = None
# Worker-thread marker: parallel_map called from inside a pool worker runs
# inline, so nested parallelism can neither deadlock the (finite) pool nor
# oversubscribe the machine.
_tls = threading.local()


def _validate_threads(value: int, source: str) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{source} must be a positive integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


def get_num_threads() -> int:
    """Effective worker count: override, else ``REPRO_THREADS``, else cpu count.

    Raises :class:`ValueError` for a malformed or non-positive
    ``REPRO_THREADS`` value — a silently ignored typo would masquerade as a
    performance bug.
    """
    if _override is not None:
        return _override
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None and env.strip():
        return _validate_threads(env, f"{THREADS_ENV_VAR} environment variable")
    return _CPU_COUNT


def set_num_threads(count: Optional[int]) -> None:
    """Set (or with ``None`` clear) the process-wide thread-count override.

    Takes precedence over ``REPRO_THREADS`` and the cpu count.  Setting
    ``1`` forces strictly inline execution everywhere; an existing pool is
    left alive (idle threads are free) and simply bypassed.
    """
    global _override
    if count is not None:
        count = _validate_threads(count, "thread count")
    with _lock:
        _override = count


@contextmanager
def num_threads(count: int) -> Iterator[None]:
    """Scoped :func:`set_num_threads`: restore the previous override on exit.

    The benchmark sweeps and the CLI use this so a thread-count choice never
    leaks into later library calls of the same process.
    """
    previous = _override
    set_num_threads(count)
    try:
        yield
    finally:
        set_num_threads(previous)


def get_min_terms_per_shard() -> int:
    """Effective term-shard floor: override, else env var, else the default.

    This is the ``min_per_shard`` of the term-axis :func:`shard_ranges` call
    in COBS's batched query engine.  Raises
    :class:`ValueError` for a malformed or non-positive
    ``REPRO_MIN_TERMS_PER_SHARD`` value, mirroring :func:`get_num_threads`.
    """
    if _min_terms_override is not None:
        return _min_terms_override
    env = os.environ.get(MIN_TERMS_ENV_VAR)
    if env is not None and env.strip():
        return _validate_threads(env, f"{MIN_TERMS_ENV_VAR} environment variable")
    return DEFAULT_MIN_TERMS_PER_SHARD


def set_min_terms_per_shard(count: Optional[int]) -> None:
    """Set (or with ``None`` clear) the process-wide term-shard floor.

    Takes precedence over ``REPRO_MIN_TERMS_PER_SHARD`` and the default of
    :data:`DEFAULT_MIN_TERMS_PER_SHARD` (64).  Sharding only changes *how*
    a batch is split across threads, never its result, so this is purely a
    performance knob.
    """
    global _min_terms_override
    if count is not None:
        count = _validate_threads(count, "min terms per shard")
    with _lock:
        _min_terms_override = count


@contextmanager
def min_terms_per_shard(count: int) -> Iterator[None]:
    """Scoped :func:`set_min_terms_per_shard`, restoring the previous value."""
    previous = _min_terms_override
    set_min_terms_per_shard(count)
    try:
        yield
    finally:
        set_min_terms_per_shard(previous)


def shutdown_pool() -> None:
    """Tear down the global pool (it is rebuilt lazily on next use).

    Mainly for tests and for forked workers that inherited a stale parent
    pool reference.
    """
    global _pool, _pool_size
    with _lock:
        pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def _get_pool(size: int) -> ThreadPoolExecutor:
    """The shared pool, grown (never shrunk) to at least *size* workers.

    Growing instead of resizing exactly keeps pool churn at zero when
    callers alternate between thread counts (a bench sweeping 1/2/4, say);
    surplus idle threads cost nothing while they wait.
    """
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < size:
            stale = _pool
            _pool = ThreadPoolExecutor(max_workers=size, thread_name_prefix="repro-exec")
            _pool_size = size
            if stale is not None:
                stale.shutdown(wait=False)
        return _pool


def in_worker() -> bool:
    """Whether the calling thread is one of the pool's workers."""
    return bool(getattr(_tls, "active", False))


def parallel_map(fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> List[_Result]:
    """``[fn(item) for item in items]``, fanned out over the shared pool.

    Results are returned in input order and the first raised exception
    propagates, exactly like the inline comprehension.  Runs inline (no
    pool, no futures) when the effective thread count is 1, when there are
    fewer than two items, or when called from inside a pool worker — the
    last rule is what makes nested parallelism (a distributed query fanning
    out across shards whose per-shard engines are themselves
    executor-aware) safe by construction instead of a deadlock.
    """
    items = list(items)
    count = get_num_threads()
    if count <= 1 or len(items) <= 1 or in_worker():
        return [fn(item) for item in items]
    pool = _get_pool(count)

    def task(item: _Item) -> _Result:
        _tls.active = True
        try:
            return fn(item)
        finally:
            _tls.active = False

    futures = [pool.submit(task, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        # On error, do not leave abandoned siblings running against state
        # the caller is about to unwind.
        for future in futures:
            future.cancel()


def shard_ranges(
    total: int, num_shards: int, min_per_shard: int = 1
) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into up to *num_shards* contiguous slices.

    Returns ``(start, stop)`` pairs that tile ``[0, total)`` in order with
    sizes differing by at most one — the canonical work split every parallel
    path uses, so per-shard results re-assemble by plain concatenation.
    ``min_per_shard`` bounds fragmentation: shards are never smaller than it
    (except the only shard of a short input), which keeps per-task Python
    overhead negligible next to the numpy work inside each shard.
    """
    if total <= 0:
        return []
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if min_per_shard < 1:
        raise ValueError(f"min_per_shard must be >= 1, got {min_per_shard}")
    shards = min(num_shards, max(1, total // min_per_shard))
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges
