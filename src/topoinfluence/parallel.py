"""Integer sums over contiguous block ranges, walked in forked processes.

A walk adds a range of blocks' int64 terms into one int64 array of any
shape.  A sampled run adds order j's marginals, drawn from Philox block
j alone, and their squares into the rows of a (2, n) array; the masking
run adds graph g's labels, from its own blocks, into row g of a
(graphs, |J|, 3) array.  So the totals over blocks a to c are those over
a to b plus those over b to c, whichever process walks each part.
``sum_blocks`` walks blocks in timed chunks, from the first, until it
can estimate the walking left; ``split_ranges`` cuts the blocks left
into one contiguous range per process, and ``sum_ranges`` walks the
first range in this process and each later one in a forked child,
adding the children's arrays in range order.  Each process of a split
is pinned to a CPU of its own.  The children are forked, not spawned,
so they inherit everything the first chunks built and write back only
their array's bytes; ``usable_cpus`` allows a fork only while no other
Python thread runs.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
import warnings
from typing import Callable, NoReturn, Sequence

import numpy as np

# A run splits only when it predicts more walking left than this, and
# gives each process at least this much.  Forking a 46 MB process,
# sending 16 KB back over a pipe and reaping it took 1.9 ms median and
# 3.7 ms at most over 30 trials (2 vCPUs, Python 3.11.7), and a 50-order
# run on a 13-vertex graph walks for about 1 ms in all.
SPLIT_MIN_S = 0.02

Walk = Callable[[range, np.ndarray], object]


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where a fork is unavailable
    or unsafe: without ``os.fork`` or ``os.sched_getaffinity``, or with
    another Python thread alive."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def split_ranges(start: int, stop: int, estimate: float, cpus: int) -> list[range]:
    """Blocks ``start`` to ``stop`` as contiguous ranges in order, one per
    process, for ``estimate`` seconds of walking: as many as there are
    CPUs and blocks, but no more than leave each process ``SPLIT_MIN_S``
    of it.  Their lengths differ by at most one."""
    parts = max(1, min(cpus, stop - start))
    while parts > 1 and parts * SPLIT_MIN_S > estimate:
        parts -= 1
    size, extra = divmod(stop - start, parts)
    bounds = [start + k * size + min(k, extra) for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def sum_blocks(walk: Walk, start: int, stop: int, totals: np.ndarray) -> None:
    """``walk`` over blocks ``start`` to ``stop`` into ``totals``, in chunks
    of 1, 2, 4, ... blocks, each timed.  From the second chunk on, the least
    time per block of any chunk so far, times the blocks left, predicts the
    walking left: the least, so that one stalled chunk does not split a
    short run.  Once :func:`split_ranges` gives that more than one range on
    the usable CPUs, :func:`sum_ranges` walks the blocks left, the first
    range in this process."""
    done, chunk, per_block = start, 1, math.inf
    while done < stop:
        began = time.perf_counter()
        end = min(done + chunk, stop)
        walk(range(done, end), totals)
        per_block = min(per_block, (time.perf_counter() - began) / (end - done))
        done, chunk = end, 2 * chunk
        if chunk > 2:
            ranges = split_ranges(done, stop, (stop - done) * per_block, usable_cpus())
            if len(ranges) > 1:
                sum_ranges(walk, ranges, totals)
                return


def sum_ranges(walk: Walk, ranges: Sequence[range], totals: np.ndarray) -> None:
    """``walk(ranges[0], totals)`` here and ``walk(r, own zeros)`` in a
    forked child for each later range r, each child's array then added
    to ``totals`` in range order.  ``walk`` adds a range's int64 terms
    into the array it is given.  A range whose child cannot be started,
    for want of a pipe or a process, fails or sends short is walked here
    instead.  Every child is reaped, and any still running when this
    exits by an exception is killed first.

    While it runs, this process is pinned to the lowest CPU of
    ``os.sched_getaffinity(0)`` and the child of ``ranges[k]`` to the
    k-th of them in order, starting over past the last, so that
    short-lived children do not queue on their parent's CPU; this
    process gets its CPUs back when this returns or raises.  A process
    whose pinning raises OSError runs unpinned."""
    cpus = sorted(os.sched_getaffinity(0))
    reads: list[int] = []
    pids: list[int] = []
    running: set[int] = set()
    pinned = _pin({cpus[0]})
    try:
        for k, blocks in enumerate(ranges[1:], 1):
            read = write = pid = -1
            try:
                read, write = os.pipe()
                pid = _fork()
                if pid == 0:
                    _child(walk, blocks, totals, write, cpus[k % len(cpus)])
            except OSError:  # no pipe or process to be had: this one walks the range
                pass
            finally:
                reads.append(read)
                if write >= 0:
                    os.close(write)
            pids.append(pid)
            if pid > 0:
                running.add(pid)
        walk(ranges[0], totals)
        for blocks, pid, read in zip(ranges[1:], pids, reads):
            data, status = b"", 1
            if pid > 0:
                data = _read_to_end(read)
                _, status = os.waitpid(pid, 0)
                running.discard(pid)
            if status == 0 and len(data) == totals.nbytes:
                totals += np.frombuffer(data, totals.dtype).reshape(totals.shape)
            else:
                walk(blocks, totals)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for read in reads:
            if read >= 0:
                os.close(read)
        if pinned:
            _pin(cpus)


def _pin(cpus) -> bool:
    """Whether this process could be confined to ``cpus``."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _fork() -> int:
    with warnings.catch_warnings():
        # CPython 3.12 warns of a fork while other threads run.  numpy's
        # BLAS pool may be running, but a walk calls no BLAS routine and
        # no other Python thread is alive (``usable_cpus``).
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _child(walk: Walk, blocks: range, totals: np.ndarray, write: int, cpu: int) -> NoReturn:
    """In a forked child: pinned to ``cpu`` where it may be, walk ``blocks``
    into a zeroed array shaped like ``totals``, write its bytes to
    ``write`` and leave by ``os._exit``, never returning into the parent's
    code or flushing its buffered output."""
    code = 1
    try:
        _pin({cpu})
        own = np.zeros_like(totals, order="C")
        walk(blocks, own)
        data = memoryview(own).cast("B")
        while data:
            data = data[os.write(write, data) :]
        code = 0
    finally:
        os._exit(code)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
