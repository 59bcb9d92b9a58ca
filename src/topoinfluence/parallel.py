"""Integer sums over contiguous block ranges, walked in forked processes.

A sampled run draws order j from Philox counter block j alone and keeps
int64 sums, so the sums over blocks a to c are those over a to b plus
those over b to c, whichever process walks each part.  ``split_ranges``
cuts the blocks left into one contiguous range per process, and
``sum_ranges`` walks the first range in this process and each later one
in a forked child, adding the children's sums in range order.  The
children are forked, not spawned, so they inherit everything the walk
has built and write back only their sums; ``usable_cpus`` allows a fork
only while no other Python thread runs.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from typing import Callable, NoReturn, Sequence

import numpy as np

# A run splits only when it predicts more walking left than this, and
# gives each process at least this much.  Forking a 46 MB process,
# sending 16 KB back over a pipe and reaping it took 1.9 ms median and
# 3.7 ms at most over 30 trials (2 vCPUs, Python 3.11.7), and a 50-order
# run on a 13-vertex graph walks for about 1 ms in all.
SPLIT_MIN_S = 0.02

Walk = Callable[[range, Sequence[np.ndarray]], object]


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


def sum_ranges(walk: Walk, ranges: Sequence[range], totals: Sequence[np.ndarray]) -> None:
    """``walk(ranges[0], totals)`` here and ``walk(r, own zeros)`` in a
    forked child for each later range r, each child's arrays then added
    to ``totals`` in range order.  ``walk`` adds a range's int64 terms
    into the arrays it is given.  A range whose child cannot be started,
    fails or sends short is walked here instead.  Every child is reaped,
    and any still running when this exits by an exception is killed
    first."""
    size = sum(t.nbytes for t in totals)
    reads: list[int] = []
    pids: list[int] = []
    running: set[int] = set()
    try:
        for blocks in ranges[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = _fork()
                if pid == 0:
                    _child(walk, blocks, totals, write)
            except OSError:  # no process to be had: this one walks the range
                pid = -1
            finally:
                os.close(write)
            pids.append(pid)
            if pid > 0:
                running.add(pid)
        walk(ranges[0], totals)
        for blocks, pid, read in zip(ranges[1:], pids, reads):
            data = _read_to_end(read)
            status = 1
            if pid > 0:
                _, status = os.waitpid(pid, 0)
                running.discard(pid)
            if status == 0 and len(data) == size:
                offset = 0
                for t in totals:
                    t += np.frombuffer(data, dtype=t.dtype, count=t.size, offset=offset)
                    offset += t.nbytes
            else:
                walk(blocks, totals)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)


def _fork() -> int:
    with warnings.catch_warnings():
        # CPython 3.12 warns of a fork while other threads run.  numpy's
        # BLAS pool may be running, but a walk calls no BLAS routine and
        # no other Python thread is alive (``usable_cpus``).
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _child(walk: Walk, blocks: range, totals: Sequence[np.ndarray], write: int) -> NoReturn:
    """In a forked child: walk ``blocks`` into zeroed arrays shaped like
    ``totals``, write them to ``write`` and leave by ``os._exit``, never
    returning into the parent's code or flushing its buffered output."""
    code = 1
    try:
        own = [np.zeros_like(t) for t in totals]
        walk(blocks, own)
        data = memoryview(b"".join(t.tobytes() for t in own))
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
