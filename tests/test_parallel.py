"""Tests of ``topoinfluence.parallel`` on walks of its own.

Each walk here adds per-block terms into one int64 array, and some tell
whether the calling process or a child walked a block, so the split's
sums and which process walked each range can be read off the totals.
The engine's and the masking run's splits are tested with their callers.
"""

import errno
import os
import signal
import time

import numpy as np
import pytest

from topoinfluence import parallel

from oracles import COLLECTED_CPUS, counted_forks, no_child_left


def marking_walk(parent):
    """A walk where block b adds b + 1 to ``totals[0, b]``, and 1 to
    ``totals[1, b]`` when process ``parent`` walks it."""
    def walk(blocks, totals):
        for b in blocks:
            totals[0, b] += b + 1
            totals[1, b] += os.getpid() == parent

    return walk


def split_equals_serial(shape):
    """Blocks 0 to 20 split in three ranges add into totals of ``shape``
    as they do unsplit, block b into the cell its index modulo each
    dimension picks."""
    def walk(blocks, totals):
        for b in blocks:
            totals[tuple(b % d for d in totals.shape)] += b * b + 1

    split = np.zeros(shape, dtype=np.int64)
    parallel.sum_ranges(walk, [range(0, 7), range(7, 11), range(11, 20)], split)
    serial = np.zeros(shape, dtype=np.int64)
    walk(range(20), serial)
    assert split.shape == shape
    assert np.array_equal(split, serial)
    assert os.sched_getaffinity(0) == COLLECTED_CPUS
    assert no_child_left()


class TestSumRanges:
    def test_two_dimensional_totals_add_in_their_shape(self):
        split_equals_serial((5, 3))

    def test_three_dimensional_totals_add_in_their_shape(self):
        split_equals_serial((2, 5, 3))

    def test_range_without_a_pipe_is_walked_here(self, monkeypatch):
        pipe = os.pipe
        calls = []

        def second_range_fails():
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.EMFILE, "too many open files")
            return pipe()

        monkeypatch.setattr(os, "pipe", second_range_fails)
        split = np.zeros((2, 9), dtype=np.int64)
        walk = marking_walk(os.getpid())
        parallel.sum_ranges(walk, [range(0, 3), range(3, 6), range(6, 9)], split)
        assert len(calls) == 2
        assert split[0].tolist() == list(range(1, 10))
        # The first two ranges were walked here, the third in a child.
        assert split[1].tolist() == [1] * 6 + [0] * 3
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "killed"])
    def test_failed_child_range_is_walked_here(self, failure):
        parent = os.getpid()
        walk = marking_walk(parent)

        def failing(blocks, totals):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            walk(blocks, totals)

        totals = np.zeros((2, 3), dtype=np.int64)
        parallel.sum_ranges(failing, [range(0, 1), range(1, 2), range(2, 3)], totals)
        assert totals[0].tolist() == [1, 2, 3]
        assert totals[1].tolist() == [1, 1, 1]
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_interrupt_kills_and_reaps_children(self, monkeypatch):
        # The parent's own walk is interrupted once a child is forked,
        # while the child still walks.
        parent = os.getpid()
        forked = counted_forks(monkeypatch)

        def hanging(blocks, totals):
            if os.getpid() != parent:
                time.sleep(60)
            if forked:
                raise KeyboardInterrupt

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parallel.sum_ranges(hanging, [range(0, 1), range(1, 2)], np.zeros(2, dtype=np.int64))
        assert len(forked) == 1
        assert time.perf_counter() - start < 30
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_split_never_sets_cpu_affinity(self, monkeypatch):
        def refuse(pid, cpus):
            raise AssertionError("a split set a CPU affinity")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        ranges = [range(k, k + 1) for k in range(len(COLLECTED_CPUS) + 2)]
        totals = np.zeros((2, len(ranges)), dtype=np.int64)
        parallel.sum_ranges(marking_walk(os.getpid()), ranges, totals)
        assert totals[0].tolist() == [b + 1 for b in range(len(ranges))]
        # Every range after the first was walked by a child.
        assert totals[1].tolist() == [1] + [0] * (len(ranges) - 1)
        assert no_child_left()

    def test_every_block_walked_once(self, monkeypatch):
        for split_min_s in (0.0, parallel.SPLIT_MIN_S, float("inf")):
            monkeypatch.setattr(parallel, "SPLIT_MIN_S", split_min_s)
            for start, stop in [(0, 1), (3, 3), (2, 40), (0, 257)]:
                seen = np.zeros(stop + 1, dtype=np.int64)

                def walk(blocks, totals):
                    for b in blocks:
                        totals[b] += 1

                parallel.sum_blocks(walk, start, stop, seen)
                assert seen.tolist() == [int(start <= b < stop) for b in range(stop + 1)]
        assert no_child_left()

