"""Tests of ``topoinfluence.parallel`` on walks of its own.

Each walk here adds per-block terms into one int64 array that tell
which process walked a block, and on how many CPUs, so the split's sums,
the pinning of every process and the parent's CPUs afterwards can be
read off the totals.
The engine's and the masking run's splits are tested with their callers.
"""

import errno
import os
import signal
import time

import numpy as np
import pytest

from topoinfluence import parallel

from oracles import COLLECTED_CPUS, no_child_left


def cpu_walk(blocks, totals):
    """Block b adds the number of CPUs its process may run on to
    ``totals[0, b]`` and the lowest of them to ``totals[1, b]``."""
    counts, lowest = totals
    for b in blocks:
        cpus = os.sched_getaffinity(0)
        counts[b] += len(cpus)
        lowest[b] += min(cpus)


def one_range_per_cpu():
    """One single-block range per CPU this process may run on, and those
    CPUs in order."""
    cpus = sorted(os.sched_getaffinity(0))
    return [range(k, k + 1) for k in range(len(cpus))], cpus


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
        parent = os.getpid()
        pipe = os.pipe
        calls = []

        def second_range_fails():
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.EMFILE, "too many open files")
            return pipe()

        def walk(blocks, totals):
            for b in blocks:
                totals[0, b] += b + 1
                totals[1, b] += os.getpid() == parent

        monkeypatch.setattr(os, "pipe", second_range_fails)
        split = np.zeros((2, 9), dtype=np.int64)
        parallel.sum_ranges(walk, [range(0, 3), range(3, 6), range(6, 9)], split)
        assert len(calls) == 2
        assert split[0].tolist() == list(range(1, 10))
        # The first two ranges were walked here, the third in a child.
        assert split[1].tolist() == [1] * 6 + [0] * 3
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
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


class TestPinning:
    """While a split runs, each of its processes runs on one CPU of its
    own; afterwards the parent runs on every CPU it had."""

    def test_each_process_runs_on_its_own_cpu(self):
        ranges, cpus = one_range_per_cpu()
        totals = np.zeros((2, len(cpus)), dtype=np.int64)
        parallel.sum_ranges(cpu_walk, ranges, totals)
        assert totals[0].tolist() == [1] * len(cpus)
        assert totals[1].tolist() == cpus
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_children_beyond_the_cpus_share_them_in_turn(self):
        cpus = sorted(os.sched_getaffinity(0))
        ranges = [range(k, k + 1) for k in range(len(cpus) + 2)]
        totals = np.zeros((2, len(ranges)), dtype=np.int64)
        parallel.sum_ranges(cpu_walk, ranges, totals)
        assert totals[0].tolist() == [1] * len(ranges)
        assert totals[1].tolist() == [cpus[k % len(cpus)] for k in range(len(ranges))]
        assert no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "killed"])
    def test_parent_cpus_restored_after_a_failed_child(self, failure):
        parent = os.getpid()

        def failing(blocks, totals):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            cpu_walk(blocks, totals)

        ranges = [range(0, 1), range(1, 2), range(2, 3)]
        totals = np.zeros((2, 3), dtype=np.int64)
        parallel.sum_ranges(failing, ranges, totals)
        # The failed ranges were walked here, pinned to the first CPU.
        assert totals[0].tolist() == [1, 1, 1]
        assert totals[1].tolist() == [min(COLLECTED_CPUS)] * 3
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_parent_cpus_restored_after_an_interrupt(self, monkeypatch):
        parent = os.getpid()

        def hanging(blocks, totals):
            if os.getpid() != parent:
                time.sleep(60)

        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "_read_to_end", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parallel.sum_ranges(hanging, [range(0, 1), range(1, 2)], np.zeros(2, dtype=np.int64))
        assert time.perf_counter() - start < 30
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()

    def test_refused_pinning_runs_unpinned(self, monkeypatch):

        def refused(pid, cpus):
            raise PermissionError("pinning refused")

        monkeypatch.setattr(os, "sched_setaffinity", refused)
        ranges, cpus = one_range_per_cpu()
        totals = np.zeros((2, len(cpus)), dtype=np.int64)
        parallel.sum_ranges(cpu_walk, ranges, totals)
        assert totals[0].tolist() == [len(cpus)] * len(cpus)
        assert totals[1].tolist() == [cpus[0]] * len(cpus)
        assert os.sched_getaffinity(0) == COLLECTED_CPUS
        assert no_child_left()
