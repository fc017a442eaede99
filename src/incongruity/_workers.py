"""Forked worker processes: the one place the package forks.

Three callers run their work here, each on :func:`process_count`
processes.  The fold pool (``harness``) and the S/WS block pool
(``similarity``) hand :func:`run_shares` one function of a share number,
and get its values back in share order: this process computes share 0
while forked workers compute the others, and pickle them back.  The
byte-range text loader (``embeddings``) streams each worker's rows
straight into one final matrix, through :func:`run_forked` and
:func:`read_into`.  A fork, not a spawn: a fresh interpreter spends about
as long importing numpy as a worker saves.  A fork copies only the
calling thread, so work is forked only on Linux and only while no other
Python thread runs; numpy's OpenBLAS stops its own threads across a fork.
"""

from __future__ import annotations

import functools
import io
import os
import pickle
import signal
import sys
import threading
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

T = TypeVar("T")


def process_count(work: int, least: int) -> int:
    """How many processes share ``work``: one per CPU this process may run
    on, but none with less than ``least`` of it; 1 off Linux or while
    another Python thread runs."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // least))


def run_shares(compute: Callable[[int], T], shares: int) -> list[T]:
    """``compute(share)`` for each share in ``range(shares)``, in share order.

    This process computes share 0 while a forked worker per other share
    computes that share and pipes its value back pickled.  This process
    then computes each share that no worker sent, or every worker's share
    if a worker exits otherwise than 0 or no pipe or process can be had.
    It does so with the same call as a one-process run, so a fault there
    raises with the one-process traceback.  Share 0 is computed once.
    """
    values: dict[int, T] = {}

    def send(share: int, out: BinaryIO) -> bool:
        # The write blocks until this process is done with share 0.
        out.write(pickle.dumps(compute(share)))
        return True

    def receive(pipes: list[io.FileIO]) -> list[bytes]:
        values[0] = compute(0)
        return [pipe.readall() for pipe in pipes]

    jobs = [functools.partial(send, share) for share in range(1, shares)]
    payloads = run_forked(jobs, receive) if jobs else None
    # Unpickled only once every worker has exited 0, so a payload is whole.
    for share, payload in enumerate(payloads or (), 1):
        if payload:
            values[share] = pickle.loads(payload)
    for share in range(shares):
        if share not in values:
            values[share] = compute(share)
    return [values[share] for share in range(shares)]


def run_forked(
    jobs: Sequence[Callable[[BinaryIO], bool]],
    receive: Callable[[list[io.FileIO]], T | None],
) -> T | None:
    """Run each of ``jobs`` in a forked worker of its own, then ``receive``
    in this process.

    A job gets the write end of its worker's pipe as a binary file; the
    worker exits 0 only if the job returns True and its writes succeed.
    ``receive`` gets the pipes' read ends in ``jobs`` order, and may do
    work of its own first.
    The result is ``receive``'s, or None if it gives None, if a worker
    exits otherwise than 0, or if no pipe or process can be had.  Every
    worker is gone when this returns or raises: one that may still be
    running, because the result is None or ``receive`` raised, is killed.
    """
    pids: list[int] = []
    pipes: list[io.FileIO] = []
    result = None
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb", buffering=0))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(job, write_fd, pipes)
            finally:
                os.close(write_fd)
            pids.append(pid)
        result = receive(pipes)
    except OSError:
        pass  # no pipe or process to be had: the caller works in-process
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if result is None:
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1] != 0:
                result = None
    return result


def _work(job: Callable[[BinaryIO], bool], write_fd: int, pipes: list[io.FileIO]) -> NoReturn:
    """A worker's whole life: run ``job`` on its pipe, then exit without
    running the parent's clean-up.  A fault is the parent's to name."""
    status = 1
    try:
        # Keep no read end, its own pipe's included: a write then fails as
        # soon as the parent's end is closed, also if the parent died.
        for pipe in pipes:
            pipe.close()
        with open(write_fd, "wb", closefd=False) as out:
            done = job(out)
        if done:  # and its output flushed
            status = 0
    finally:
        os._exit(status)


def read_into(pipe: io.FileIO, buffer) -> bool:
    """Fill ``buffer`` from ``pipe``; False if the pipe ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        read = pipe.readinto(view)
        if not read:
            return False
        view = view[read:]
    return True
