"""``_workers.run_shares``: share 0 in this process, the others in forked
workers, the values in share order; a share no worker sent is computed
here once, and share 0 is never computed twice."""

import os
import sys
import time
import traceback

import numpy as np
import pytest

from conftest import no_children
from incongruity import _workers
from incongruity._workers import run_shares

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="work is forked on Linux only")


def value(share):
    """A share's value: 1 MiB, more than a pipe holds at once."""
    return np.arange(1 << 17, dtype=np.float64) * share


def assert_values(values, shares):
    assert len(values) == shares
    for share, got in enumerate(values):
        assert got.tobytes() == value(share).tobytes(), share


@pytest.fixture
def here():
    """The shares computed by this process, in order, and a ``compute``
    that logs them and runs ``hook(share)`` first in any process."""
    parent = os.getpid()
    log = []

    def compute(share, hook=lambda share: None):
        hook(share)
        if os.getpid() == parent:
            log.append(share)
        return value(share)

    return log, compute


@pytest.fixture
def pools(monkeypatch):
    """Records each pool's worker count and whether it gave a result."""
    records = []

    def spy(jobs, receive):
        result = run_forked(jobs, receive)
        records.append((len(jobs), result is not None))
        return result

    run_forked = _workers.run_forked
    monkeypatch.setattr(_workers, "run_forked", spy)
    return records


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_values_come_in_share_order(here, pools, shares):
    log, compute = here
    assert_values(run_shares(compute, shares), shares)
    # Every share but the first is a worker's.
    assert log == [0]
    assert pools == ([(shares - 1, True)] if shares > 1 else [])


def test_a_worker_that_sends_nothing_has_its_share_computed_here(here, pools):
    log, compute = here
    parent = os.getpid()

    def ending(share):
        if share == 1 and os.getpid() != parent:
            os._exit(0)  # a clean exit status, but no payload

    assert_values(run_shares(lambda share: compute(share, ending), 3), 3)
    assert log == [0, 1]
    assert pools == [(2, True)]


def test_a_worker_that_fails_has_every_workers_share_computed_here(here, pools):
    log, compute = here
    parent = os.getpid()

    def crashing(share):
        if share == 2 and os.getpid() != parent:
            raise ZeroDivisionError  # a bug: the worker exits 1

    assert_values(run_shares(lambda share: compute(share, crashing), 3), 3)
    # Share 0 is not computed again, and each worker's share once.
    assert log == [0, 1, 2]
    assert pools == [(2, False)]


def refused():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def test_refused_fork_computes_every_share_here(here, pools, monkeypatch):
    log, compute = here
    monkeypatch.setattr(os, "fork", refused)
    assert_values(run_shares(compute, 3), 3)
    assert log == [0, 1, 2]
    assert pools == [(2, False)]


def test_a_fault_in_a_workers_share_raises_as_in_one_process(pools, monkeypatch):
    def failing(share):
        if share == 1:
            raise ValueError("no value for share 1")
        return share

    def raised():
        with pytest.raises(ValueError, match="^no value for share 1$") as error:
            run_shares(failing, 2)
        return traceback.extract_tb(error.value.__traceback__)

    pooled = raised()  # the worker exits 1, and share 1 is computed here
    monkeypatch.setattr(os, "fork", refused)
    assert raised() == pooled
    assert pools == [(1, False), (1, False)]


def test_interrupt_kills_the_running_workers():
    parent = os.getpid()

    def interrupted(share):
        if os.getpid() != parent:
            time.sleep(60)  # still computing when this process is interrupted
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_shares(interrupted, 3)
    assert time.monotonic() - start < 30
    assert no_children()
