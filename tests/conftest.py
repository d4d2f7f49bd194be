import heapq
import random
import signal
import threading
import time

import pytest

from treeact.trees import Tree
from treeact.tower import build_congruence_tower

try:
    import resource
except ImportError:   # not on every platform
    resource = None

# The session's address space is capped at 2 GiB (its own peak is near
# 160 MB), so a runaway loop, say a cycle in a union-find, fails with
# MemoryError instead of exhausting the host.  Only the soft limit is
# lowered, never raised; the hard limit, never below the soft, is left alone.
AS_LIMIT = 2 << 30
if resource is not None:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if _soft == resource.RLIM_INFINITY or _soft > AS_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, _hard))


# Each test is failed once it has run this long (the slowest takes about
# 6 s), so a runaway loop fails its test instead of stalling the session.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Arm a real-time timer for the test and fail the test when it fires;
    only in the main thread, which receives signals, and only where the
    platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(_signum, _frame):
        pytest.fail(f"test ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pruefer_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree on n vertices via a Pruefer sequence."""
    names = [f"v{i:02d}" for i in range(n)]
    if n == 1:
        return Tree((names[0],), ())
    if n == 2:
        return Tree(tuple(names), ((names[0], names[1]),))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((names[leaf], names[x]))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((names[u], names[v]))
    return Tree(tuple(names), tuple(edges))


@pytest.fixture(scope="session")
def tower322():
    """The depth-2 mod-4 tower, built once and shared; returns (system, seconds)."""
    start = time.monotonic()
    sys_ = build_congruence_tower(3, 2, 2)
    return sys_, time.monotonic() - start
