"""In-thread host-speed sampling, to take the host's speed swings out of times.

On a shared host the same pure-Python work can take up to twice as long
from one second or minute to the next, process CPU time swings with wall
time, and the two cores drift independently, so neither repetition, CPU
time nor a calibrating second process removes the noise.

``HostSpeed`` therefore samples the measured thread itself: a real-time
interval timer runs a fixed block of pure-Python reference work in a
signal handler every ``SAMPLE_INTERVAL_S`` seconds, between the program's own
bytecodes, with the garbage collector paused (a collection's cost depends
on the program's heap, not on the host).  A measured interval is reported
twice:

* raw: wall time minus the sampling time spent inside it;
* normalized: the sum, over the stretches between samples, of each
  stretch x nominal block time / median time of the blocks around it;
  that is, the time the interval would have taken on a host running the
  block at its nominal speed all along.

The reference work resembles the program's (small hashable terms built,
hashed and looked up, isinstance tests, table probes), never calls into
bbpda, and is the same on every commit.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Median unit time on the 2-core x86-64 host (CPython 3.11) the benchmark
# was built on; it only fixes the scale, so normalized times read close to
# seconds there.
REFERENCE_UNIT_S = 0.00025
SAMPLE_INTERVAL_S = 0.1  # real-time period of the samples in a pass
BLOCK_UNITS = 16  # units per sample, about 4 ms
LOCAL_BLOCKS = 5  # samples whose median sets the speed of one stretch


class _Node:
    """A small hashable term, like the program's stack words."""

    __slots__ = ("state", "word")

    def __init__(self, state, word):
        self.state = state
        self.word = word

    def __hash__(self):
        return hash((self.state, self.word))

    def __eq__(self, other):
        return isinstance(other, _Node) and self.state == other.state and self.word == other.word


_STATES = tuple(f"s{i}" for i in range(8))
_KEYS = [(i & 15, i % 7, str(i)) for i in range(4096)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def _reference_unit() -> int:
    """Build, hash, look up and step small terms, then probe a larger table."""
    total = 0
    for i in range(320):
        key = _KEYS[(i * 97) & 4095]
        if isinstance(key, tuple):
            total += _TABLE[key] & 7
    seen = {}
    frontier = [_Node("s0", ("X",))]
    steps = 0
    while frontier and steps < 40:
        node = frontier.pop()
        steps += 1
        for k, state in enumerate(_STATES[:3]):
            word = node.word[1:] + ("Y",) if k else ("X",) + node.word[:3]
            nxt = _Node(_STATES[(len(word) + k + steps) % 8], word)
            if nxt not in seen:
                seen[nxt] = steps
                frontier.append(nxt)
    return total + len(seen)


class HostSpeed:
    def __init__(self, on_sample=None):
        self.on_sample = on_sample  # called with each block's seconds
        self.starts = []  # perf_counter at the start of each block
        self.blocks = []  # seconds each block took
        self._local = []  # per block: median of the LOCAL_BLOCKS around it
        self._previous = None

    def sample(self):
        """Time one block of reference units now, with the collector paused."""
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(BLOCK_UNITS):
            _reference_unit()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.blocks.append(end - start)
        if self.on_sample is not None:
            self.on_sample(end - start)

    def _handler(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, start: float, end: float):
        """(raw, normalized) seconds for the interval [start, end].

        Each stretch between two blocks is scaled by the median of the
        LOCAL_BLOCKS blocks around it, so speed changes within a long call
        are followed; a short call takes the stretch it falls in.
        """
        n = len(self.blocks)
        if n == 0:
            raise RuntimeError("no host-speed samples were taken")
        if len(self._local) != n:
            half = LOCAL_BLOCKS // 2
            self._local = [
                statistics.median(self.blocks[max(0, i - half): i + half + 1]) for i in range(n)
            ]
        nominal = REFERENCE_UNIT_S * BLOCK_UNITS
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        raw = normalized = 0.0
        t = start
        for i in range(lo, hi + 1):
            stretch = (self.starts[i] if i < hi else end) - t
            raw += stretch
            normalized += stretch * nominal / self._local[min(i, n - 1)]
            if i < hi:
                t = self.starts[i] + self.blocks[i]
        return raw, normalized
