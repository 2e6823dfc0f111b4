"""Host-speed sampler: how fast the CPU a measured process runs on is now.

On a shared host the speed a process gets changes within a second: on the
2-CPU host this benchmark was written on, a fixed loop ran either at full
speed or about 1.7 times slower, switching every 0.1-2 s (CPU time moves
with wall time, so this is not visible as steal).  A measured time is only
comparable with another once it is brought to one host speed.

A :class:`Sampler` installed in a measured process times a fixed loop on a
timer signal (every :data:`INTERVAL_S` of wall time) and keeps
``(time.monotonic(), loop seconds)`` pairs.  :func:`slowdown` gives the
mean of ``loop seconds / NOMINAL_S`` over a time window: how much slower
than the nominal host the process ran then.  The loop is a bare bytecode
loop over ``itertools.repeat`` (it allocates nothing, so the program's
heap and the garbage collector cannot slow it), and each sample is the
fastest of :data:`ROUNDS` loops, so a thread switch or an interrupt that
lands inside one loop is dropped.  Only the standard library is used.

``python3 perfbench/speed.py OUT.json -m MODULE ARGS...`` runs ``python3
-m MODULE ARGS...`` with a sampler installed and writes its samples to
``OUT.json`` when the module returns (the benchmark starts the dist-cold
worker this way).
"""

from __future__ import annotations

import bisect
import itertools
import json
import runpy
import signal
import sys
import time
from typing import List, Sequence, Tuple

#: Seconds of wall time between samples.
INTERVAL_S = 0.025

#: Iterations of the sampled loop, and loops per sample (the fastest
#: counts).
LOOP = 5000
ROUNDS = 3

#: Seconds one loop takes on the nominal host: a 2-CPU x86_64 host with
#: CPython 3.11 at its fast speed (about the fastest tenth of samples).
NOMINAL_S = 26e-6

Sample = Tuple[float, float]


def loop_seconds() -> float:
    """The fastest of :data:`ROUNDS` timings of the fixed loop."""
    best = float("inf")
    clock = time.perf_counter
    for _ in range(ROUNDS):
        begun = clock()
        for _ in itertools.repeat(None, LOOP):
            pass
        best = min(best, clock() - begun)
    return best


class Sampler:
    """Times the fixed loop every :data:`INTERVAL_S` on ``SIGALRM``."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), loop_seconds()))

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def slowdown(samples: Sequence[Sample], begin: float, end: float) -> float:
    """Mean of ``loop seconds / NOMINAL_S`` over the samples taken between
    ``begin`` and ``end`` (``samples`` in time order); the sample nearest
    the window when none falls in it; 1.0 without samples."""
    if not samples:
        return 1.0
    times = [moment for moment, _ in samples]
    first = bisect.bisect_left(times, begin)
    last = bisect.bisect_right(times, end)
    if first < last:
        inside = samples[first:last]
    else:
        near = min((index for index in (first - 1, first)
                    if 0 <= index < len(samples)),
                   key=lambda index: min(abs(times[index] - begin),
                                         abs(times[index] - end)))
        inside = samples[near:near + 1]
    return sum(seconds for _, seconds in inside) / len(inside) / NOMINAL_S


def main(argv: List[str]) -> int:
    out, flag, module, *args = argv[1:]
    if flag != "-m":
        raise SystemExit("usage: speed.py OUT.json -m MODULE [ARGS...]")
    sampler = Sampler().start()
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sampler.stop()
        with open(out, "w") as handle:
            json.dump(sampler.samples, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
