"""A frozen pure-Python kernel that measures how fast the machine is right now.

On shared machines the speed available to one process drifts, by up to 2x
over minutes on the 2-vCPU host this benchmark was defined on, and every
raw call time drifts with it.  run.py therefore times this kernel right
before and right after each call and also reports the call in units of
the kernel's time (unit "ref"); the drift both share cancels in the ratio.

The kernel resembles the program's hot paths (SplitMix64 draws driving a
partial Fisher-Yates shuffle over a list, then float formatting), but it is
a frozen copy: changing the program never changes the unit.  Do not edit
it; that would rescale every *_ref metric and need a new baseline.
"""
import time

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_REPS = 2000


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def kernel() -> int:
    """Fixed work: 2000 draws of 112 of 365 indices, plus formatting."""
    state = 0
    total = 0
    lines = []
    for _ in range(_REPS):
        idx = list(range(365))
        for i in range(112):
            state = (state + _GOLDEN) & _MASK
            j = i + _mix(state) % (365 - i)
            idx[i], idx[j] = idx[j], idx[i]
        chosen = sorted(idx[:112])
        total += chosen[0]
        lines.append(",".join(repr(k / 7.0) for k in chosen[:40]))
    return total + len("\n".join(lines))


def timed_kernel() -> float:
    """Seconds one kernel() takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
