"""Wall-clock intervals with the host's steal time taken out.

On a shared virtual machine the host sometimes runs other guests while
this one has work to do.  Linux counts that time as *steal* in the first
line of /proc/stat.  On the reference machine it swung single rounds by
up to 40%: the same solve took 5.6 s of wall time with 0.2 s of steal
and 8.3 s with 2.1 s, while wall time less steal stayed within 5.1-6.3 s.
Every interval here is therefore wall time less the steal counted over
it, which is the wall time on a machine of one's own.  Where /proc/stat
has no steal count the interval is plain wall time.

A stamp is (time.monotonic(), steal seconds).  Both clocks are
system-wide, so a stamp taken in one process can be subtracted from one
taken in another.
"""

import os
import time

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Steal time of all CPUs since boot, in seconds; 0 if not counted."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _TICKS_PER_S if len(fields) > 8 else 0.0


def stamp() -> tuple:
    return (time.monotonic(), steal_s())


def elapsed(start, end) -> float:
    """Wall seconds from one stamp to the other, less the steal between them."""
    return (end[0] - start[0]) - (end[1] - start[1])
