"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark's host is shared, and its speed drifts: the same scenario ran
1.7 times slower a few minutes later, and got faster again, while nothing
in the benchmark changed. ``run.py`` therefore times ``probe()`` before
every scenario and once after the last, and scales each scenario's time by
``NOMINAL_S / (median of the probes around it)``: scenario times are
reported at the speed the machine had when ``NOMINAL_S`` was measured.

The probe is the benchmark's own code and does not touch ``entropy_lab``,
so a change to the program moves the scenario times and leaves the probe
alone. Its work is what the host's drift slows most, and what the engine
does most: it allocates many small lists and integer objects, rewrites
them and drops them, over about a megabyte of memory. A probe of pure
arithmetic on a few cached objects followed the drift less well: across
six runs of ``torsion-power`` in which unscaled throughput spread 0.31
(quartile distance over median), scaling by it left 0.07, scaling by this
probe 0.03.

It imports nothing, so ``run.py`` can use it before it has measured the
import of the package.
"""

# A typical time of probe() on the reference machine (Python 3.11.7, Intel
# Xeon, 2 cores of a shared virtual machine; the medians of single runs
# ranged 3.3-5.6 ms): the speed every reported time is scaled to.
NOMINAL_S = 0.004


def probe() -> int:
    """Do the same fixed work every call; returns a checksum of it."""
    rows = [[(i * j) & 1023 for j in range(64)] for i in range(300)]
    acc = 0
    for _ in range(3):
        rows = [r[1:] + r[:1] for r in rows]
        acc += sum(r[5] for r in rows)
    big = [i * 7 + 1000 for i in range(20000)]
    return acc + sum(big[::3])
