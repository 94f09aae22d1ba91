"""Machine-speed calibration for the end-to-end timings.

The benchmark's host is shared: the same fixed piece of Python runs up
to about 1.4x slower at some moments than at others, in phases from well
under a second to minutes, and the program's passes slow down with it.
Raw medians of a run then move by more than any useful regression bound.
So each end-to-end timing is taken between two calibration readings and
scaled to a fixed reference speed: ``seconds * REFERENCE_S / reading``.
A change to the program moves the scaled number by the same factor as
the raw one; a change of machine speed mostly cancels out.
"""

from __future__ import annotations

import pickle
import statistics
import time

#: Calibration reading, in seconds, of the machine speed the scaled
#: timings refer to (the fast phase of the 2-vCPU host the benchmark was
#: tuned on, Python 3.11).
REFERENCE_S = 0.0125

#: The kernel mixes interpreter arithmetic with building and freeing many
#: small objects, as the program's passes do; a pure arithmetic loop
#: tracks their slowdowns less closely.
_LOOP = 100_000
_BLOB = pickle.dumps([(float(i), i, str(i)) for i in range(20_000)])


def reading() -> float:
    """Median of three timings of the calibration kernel, in seconds."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        del total
        objects = pickle.loads(_BLOB)
        del objects
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Scaled:
    """Times a span of work and scales it to the reference speed."""

    def __enter__(self) -> "Scaled":
        self.before = reading()
        return self

    def __exit__(self, *exc) -> None:
        self.factor = REFERENCE_S / ((self.before + reading()) / 2)

    def seconds(self, raw_s: float) -> float:
        return raw_s * self.factor
