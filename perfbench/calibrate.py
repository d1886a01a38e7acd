"""Calibration kernel: how fast this machine runs Python right now.

    python3 perfbench/calibrate.py

Times a fixed pure-Python kernel (Fraction arithmetic, tuple-keyed dict
updates, modular powers: the kind of work zpmeasures does) and prints one
JSON line {"calib_s": <median of REPS timings>}.  It imports nothing from
zpmeasures, so a change to the program never changes it.  run.py runs it in
a fresh process between every two workers and divides each worker's times by
the calibration around it: on a shared host the CPU speed seen by one process
drifts by up to 2x over minutes, and the kernel slows down with it.
"""

import json
import statistics
import time
from fractions import Fraction

REPS = 3


def kernel(n: int = 3000, cells: int = 12000):
    """Arithmetic on a small table, then scattered updates of a table of
    `cells` Fractions (a few MB), so that the kernel feels contention for
    both the core and the caches, as the program does."""
    table = {}
    x = Fraction(1, 3)
    for i in range(1, n):
        key = (i % 97, (i * 7919) % 1009, i % 5)
        table[key] = table.get(key, 0) + pow(3 + i, 61, 5 ** 12)
        if i % 4 == 0:
            x = (x * Fraction(i % 13 + 1, i % 11 + 2) + Fraction(1, i)) % 97
    total = 0
    for (a, _, _), v in sorted(table.items()):
        total = (total + v * (a + 1)) % (5 ** 20)
    big = {(i % 251, (i * 7919) % 100003): Fraction(i % 17 + 1, i % 13 + 1)
           for i in range(cells)}
    keys = list(big)
    j = 0
    for _ in range(cells // 2):
        j = (j + 7919) % cells
        big[keys[j]] = big[keys[j]] * 3 + 1
        total += big[keys[j]].numerator % 7
    return x, total


def calibrate(reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({"calib_s": calibrate()}))
