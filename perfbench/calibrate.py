"""Calibration run: a fresh interpreter does fixed pure-Python work, then exits.

    python3 perfbench/calibrate.py

run.py times it from spawn to exit, like the workloads' own child
processes.  The work is shaped like fbpaths' own (dict updates, tuple
slices, big-integer products) but never calls it, so a change to the
program does not change this time; it follows the machine's speed (see
README.md).
"""


def work() -> int:
    poly: dict[int, int] = {}
    for i in range(12000):
        k = (i * 7) & 511
        poly[k] = poly.get(k, 0) + i * i
    heights = tuple(range(64))
    total = 0
    for i in range(3000):
        j = i % 40
        total += sum(heights[j:j + 16])
    big, mod = 3 ** 1500, 7 ** 2200
    for i in range(300):
        big = (big * 12345 + i) % mod
    return total + len(poly) + big % 97


if __name__ == "__main__":
    for _ in range(30):
        work()
