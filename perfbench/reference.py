"""Fixed reference program that the benchmark times between workload runs.

Usage, from the repository root:

    python perfbench/reference.py

It does a fixed mix of the work the workloads do (interpreter start, the
NumPy import, seeded normal draws, batched real FFTs and a pure-Python dict
loop) and prints one checksum. It does not import anticip, so no change to the
package moves its time; only the speed of the machine does. `run.py` divides
each workload run's wall time by the mean wall time of the reference runs just
before and after it, which takes out the phases in which a shared host runs
every program slower.
"""
from __future__ import annotations

import numpy as np

ROUNDS = 40


def main() -> None:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(ROUNDS):
        x = rng.standard_normal((256, 256))
        acc += float(np.abs(np.fft.rfft(x, axis=1)).sum())
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        acc += sum(counts.values()) * 1e-12
    print(f"{acc:.6e}")


if __name__ == "__main__":
    main()
