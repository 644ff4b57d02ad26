"""The exact-oracle workload: O(p^2) exact-sum amplitudes against the fast transform.

Usage, from the repository root with the package on the path:

    PYTHONPATH=src python perfbench/oracle.py --seed 7

It draws one yhat uniformly from [-1, 1]^p at p = 8192 with NumPy's default
generator, computes `amplitudes_periodic(sd, "exact-sum")` and
`"fast-transform"`, and
prints one line with the largest |difference| and a SHA-256 of both amplitude
vectors, so that repeats can be compared byte for byte. It exits 0 when the
difference is at most 1e-12 and 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from anticip.spectral import SpectralDifferencePeriodic, amplitudes_periodic

PERIOD = 8192
TOLERANCE = 1e-12


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    yhat = np.random.default_rng(args.seed).uniform(-1.0, 1.0, PERIOD)
    sd = SpectralDifferencePeriodic(yhat)
    exact = amplitudes_periodic(sd, "exact-sum").values
    fast = amplitudes_periodic(sd, "fast-transform").values
    deviation = float(np.max(np.abs(exact - fast)))
    digest = hashlib.sha256(exact.tobytes() + fast.tobytes()).hexdigest()
    print(f"period={PERIOD} max_abs_diff={deviation!r} sha256={digest}")
    return 0 if deviation <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
