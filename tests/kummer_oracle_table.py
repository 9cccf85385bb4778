"""kummer-oracle's stored table: its 1000 seeded (a, b, z) samples and their
reference values, as one (4, 1000) complex array in
src/nhmorse/kummer_oracle.npy.

The samples and references depend only on the constants below, so the
check loads them rather than drawing and summing them on every pass.
tests/test_verify.py draws the table afresh and compares it bit for bit
with the file. To rewrite the file (after a change to
verify.reference_kummer, say), run

    PYTHONPATH=src python tests/kummer_oracle_table.py
"""

import random
from pathlib import Path

import numpy as np

from nhmorse import verify

PATH = Path(__file__).resolve().parents[1] / "src" / "nhmorse" / "kummer_oracle.npy"


def _admissible_b(rng: random.Random) -> complex:
    while True:
        b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
        r = round(b.real)
        if not (r <= 0 and abs(b - r) < 0.05):
            return b


def draw() -> np.ndarray:
    """The (a, b, z, reference) rows of the table, the references from one
    array call of the oracle, which sums the samples one at a time in the
    order drawn."""
    rng = random.Random(20060515)
    samples = []
    for _ in range(1000):
        a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
        b = _admissible_b(rng)
        z = rng.uniform(1e-6, 30.0)
        samples.append((a, b, z))
    a, b, z = (np.array(column) for column in zip(*samples))
    return np.array([a, b, z, verify.reference_kummer(a, b, z)])


if __name__ == "__main__":
    np.save(PATH, draw())
