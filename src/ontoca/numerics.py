"""Small shared numeric helpers on top of numpy."""

from __future__ import annotations

import numpy as np


def max_abs(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
