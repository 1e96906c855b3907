"""Constant padding of the two trailing (spatial) axes."""
from __future__ import annotations

import numpy as np


def pad2d(x: np.ndarray, padding: int, fill: float = 0) -> np.ndarray:
    """``x`` with ``padding`` cells of ``fill`` around its last two axes.

    Bit-identical to ``np.pad`` with ``constant_values=fill``, without its
    per-call Python overhead: one allocation and one interior copy.
    Returns ``x`` itself when ``padding`` is 0.
    """
    if padding == 0:
        return x
    *lead, h, w = x.shape
    shape = (*lead, h + 2 * padding, w + 2 * padding)
    out = np.zeros(shape, x.dtype) if fill == 0 else np.full(shape, fill, x.dtype)
    out[..., padding : padding + h, padding : padding + w] = x
    return out
