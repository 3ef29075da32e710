"""Reference 3x3 convolution: one pixel-major einsum per tap.

This is the model's original ``_conv3x3``, kept verbatim as the oracle that
the channel-major convolution in ``splitstream.model`` is tested against.
Both must give the same float32 bits, sign of zero included.
"""

from __future__ import annotations

import numpy as np


def _conv3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded 3x3 convolution, zero fill, fixed tap accumulation order.

    optimize=False keeps einsum on its internal C loop, whose per-element
    reduction order does not depend on spatial position; that property is
    what makes shifted windows bitwise-identical.
    """
    h, wd = x.shape[:2]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, wd, w.shape[3]), dtype=np.float32)
    for dy in range(3):
        for dx in range(3):
            out += np.einsum(
                "hwi,io->hwo", xp[dy:dy + h, dx:dx + wd], w[dy, dx], optimize=False
            )
    return out
