"""Digest for comparing kernel backends byte for byte.

The ``numpy`` and ``native`` backends (and the ``auto`` resolution
between them) must produce byte-for-byte equal products.
:func:`field_digest` collapses a dense match product into a short
stable digest so a single string equality check enforces it (the same
digest is used by serve's result cache keys and the search benchmark).
"""

from __future__ import annotations

import hashlib

import numpy as np


def field_digest(u, v, params, error) -> str:
    """Short stable digest of a dense match product's exact bytes."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (u, v, params, error):
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of any object with ``u``/``v``/``params``/``error`` arrays."""
    return field_digest(result.u, result.v, result.params, result.error)
