"""Canonical value digests: the hash every pinned digest is built from.

:func:`digest_values` folds ints, floats (``repr`` round-trip), strings,
nested lists/tuples and numpy scalars/arrays into one SHA-256, so a
digest is stable across platforms and numpy versions.  The golden table
(:mod:`repro.check`), the chaos traffic case and the sharded GA's
cross-shard tripwire all hash through it.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _fold(h: "hashlib._Hash", value: Any) -> None:
    """Canonical, numpy-scalar-proof serialisation into a running hash."""
    if isinstance(value, bool) or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, int):
        h.update(str(value).encode())
    elif isinstance(value, float):
        # repr(float(x)) also normalises np.float64 (a float subclass whose
        # repr is numpy-version-dependent) to the portable Python spelling
        h.update(repr(float(value)).encode())
    elif isinstance(value, str):
        h.update(value.encode())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _fold(h, v)
            h.update(b",")
        h.update(b"]")
    else:  # numpy scalars / arrays: go through float/list explicitly
        import numpy as np

        if isinstance(value, np.ndarray):
            _fold(h, [float(v) for v in value.ravel()])
        elif isinstance(value, np.floating):
            _fold(h, float(value))
        elif isinstance(value, np.integer):
            _fold(h, int(value))
        else:
            raise TypeError(f"undigestable value {value!r}")


def digest_values(*values: Any) -> str:
    """SHA-256 digest of ``values`` rendered to canonical JSON."""
    h = hashlib.sha256()
    for v in values:
        _fold(h, v)
        h.update(b";")
    return h.hexdigest()
