"""Scalar functions over numpy object columns, once per unique value.

The KG body's linker and template run Python only on the UNIQUE
surfaces of a batch (cleaning, dictionary lookups, minting): one
``pd.factorize`` per column, the scalar function per unique value,
and one gather back to the rows. Cost follows the rows and the
distinct values, with no pandas ``Series`` built per step.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def per_unique(values: np.ndarray, fn, null: tuple) -> list[np.ndarray]:
    """Call ``fn`` (returning a tuple) once per unique non-null value
    of ``values``; return one object array per tuple item, aligned
    with ``values``. Null rows (None or NaN) get ``null``."""
    codes, uniques = pd.factorize(values)
    # code -1 (a null row) indexes the trailing ``null`` entry
    table = [fn(u) for u in uniques] + [null]
    out = []
    for item in zip(*table):
        arr = np.empty(len(item), dtype=object)
        arr[:] = item
        out.append(arr[codes])
    return out


def map_unique(values: np.ndarray, fn, null=None) -> np.ndarray:
    """``fn(v)`` for every row, computed once per unique non-null
    value; null rows get ``null``."""
    return per_unique(values, lambda v: (fn(v),), (null,))[0]
