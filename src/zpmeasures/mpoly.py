"""The one add-and-prune loop behind the package's sparse algebras.

`NcSeries` (the Magnus and octagon series), the octagon's `SymPoly` and the
exponent-tuple dictionaries of `magnus.exp_transform_roundtrip` all add
coefficients into dicts through `accumulate`, so a cancelled coefficient
never stays behind as a stored zero.
"""

from __future__ import annotations


def accumulate(out: dict, pairs) -> None:
    """Add (key, coefficient) pairs into `out`, dropping keys that cancel.

    Coefficients may be Fractions or anything whose truth value says
    "nonzero" (such as the octagon module's SymPoly).
    """
    for k, c in pairs:
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
