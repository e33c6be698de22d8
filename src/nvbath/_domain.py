"""The one domain check: every "positive / non-negative and finite", "finite"
and "integer >= k" refusal in nvbath raises its ``ValueError`` here, in one
message shape, and every "a name outside its set" refusal in a second.
Imports nothing from nvbath."""

import math

import numpy as np


def check(name: str, value, low=0.0, *, strict: bool = True, integer: bool = False):
    """``value``, unchanged, if it lies in its domain; else ``ValueError``
    "{name} must be positive|non-negative|> low|>= low and finite, got {value}".

    The domain is (low, inf), or [low, inf) unless ``strict``; ``low`` -inf
    makes it every finite number ("must be finite"). An array's every entry
    must lie in it, and the message names the first that does not. With
    ``integer``, ``value`` must be a Python or numpy integer (a ``bool`` is
    not one) of at least ``low`` ("must be an integer >= low").
    """
    if integer:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            if value >= low:
                return value
        bad, bound = value, "an integer" if low == -math.inf else f"an integer >= {low:g}"
    else:
        if not isinstance(value, np.ndarray):
            lo = hi = value
        elif value.ndim:  # min and max propagate NaN, so the two cover every entry
            lo, hi = (value.min(), value.max()) if value.size else (math.inf, -math.inf)
        else:  # a float comparison skips two numpy reductions
            lo = hi = float(value)
        if (lo > low if strict else lo >= low) and hi < math.inf:
            return value
        bad = lo
        if np.ndim(value):  # the first entry out of the domain
            above = value > low if strict else value >= low
            bad = value[~(above & (value < math.inf))].flat[0]
        if low == -math.inf:
            bound = "finite"
        elif low == 0:
            bound = "positive and finite" if strict else "non-negative and finite"
        else:
            bound = f"{'>' if strict else '>='} {low:g} and finite"
    if isinstance(bad, np.generic):  # shown as nan, not np.float64(nan)
        bad = bad.item()
    raise ValueError(f"{name} must be {bound}, got {bad!r}")


def one_of(name: str, allowed, *values) -> None:
    """``ValueError`` "{name} must be one of A, B, got {value!r}" for the first
    of ``values`` that ``allowed`` (a tuple, or a dict's keys) does not hold;
    the message lists ``allowed`` in its own order."""
    for value in values:
        if value not in allowed:
            listed = ", ".join(map(str, allowed))
            raise ValueError(f"{name} must be one of {listed}, got {value!r}")
