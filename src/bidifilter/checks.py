"""The one rule for values a caller passes to a constructor.

An integer is an ``int`` or a numpy integer, stored as a Python ``int``;
a number is any real, numpy's included, stored as a Python ``float``; a
``bool`` is neither.  A sequence is any iterable but a string, stored as
a tuple whose entries are checked one by one.  A value that breaks the
rule raises ValueError naming its field, before anything is built.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Callable, Iterable


def integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int; at least ``least`` when one is given."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (least is not None and value < least)):
        wording = "an integer" if least is None else f"an integer >= {least}"
        raise ValueError(f"{name} must be {wording}, got {value!r}")
    return int(value)


def number(name: str, value, wording: str = "a number",
           within: Callable[[float], bool] = lambda x: True) -> float:
    """``value`` as a Python float for which ``within`` holds; ``wording``
    says in the field's own terms which numbers those are."""
    if not isinstance(value, bool) and isinstance(value, Real):
        x = float(value)
        if within(x):
            return x
    raise ValueError(f"{name} must be {wording}, got {value!r}")


def sequence(name: str, value, entry: Callable = lambda x: x) -> tuple:
    """``value`` as a tuple of ``entry(item)``, one per item; a bare
    value or a string is refused."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(map(entry, value))
