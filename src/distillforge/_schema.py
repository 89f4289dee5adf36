"""One schema for plan settings: each default and bound lives on its field.

``setting(int, 32, ge=2)`` is a dataclass field with default 32 whose
metadata is its bound: the value type (``int``, ``float``, ``str`` or
``bool``) and any of ``ge``/``gt`` (lower), ``lt`` (upper), ``among`` (the
allowed values), ``each`` (the value is a tuple or list and the bound holds
for every item) and ``nonempty``. An ``int`` is integral, a ``float`` a
finite real, and neither may be a bool; a ``bool`` is True or False. Each
plan dataclass calls ``check_fields(self)`` from ``__post_init__``, which
stores every checked value as its declared type (``np.int64(3)`` as ``3``,
a list as a tuple), so plans compare, hash and serialize alike however
they were built; the config reads the same metadata to parse, check and
list its keys.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral, Real

_TYPES = {int: Integral, float: Real, str: str, bool: bool}
_TYPE_WORDS = {int: "integral", float: "finite", bool: "True or False"}


def setting(kind: type, default=MISSING, **bound):
    """A dataclass field holding values of ``kind`` within ``bound``."""
    return field(default=default, metadata={"type": kind, **bound})


def bound_text(bound, listing: bool = True) -> str:
    """The bound in words, as ``distillforge config`` lists it (``>= 2``,
    ``non-empty, each >= 1``) or, for an error, per item and with the type
    (``non-empty, >= 1 and integral``)."""
    if "among" in bound:
        rule = " or ".join(map(repr, bound["among"]))
    elif "lt" in bound:
        rule = f"in [{bound['ge']}, {bound['lt']})"
    elif "gt" in bound:
        rule = f"> {bound['gt']}"
    else:
        rule = f">= {bound['ge']}" if "ge" in bound else ""
    if listing:
        rule = ("each " if bound.get("each") else "") + rule
    else:
        rule = " and ".join(part for part in (rule, _TYPE_WORDS.get(bound["type"])) if part)
    return ", ".join(part for part in ("non-empty" if bound.get("nonempty") else "", rule) if part)


def _fits(bound, value) -> bool:
    kind = bound["type"]
    return (isinstance(value, _TYPES[kind]) and isinstance(value, bool) == (kind is bool)
            and (kind is not float or math.isfinite(value))
            and ("among" not in bound or value in bound["among"])
            and ("ge" not in bound or value >= bound["ge"])
            and ("gt" not in bound or value > bound["gt"])
            and ("lt" not in bound or value < bound["lt"]))


def check(name: str, bound, value):
    """Raise a ValueError naming ``name`` unless ``value`` is within ``bound``;
    return ``value`` as the bound's type (a tuple of them for ``each``)."""
    kind, each = bound["type"], bound.get("each")
    ok = (isinstance(value, (tuple, list)) and all(_fits(bound, v) for v in value) if each
          else _fits(bound, value))
    if not ok or (bound.get("nonempty") and not value):
        raise ValueError(f"{name} must be {bound_text(bound, listing=False)}, got {value!r}")
    return tuple(map(kind, value)) if each else kind(value)


def check_fields(obj) -> None:
    """``check`` every field of the dataclass instance ``obj`` that carries a
    bound, and store its value as the bound's type."""
    for f in fields(obj):
        if f.metadata:
            object.__setattr__(obj, f.name, check(f.name, f.metadata, getattr(obj, f.name)))
