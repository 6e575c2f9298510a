"""The one rule for config values, read from each dataclass field's
annotation (:func:`check_fields`), and the error that names the field."""

import dataclasses
import functools
import numbers
import sys


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


def _only(kinds, wording: str):
    def check(value):
        if not isinstance(value, kinds):
            raise ValueError(f"must be {wording}, got {value!r}")
        return value
    return check


# ``int`` and ``float`` lead the tuples because the ABC checks are slow
def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


_SCALARS = {bool: _only(bool, "true or false"), int: _int, float: _float,
            str: _only(str, "a string")}


@functools.cache
def _rule(annotation):
    """Checks a value of ``annotation`` and returns it as stored."""
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    args = getattr(annotation, "__args__", (annotation,))
    if getattr(annotation, "__origin__", None) is tuple and args[1:] == (Ellipsis,):
        item, sequence = _rule(args[0]), _only((list, tuple), "a list")
        return lambda value: tuple(map(item, sequence(value)))
    if args[1:] == (type(None),):
        rule = _rule(args[0])
        return lambda value: None if value is None else rule(value)
    if hasattr(annotation, "__origin__") or not all(map(dataclasses.is_dataclass, args)):
        raise TypeError(f"no config rule for {annotation!r}")
    return _only(args, "a " + " or ".join(cls.__name__ for cls in args))


def check_value(annotation, value, name: str):
    """``value`` as the rule of ``annotation`` stores it, or a ConfigError at ``name``."""
    try:
        return _rule(annotation)(value)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from None


def check_fields(obj) -> None:
    """The one rule for config values: each config dataclass runs it first
    in ``__post_init__``, so files and code meet it alike.  Each field of
    ``obj`` is checked by its annotation and stored as checked: ``bool``
    and ``str`` take only their own type, ``int`` a non-bool integral (no
    float, not even a whole one), ``float`` a finite non-bool real,
    ``tuple[X, ...]`` a list or tuple of what ``X`` takes, ``X | None``
    None too, and a config class (or a union of them) an instance of one.
    A refused value raises :class:`ConfigError` naming its field."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, check_value(f.type, getattr(obj, f.name), f.name))
