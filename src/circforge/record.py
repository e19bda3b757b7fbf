"""Record, the base of the library's report classes.

A report is a fixed tuple of named fields: its subclass lists them, in
order, as its `__slots__`, and defines no constructor of its own.  Fields
are given once, by position or by name, and never change.  Reports keep
identity equality; the value types that compare on their fields define
their own `__eq__` and `__hash__`.

This module imports nothing, so every layer can import it.
"""


def _immutable(self, *_args):
    """__setattr__ and __delattr__ of a class whose instances are values:
    their fields are set once, in __init__, through object.__setattr__."""
    raise AttributeError(f"{type(self).__name__} is immutable")


_set = object.__setattr__


class Record:
    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, fields[len(args):]))
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}: missing field {missing.args[0]!r}") from None
            if kwargs:
                name = next(iter(kwargs))
                raise TypeError(f"{cls.__name__}: {'repeated' if name in fields else 'unknown'} field {name!r}")
        if len(args) != len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}; got {len(args)} values")
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"
