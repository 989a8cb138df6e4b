"""Immutable value types without dataclass machinery.

A subclass lists its fields in __slots__, stores them by calling
ValueType.__init__ with the values in slot order and validates them in
its own __init__. Instances compare, hash and print by their field
values, copy and pickle, and refuse assignment once built, as frozen
dataclasses do; defining them costs no generated code at import.
"""


class ValueType:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({args})"

    # copy and pickle keep the fields by name and restore them past __setattr__
    __getstate__ = _asdict

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
