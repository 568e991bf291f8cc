"""The one idiom for tamearc's immutable value types.

A value class derives from Value, names its fields in __slots__ and sets
them in its own explicit __init__ through object.__setattr__; after that
every assignment or deletion raises AttributeError.  An instance equals
only an instance of the same class with an equal field tuple, hashes as
that tuple and reprs as Class(field=value, ...); a class that defines its
own __eq__, __hash__ or __repr__ keeps it.  Nothing is generated or
compiled when a value class is defined: its field tuple is read by one
operator.attrgetter over its __slots__.
"""

from operator import attrgetter


class Value:
    """Immutable slotted record; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            # attrgetter of one name returns the value, not a 1-tuple
            name, = names
            cls._fields = property(lambda self: (getattr(self, name),))
        else:
            cls._fields = property(attrgetter(*names))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
