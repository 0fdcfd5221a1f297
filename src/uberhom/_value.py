"""Base of the library's immutable value classes."""

from operator import attrgetter


class Value:
    """Immutable value with equality, hashing and repr.

    A subclass's `__init__` stores each of its parameters under the same
    name with `self.__dict__.update`, since assignment raises AttributeError.
    Equality and hashing read those parameters, or the attributes named in
    `_compared`; repr shows the parameters.  `cached_property` writes the
    instance `__dict__` and unpickling restores it, so both keep working.
    """

    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._key = staticmethod(attrgetter(*(cls._compared or cls._fields)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
