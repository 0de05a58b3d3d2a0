"""The base of the package's immutable value classes."""
from operator import attrgetter


class _Trusted:
    """Record._trusted: generated from the slot descriptors when a class
    first reads it and then stored on that class, so start-up compiles
    none for the classes that never use it."""

    def __get__(self, obj, cls):
        fields = cls._fields
        scope = {"_new": object.__new__, "_cls": cls}
        scope.update((f"_set_{n}", vars(cls)[n].__set__) for n in fields)
        body = "".join(f"    _set_{n}(_obj, {n})\n" for n in fields)
        exec(f"def _trusted({', '.join(fields)}):\n"
             f"    _obj = _new(_cls)\n{body}    return _obj\n", scope)
        cls._trusted = staticmethod(scope["_trusted"])
        return scope["_trusted"]


class Record:
    """A value with named fields, fixed once built.

    A subclass lists its fields in __slots__, with "__dict__" after them
    when it needs one (functools.cached_property does).  The inherited
    __init__ takes the fields positionally in that order or by keyword and
    stores each as given; a missing, unknown or doubled field raises
    TypeError.  A subclass writes its own __init__, whose parameters are
    the fields in that order, only to check, normalise or default them.
    The one exception is qlambda.Scalar, whose constructor takes a
    Fraction form (num, den) and normalises it into its integer fields
    (_n, _d); reading the canonical pair back as coefficients gives the
    same pair, so pickling by the fields holds for it too.
    Assigning or deleting an attribute afterwards raises AttributeError.
    Two records are equal when they are of one class and their fields are
    equal, and the hash is that of the tuple of fields.  Both read the
    class's _key: the slot itself for one field, so == costs one slot read
    a side, else the tuple of fields, built by one attrgetter.

    Each subclass also has the static method _trusted(*fields), which
    stores the fields as given and runs no __init__: for values valid by
    how the library computed them.  Outside input goes through the class
    itself, whose __init__ checks it.
    """

    __slots__ = ()
    _trusted = _Trusted()

    def __init_subclass__(cls):
        fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._fields = fields
        cls._key = (vars(cls)[fields[0]] if len(fields) == 1
                    else property(attrgetter(*fields)))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args))
            if (len(args) > len(fields) or values.keys() & kwargs.keys()
                    or values.keys() | kwargs.keys() != set(fields)):
                raise TypeError(
                    f"{type(self).__qualname__}() takes each of the fields "
                    f"{fields} once; got {len(args)} positional and "
                    f"{sorted(kwargs)} by keyword")
            values.update(kwargs)
            args = [values[n] for n in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        key = self._key
        return hash((key,) if len(self._fields) == 1 else key)

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
