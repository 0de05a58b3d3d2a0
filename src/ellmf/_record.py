"""The base of the package's immutable value classes."""


class Record:
    """A value with named fields, fixed once built.

    A subclass lists its fields in __slots__, with "__dict__" after them
    when it needs one (functools.cached_property does).  The inherited
    __init__ passes its arguments to the class's generated storer
    _store(self, *fields), so Python binds the fields by position or
    keyword, and a missing, unknown, doubled or extra one raises TypeError
    naming the class.  That error counts the object among the positional
    arguments, as Python's does for self: mf.Certificate has one field, and
    Certificate((), 1) reads "Certificate() takes 2 positional arguments
    but 3 were given".  A subclass writes its own __init__, whose
    parameters are the fields in that order, only to check, normalise or
    default them, and ends it with self._store(...).  The one exception is
    qlambda.Scalar, whose constructor takes a Fraction form (num, den) and
    normalises it into its integer fields (_n, _d); reading the canonical
    pair back as coefficients gives the same pair, so pickling by the
    fields holds for it too.
    Assigning or deleting an attribute afterwards raises AttributeError.
    Two records are equal when they are of one class and their fields are
    equal, and the hash is that of the tuple of fields.

    When a subclass is defined, __init_subclass__ compiles one source from
    its fields into four functions and sets them on it, over any the class
    body wrote: the storer, named for the class; the static method
    _trusted(*fields), which stores the fields as given and runs no
    __init__, for values valid by how the library computed them; and
    __eq__ and __hash__, each reading the fields in one straight line.
    The file and _trusted are named <Class._trusted> for profiles.
    Outside input goes through the class itself, whose __init__ checks it.
    No other code stores a field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._fields, name = fields, cls.__qualname__
        scope = {"_new": object.__new__, "_cls": cls}
        scope.update((f"_set_{n}", vars(cls)[n].__set__) for n in fields)
        args = ", ".join(fields)
        sets = "".join(f"    _set_{n}(_obj, {n})\n" for n in fields)
        same = " and ".join(f"self.{n} == other.{n}" for n in fields)
        key = "".join(f"self.{n}, " for n in fields)
        exec(compile(f"def _trusted({args}):\n    _obj = _new(_cls)\n"
                     f"{sets}    return _obj\n"
                     f"def {cls.__name__}(_obj, /, {args}):\n{sets}"
                     f"def _eq(self, other):\n"
                     f"    if other.__class__ is not _cls:\n"
                     f"        return NotImplemented\n"
                     f"    return {same}\n"
                     f"def _hash(self):\n    return hash(({key}))\n",
                     f"<{name}._trusted>", "exec"), scope)
        scope["_trusted"].__qualname__ = f"{name}._trusted"
        cls._trusted = staticmethod(scope["_trusted"])
        cls._store = scope[cls.__name__]
        cls.__eq__, cls.__hash__ = scope["_eq"], scope["_hash"]

    def __init__(self, /, *args, **kwargs):
        self._store(*args, **kwargs)

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
