"""Frozen records: the base of the package's value and result types.

A subclass names its fields as class annotations, in order.  Record then
gives it what a frozen dataclass would: an __init__ that takes the fields
by position or keyword and then runs the class's __post_init__, equality
field by field between instances of the same class, a matching hash, the
dataclass repr, and AttributeError on any assignment or deletion.  Every
instance keeps a __dict__, so cached_property works.  Nothing is
generated or compiled per class, and no module is imported.
"""


class Record:
    # the field names in order, as namedtuple's _fields
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call to __init__, refused as Python
        refuses a call that does not match the signature."""
        call, fields = f"{cls.__qualname__}.__init__()", cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in values:
                why = "multiple values for" if name in values else "an unexpected keyword"
                raise TypeError(f"{call} got {why} argument {name!r}")
        values.update(kwargs)
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{call} missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[name] for name in fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
