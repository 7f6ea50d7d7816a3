"""Plain record classes: the part of `dataclasses` that encloop uses.

Every `encloop` command is a fresh process, so what `import encloop` costs
is paid on every plan and run.  `dataclasses` generates each record's
methods as source text and compiles it with `exec`, and it imports
`inspect` (with `ast`, `dis`, `tokenize`, `linecache`) and `copy`: on
Python 3.11 (2 shared CPUs) importing it took 9-13 ms and making encloop's
19 records 26-27 ms, about two thirds of a 48-54 ms cold set-up whose
planning takes 3.5 ms.  `Record` makes the same records from one generic
`__init__`, `__eq__`, `__hash__` and `__repr__`, defined once here.

A record's fields are its annotated class attributes in declaration order,
bases first, as `dataclasses` collects them; a field's class attribute is
its default, and an unannotated class attribute is no field.  `__init__`
takes the fields positionally and then by keyword, sets them, and calls
`__post_init__` if the class has one.  Records compare equal when they are
of the same class and their fields are equal.  A class made with
`frozen=True` refuses to set or delete an attribute (`FrozenRecordError`)
and hashes by its fields; a `functools.cached_property` still caches, as
it writes the instance's `__dict__` directly.  Others are unhashable.  A
class built on every step, where the generic `__init__` costs several
times a generated one, defines its own `__init__` over the same fields.
"""

_MISSING = object()


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of a frozen record."""


class Record:
    """The base of every record class (see above)."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys((*cls._fields, *vars(cls).get("__annotations__", ()))))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        if frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _refuse_set, _refuse_del, _hash

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, {len(args)} given")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                how = "repeated" if key in values else "unknown"
                raise TypeError(f"{name}() got a {how} argument {key!r}")
            values[key] = value
        for key in self._fields:
            value = values.get(key, self._defaults.get(key, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{name}() is missing the argument {key!r}")
            object.__setattr__(self, key, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other):
        if other is self:  # as equal field tuples would read; `decrypt` compares its params
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _values(record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


def _hash(self):
    return hash(_values(self))


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def fields(record) -> tuple:
    """The field names of a record or record class, in order."""
    return record._fields


def replace(record, /, **changes):
    """A new record of `record`'s class with `changes` to its fields, built
    (and so validated) by the class's `__init__`."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields},
                           **changes})
