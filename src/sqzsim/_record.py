"""Frozen value records, the one base of sqzsim's value classes: `class Loss(Record)`.

A subclass's own annotations, in order, are its fields; a class attribute of
the same name is that field's default. `cls._fields` is the one field
table, a `(name, default)` pair per field with `MISSING` where there is no
default; `cls._defaults` maps each field that has one to it. An instance
takes its fields positionally or by keyword, runs `__post_init__`, refuses
assignment and prints as `Loss(mode='sig', eta=0.99, label=None)`. With
`eq=True` (the default) records of the same class are equal, and hash
alike, when their field tuples are; a class declared
`class GaussianState(Record, eq=False)` compares by identity.
`cls._trusted(**fields)` skips `__post_init__` for values already checked,
as the netlist parser does inline for each statement. A `__post_init__`
that normalises a field stores it with `vars(self).update`.

This is the part of the standard `@dataclass(frozen=True)` that sqzsim
uses, without importing its module (and with it `inspect`) or generating
and `exec`ing source for each class, so a scalar CLI process starts sooner.
`FrozenDict` is the mapping a hashable record holds as a field, and
`read_only` turns off writing to an array a record holds.
"""

MISSING = object()   # default of a field that has none


def _values(record):
    return tuple(getattr(record, name) for name, _ in record._fields)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple((name, vars(cls).get(name, MISSING)) for name in cls.__annotations__)
        cls._defaults = {name: default for name, default in cls._fields if default is not MISSING}
        if eq:
            cls.__eq__, cls.__hash__ = _eq, _hash

    def __init__(self, *args, **kwargs):
        call, state = f"{type(self).__name__}()", vars(self)
        if len(args) > len(self._fields):
            raise TypeError(f"{call} takes {len(self._fields)} positional arguments but {len(args)} were given")
        for i, (name, default) in enumerate(self._fields):
            if name in kwargs:
                if i < len(args):
                    raise TypeError(f"{call} got multiple values for argument '{name}'")
                state[name] = kwargs.pop(name)
            elif i < len(args):
                state[name] = args[i]
            elif default is not MISSING:
                state[name] = default
            else:
                raise TypeError(f"{call} missing required argument '{name}'")
        if kwargs:
            raise TypeError(f"{call} got an unexpected keyword argument '{next(iter(kwargs))}'")
        self.__post_init__()

    @classmethod
    def _trusted(cls, **fields):
        """A record of the defaults and then `fields`, built without the `__post_init__` checks."""
        record = object.__new__(cls)
        state = record.__dict__
        state.update(cls._defaults)
        state.update(fields)
        return record

    def __post_init__(self):
        """Checks and normalises the fields after `__init__` binds them; subclasses override it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name, _ in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenDict(dict):
    """A dict that refuses change and hashes by its items; it prints, compares and serialises as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"'{type(self).__name__}' object is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):   # copy and pickle rebuild it whole, not item by item
        return type(self), (dict(self),)


def read_only(array):
    """A numpy `array` with writing turned off, so a record that holds it stays frozen."""
    array.setflags(write=False)
    return array
