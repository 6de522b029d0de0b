"""Frozen records without the import cost of :mod:`dataclasses`."""


class Record:
    """Fields are the names annotated on the class, in order; a class-level value is a default.
    A subclass without defaults may end with ``__slots__ = tuple(__annotations__)``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = type(self).__annotations__
        values = dict(zip(names, args), **kwargs)
        if len(values) < len(args) + len(kwargs) or not values.keys() <= names.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {tuple(names)}")
        for name in names:  # as attributes: a dict from vars() would cost memory per record
            object.__setattr__(self, name, values[name] if name in values else getattr(self, name))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _fields(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in type(self).__annotations__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # by position: the default way for slots would call __setattr__
        return type(self), tuple(value for _, value in self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._fields())})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")
    __delattr__ = __setattr__
