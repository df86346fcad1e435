"""Frozen value records: the part of `@dataclass(frozen=True)` the library uses.

`dataclasses` imports `inspect`, and together they take about 12 ms of a cold
CLI query, whose whole import is a few tens of ms; each frozen dataclass then
costs about 1.3 ms to create.  `record` builds the same methods from the
class's annotations, in the order they are written: a positional and keyword
`__init__` that honours class-level defaults and calls `__post_init__`;
`__eq__` over the field tuple that returns NotImplemented across classes;
`__hash__` of the field tuple, so set and dict orders match the dataclass
ones; the dataclass `__repr__` unless the class has its own; `__setattr__`
and `__delattr__` that raise AttributeError; and, with order=True, the four
comparisons over the field tuple.

The methods are generated as source and compiled with one `exec` per class.
Generic methods that loop over the field names cost the 30-case paper replay
about 5% of its throughput, and an `__init__` through `self.__dict__.update`
also makes every later attribute load slower, because it gives up Python's
inline instance values; generated code stores each field with
`object.__setattr__` and has a real signature.
"""

_COMPARISONS = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def record(cls=None, /, *, order=False):
    """Class decorator: `@record` or `@record(order=True)`."""
    if cls is None:
        return lambda c: _build(c, order)
    return _build(cls, order)


def _build(cls, order):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_dflt_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_dflt_{n}" if n in cls.__dict__ else f", {n}" for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if "__post_init__" in cls.__dict__:
        body += "\n    self.__post_init__()"
    mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
    theirs = "(" + "".join(f"other.{n}, " for n in names) + ")"
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    methods = {
        "__init__": f"(self{params}):{body}",
        "__repr__": f"(self):\n    return f'{{self.__class__.__qualname__}}({fields})'",
        "__setattr__": "(self, name, value):\n"
                       "    raise AttributeError(f'cannot assign to field {name!r}')",
        "__delattr__": "(self, name):\n"
                       "    raise AttributeError(f'cannot delete field {name!r}')",
        "__hash__": f"(self):\n    return hash({mine})",
    }
    for method, op in (("__eq__", "=="),) + (_COMPARISONS if order else ()):
        methods[method] = (f"(self, other):\n"
                           f"    if other.__class__ is self.__class__:\n"
                           f"        return {mine} {op} {theirs}\n"
                           f"    return NotImplemented")
    if "__repr__" in cls.__dict__:
        del methods["__repr__"]
    namespace = {"_set": object.__setattr__, **defaults}
    exec("\n".join(f"def {m}{src}" for m, src in methods.items()), namespace)
    for method in methods:
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    return cls
