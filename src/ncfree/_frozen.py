"""Frozen value classes without the standard library's data-class module.

Every `ncfree` request runs in a fresh process, so import time is part of
each one.  That module imports `inspect`, which brings `ast`, `dis` and
`tokenize`, and builds each class from several generated functions, which
together cost about a fifth of a typical request.  `frozen` gives a class the methods a
frozen data class gets, from the field names in the class's own annotations,
in order, with one small `exec` per class:

- a positional-or-keyword `__init__` that sets every field, then calls
  `__post_init__` if the class defines one;
- `__eq__` over the field tuple for objects of the same class, and
  `__hash__` of that tuple;
- `__repr__` as `Name(field=value, ...)`;
- `__setattr__` and `__delattr__` that raise `AttributeError`.

Instances keep their `__dict__`, so `functools.cached_property` works.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    own = "".join(f"self.{n}," for n in names)
    other = "".join(f"other.{n}," for n in names)
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    body = [f"  _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = (
        f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body) + "\n"
        "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return ({own}) == ({other})\n"
        "  return NotImplemented\n"
        "def __hash__(self):\n"
        f"  return hash(({own}))\n"
        "def __repr__(self):\n"
        f"  return f'{{self.__class__.__qualname__}}({fields})'\n"
    )
    namespace: dict = {}
    exec(source, {"_set": object.__setattr__}, namespace)
    for name, fn in namespace.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls
