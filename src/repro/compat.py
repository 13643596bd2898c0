"""Small compatibility shims.

``DATACLASS_SLOTS`` expands to ``{"slots": True}`` on interpreters that
support it (3.10+) and to nothing on 3.9, so hot-path dataclasses can be
declared once as ``@dataclass(**DATACLASS_SLOTS)`` without a version
fork.  Slots cut per-instance memory and attribute-lookup cost for the
records that still cross the kernel boundary as objects.

``field_setters`` returns, per field name, a setter that stores a value
on a (possibly frozen) dataclass instance without going through its
``__setattr__``: the slot's member descriptor where the class has
slots, ``object.__setattr__`` bound to the name where it does not.
Bulk constructors use it to fill pre-validated instances.
"""

import sys
from typing import Any, Callable, Tuple

DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


def field_setters(cls: type, names: Tuple[str, ...]) -> Tuple[Callable[[Any, Any], None], ...]:
    """One ``setter(instance, value)`` per name in ``names``, for ``cls``."""
    if "__slots__" in vars(cls):
        return tuple(vars(cls)[name].__set__ for name in names)
    return tuple(_attribute_setter(name) for name in names)


def _attribute_setter(name: str) -> Callable[[Any, Any], None]:
    def setter(instance: Any, value: Any) -> None:
        object.__setattr__(instance, name, value)

    return setter
