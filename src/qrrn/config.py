"""One typed reader and writer for the JSON documents of config dataclasses.

A value must have its field's declared type: a JSON int is also a float
when it converts to one, a bool is neither, a list, tuple or frozenset
field takes a list checked element by element, and a type with a
``from_dict`` reads its own. Rejections raise ``ValueError``."""
from __future__ import annotations

import dataclasses
import functools
import typing


@functools.cache
def _plan(tp) -> tuple:
    """(reader, element type, accepted classes) of a declared type."""
    if hasattr(tp, "from_dict"):
        return tp.from_dict, None, (dict,)
    origin = typing.get_origin(tp)
    if origin in (list, tuple, frozenset):
        return origin, typing.get_args(tp)[0], (list,)
    arms = typing.get_args(tp) if origin else (tp,)      # X | Y
    return None, None, tuple(c for a in arms            # an int is a float
                             for c in ((int, float) if a is float else (a,)))


def _check(value, tp, key: str):
    """``value`` as a ``tp`` (a tuple or frozenset field's list becomes one)."""
    reader, elem, accepts = _plan(tp)
    if not isinstance(value, accepts) or (isinstance(value, bool)
                                          and bool not in accepts):
        raise ValueError(f"{key} must be {' or '.join(c.__name__ for c in accepts)}"
                         f", got {value!r}")
    if float in accepts and type(value) is int:
        try:
            float(value)            # kept as given; checked that it converts
        except OverflowError:
            raise ValueError(f"{key} is too large for a float") from None
    if elem is not None:
        return reader(_check(v, elem, key) for v in value)
    return value if reader is None else reader(value)


def read(doc, types: dict, required, what: str) -> dict:
    """The JSON object ``doc``, each value checked against its type in
    ``types``; rejects keys not in ``types`` and missing ``required`` keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    unknown = doc.keys() - types
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"{what} missing keys {sorted(missing)}")
    return {k: _check(v, types[k], f"{what}.{k}") for k, v in doc.items()}


@functools.cache
def _schema(cls) -> tuple:
    """Field types and required fields of a config dataclass, resolved once."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields
             if f.default is f.default_factory is dataclasses.MISSING})


def _to_json(value):
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


class Config:
    """Base of a config dataclass: ``from_dict`` reads its document and
    ``to_dict`` writes it, fields in declaration order."""

    @classmethod
    def from_dict(cls, doc):
        return cls(**read(doc, *_schema(cls), cls.__name__))

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name))
                for f in dataclasses.fields(self)}
