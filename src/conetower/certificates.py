"""Machine-readable verdicts emitted by every verification command.

Every certificate serializes deterministically (schema ``cert/1``): same
inputs, byte-identical JSON.  Wall-clock data deliberately never enters the
JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .errors import ValidationError, _quoted

SCHEMA = "cert/1"

PASS = "PASS"
FAIL = "FAIL"
SMOOTH = "SMOOTH"
CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"
ONLY_SINGULAR_AT = "ONLY_SINGULAR_AT"

_GOOD_STATUSES = {PASS, SMOOTH, CERTIFIED, ONLY_SINGULAR_AT}
_ALL_STATUSES = _GOOD_STATUSES | {FAIL, INCONCLUSIVE}


@dataclass
class Check:
    """One named verification with its verdict and an exact witness string."""

    name: str
    status: str
    witness: str = ""

    def to_dict(self):
        return {"name": self.name, "status": self.status, "witness": self.witness}


def aggregate_status(checks) -> str:
    """FAIL if any check fails, else INCONCLUSIVE if any is, else PASS."""
    statuses = {c.status for c in checks}
    if FAIL in statuses:
        return FAIL
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return PASS


class _PrintedWhenRead:
    """A field of records whose leaves may be exact values, such as a
    ``MultiPoly`` or a ``GaussianRational``, in place of their text.  The
    first read replaces each such value by its ``str``, printing each object
    once however many records hold it; the records keep the text, so every
    later read prints nothing."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, cert, owner=None):
        if cert is None:
            return None  # the dataclass default
        records, printed = getattr(cert, self.slot)
        if not printed:
            records = _printed(records, {})
            setattr(cert, self.slot, (records, True))
        return records

    def __set__(self, cert, records):
        setattr(cert, self.slot, (records, records is None))


def _printed(value, texts: dict):
    """``value`` with every leaf that is not a JSON scalar replaced by its
    ``str``; ``texts`` maps the id of each object printed so far to its text.
    The containers are new, so every object stays alive while ``texts`` is
    read."""
    if isinstance(value, dict):
        return {key: _printed(item, texts) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_printed(item, texts) for item in value)
    if value is None or isinstance(value, (str, int, float)):
        return value
    text = texts.get(id(value))
    if text is None:
        text = texts[id(value)] = str(value)
    return text


@dataclass
class Certificate:
    """A verdict, its checks, and the records behind it.

    ``branches`` may hold exact values, which are printed when the field is
    first read (directly, or through ``to_dict`` and ``to_json``); a reader
    always gets text, and a caller that reads only ``status`` and ``checks``
    prints none of them.
    """

    command: str
    status: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    branches: list | None = _PrintedWhenRead()
    values: dict | None = None
    points: list | None = None
    justification: str = ""
    seed: int | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.status not in _ALL_STATUSES:
            raise ValidationError(f"unknown certificate status {_quoted(self.status)}")

    @property
    def passed(self) -> bool:
        if self.status not in _GOOD_STATUSES:
            return False
        return all(c.status not in (FAIL, INCONCLUSIVE) for c in self.checks)

    def to_dict(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "status": self.status,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.branches is not None:
            doc["branches"] = self.branches
        if self.values is not None:
            doc["values"] = self.values
        if self.points is not None:
            doc["points"] = self.points
        if self.justification:
            doc["justification"] = self.justification
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.details is not None:
            doc["details"] = self.details
        return doc

    def to_json(self) -> str:
        return _dumps(self.to_dict())


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for
    documents of str-keyed dicts, lists, tuples, str, int, bool and None.

    CPython's C encoder only runs without ``indent``, so the standard call
    takes the pure-Python one; this writer appends the same fragments to one
    list.  A str goes through ``encode_basestring_ascii``, any other scalar
    through ``json.dumps``; a key that is not a str raises ``TypeError``.
    """
    out = []
    _write(doc, "\n", out.append)
    return "".join(out)


def _write(value, newline: str, emit) -> None:
    if isinstance(value, str):
        emit(_quote(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            emit(sep)
            emit(_quote(key))
            emit(": ")
            _write(value[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        emit(json.dumps(value))
