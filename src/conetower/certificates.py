"""Machine-readable verdicts emitted by every verification command.

Every certificate serializes deterministically (schema ``cert/1``): same
inputs, byte-identical JSON.  Wall-clock data deliberately never enters the
JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass
class Certificate:
    command: str
    status: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    branches: list | None = None
    values: dict | None = None
    points: list | None = None
    justification: str = ""
    seed: int | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.status not in _ALL_STATUSES:
            raise ValueError(f"unknown certificate status {self.status!r}")

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
