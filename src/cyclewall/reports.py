"""Audit report containers shared by all verification code."""

from __future__ import annotations

import json
from typing import Any

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

SCHEMA = "cyclewall/1"


class CheckResult:
    def __init__(self, check_id: str, instance: str, status: str, witness: Any = None):
        self.check_id = check_id
        self.instance = instance
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
        }


class Report:
    def __init__(self):
        self.results: list[CheckResult] = []

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.results == other.results

    def add(self, check_id: str, instance: str, ok: bool, witness: Any = None) -> None:
        self.results.append(CheckResult(check_id, instance, PASS if ok else FAIL, witness))

    def add_inconclusive(self, check_id: str, instance: str, witness: Any = None) -> None:
        self.results.append(CheckResult(check_id, instance, INCONCLUSIVE, witness))

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == FAIL]

    @property
    def inconclusive(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == INCONCLUSIVE]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # canonical ordering: by check id then instance, independent of run order
        ordered = sorted(self.results, key=lambda r: (r.check_id, r.instance))
        return {
            "schema": SCHEMA,
            "checks": [r.to_dict() for r in ordered],
            "summary": {
                "pass": sum(r.status == PASS for r in self.results),
                "fail": len(self.failures),
                "inconclusive": len(self.inconclusive),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
