"""Verification report records shared by all checker modules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped-budget"


class ConfigError(Exception):
    """Invalid driver configuration."""


class FixtureError(Exception):
    """A fixture file failed to parse; the message carries file and line."""


def load_fixture(path, parse):
    """``parse(text, name)`` on the UTF-8 text of the file at ``path``; a
    file that cannot be read or decoded raises ``FixtureError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), str(path))
    except OSError as e:
        raise FixtureError(f"{path}: {e}")
    except UnicodeDecodeError:
        raise FixtureError(f"{path}: not UTF-8 text")


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``diffs`` lists every place the two sides differ, as tuples
    (location, lhs, rhs); an empty list together with a non-skipped status
    means the identity held exactly everywhere it was examined.
    """

    identity: str
    params: str
    status: Status
    diffs: list = field(default_factory=list)
    note: str = ""
    suite: str = ""

    @staticmethod
    def from_diffs(identity: str, params: str, diffs: list,
                   note: str = "") -> "VerificationReport":
        status = Status.PASS if not diffs else Status.FAIL
        return VerificationReport(identity, params, status, diffs, note)

    @staticmethod
    def skipped(identity: str, params: str, note: str) -> "VerificationReport":
        return VerificationReport(identity, params, Status.SKIPPED, [], note)

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS

    @property
    def failed(self) -> bool:
        return self.status is Status.FAIL

    def record(self) -> str:
        """Stable one-line machine-readable record."""
        suite = self.suite or "-"
        params = self.params or "-"
        return f"{suite} {self.identity} {params} {self.status.value} {len(self.diffs)}"

    def __repr__(self):
        return f"<{self.identity} {self.params} {self.status.value} diffs={len(self.diffs)}>"


@dataclass
class RunReport:
    """Aggregate of one driver run."""

    reports: list[VerificationReport] = field(default_factory=list)
    elapsed: float = 0.0

    def extend(self, reports) -> None:
        self.reports.extend(reports)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.status is Status.PASS)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if r.status is Status.FAIL)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.status is Status.SKIPPED)

    @property
    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1


def diff_labels(diffs: list, where: tuple, lhs: dict, rhs: dict) -> None:
    """Append (where + (label,), lhs, rhs) to ``diffs`` for each label,
    in sorted order, at which two coefficient maps differ."""
    if lhs == rhs:
        return
    for label in sorted(set(lhs) | set(rhs)):
        lc, rc = lhs.get(label, 0), rhs.get(label, 0)
        if lc != rc:
            diffs.append((where + (label,), lc, rc))


def fmt_label(label) -> str:
    return "[" + ",".join(str(p) for p in label) + "]"


def fmt_vec(v) -> str:
    """Compact, whitespace-free rendering of a graded vector: a basis
    vector as its label, anything else as ``c*[label]`` terms."""
    terms = sorted(v.coeff.items())
    if len(terms) == 1 and terms[0][1] == 1:
        return fmt_label(terms[0][0])
    return "+".join(f"{c}*{fmt_label(k)}" for k, c in terms) or "0"
