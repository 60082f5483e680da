"""Verdicts for one request: every output against a benchmark-owned reference.

A request is `ok` when every call returned a value within its reference
tolerance.  It is `refused` when some call raised a typed ActionVarError
and nothing was wrong.  It is `wrong` when some call returned a value
outside its tolerance or raised an exception that is not an
ActionVarError: the quietly wrong answers the library promises never to
give.  Every call of a request runs even after an earlier one failed, so
one refusal cannot hide a later wrong value.
"""

from __future__ import annotations

from actionvar.core import ActionVarError

OK, REFUSED, WRONG = "ok", "refused", "wrong"
_RANK = {OK: 0, REFUSED: 1, WRONG: 2}


class Request:
    """Collects the outcome of every call and check of one request."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.outcome = OK
        self.wrong: list[tuple[str, str]] = []
        self.refused: list[tuple[str, str]] = []

    def _mark(self, outcome: str) -> None:
        if _RANK[outcome] > _RANK[self.outcome]:
            self.outcome = outcome

    def call(self, label: str, span: str, fn, *args):
        """Run fn through the tracer; None when it raised."""
        try:
            return self.tracer.call(span, fn, *args)
        except ActionVarError as exc:
            self.refused.append((label, f"{type(exc).__name__}: {exc}"))
            self._mark(REFUSED)
        except Exception as exc:  # any other exception is a quietly wrong answer
            self.wrong.append((label, f"untyped {type(exc).__name__}: {exc}"))
            self._mark(WRONG)
        return None

    def expect(self, label: str, value, reference: float, tol: float) -> None:
        """Mark wrong unless |value - reference| <= tol; None was already counted."""
        if value is None:
            return
        if not abs(value - reference) <= tol:  # also rejects nan
            self.wrong.append((label, f"{value!r} vs reference {reference!r}, tol {tol:.2g}"))
            self._mark(WRONG)


class Tally:
    """Outcome counts and per-label failures over a stream of requests.

    Requests are not kept, so memory does not grow with the run.
    """

    def __init__(self) -> None:
        self.counts = {OK: 0, REFUSED: 0, WRONG: 0}
        self.failures: dict[str, dict] = {}
        self.wrong: list[tuple[str, str]] = []  # the first 20

    def add(self, req: Request) -> None:
        self.counts[req.outcome] += 1
        for kind, items in ((REFUSED, req.refused), (WRONG, req.wrong)):
            for label, why in items:
                entry = self.failures.setdefault(label, {REFUSED: 0, WRONG: 0, "example": why})
                entry[kind] += 1
        self.wrong.extend(req.wrong[: 20 - len(self.wrong)])

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts[REFUSED] + self.counts[WRONG]


def rel_tol(rel: float, scale: float, floor: float = 1.0) -> float:
    """Absolute tolerance rel * max(|scale|, floor)."""
    return rel * max(abs(scale), floor)
