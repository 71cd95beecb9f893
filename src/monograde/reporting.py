"""Line-oriented check reports: the one place where a verification
operation compares the two sides of an identity, renders them and locates
a counterexample."""

from __future__ import annotations

from . import expr


def render(side) -> str:
    """Report text of one side: a string unchanged, a list or tuple of
    elements joined by "; ", an element in normal form.  Called only for a
    FAIL line; `expr.render_element` is looked up on its module per call."""
    if isinstance(side, str):
        return side
    if isinstance(side, (list, tuple)):
        return "; ".join(expr.render_element(e) for e in side)
    return expr.render_element(side)


class CheckReport:
    """An ordered list of PASS/FAIL lines with an overall verdict.

    Failure lines carry a locator plus both sides of the violated identity,
    so a failing run always pinpoints a concrete counterexample.
    """

    def __init__(self, title: str):
        self.title = title
        self.lines: list[str] = []
        self.failures = 0

    def ok(self, locator: str):
        self.lines.append("PASS %s" % locator)

    def fail(self, locator: str, lhs, rhs):
        self.lines.append("FAIL %s: lhs=%s rhs=%s" % (locator, render(lhs), render(rhs)))
        self.failures += 1

    def compare(self, locator: str, lhs, rhs):
        """PASS if the two sides are equal, else FAIL with both."""
        if lhs == rhs:
            self.ok(locator)
        else:
            self.fail(locator, lhs, rhs)

    def first_counterexample(self, probes, *relations):
        """The one probe runner over relations (passed, sides, locate), each
        with an optional holds(lhs, rhs) in place of `==`.  Each probe in turn
        feeds every relation not yet failed, FAIL at locate(probe) where its
        sides do not hold; then PASS `passed` of each relation never failed."""
        live = list(relations)
        for probe in probes:
            for rel in tuple(live):
                _, sides, locate, *holds = rel
                lhs, rhs = sides(probe)
                if not (holds[0](lhs, rhs) if holds else lhs == rhs):
                    self.fail(locate(probe), lhs, rhs)
                    live.remove(rel)
            if not live:
                break
        for passed, *_ in live:
            self.ok(passed)

    def note(self, text: str):
        self.lines.append(text)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        head = "%s: %s" % (self.title, "PASS" if self.passed else
                           "FAIL (%d)" % self.failures)
        return "\n".join([head] + self.lines)

    def __repr__(self):
        return "CheckReport(%r, passed=%r)" % (self.title, self.passed)
