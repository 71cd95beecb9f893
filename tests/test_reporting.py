"""The probe runner of check reports: line order, predicates, and when it
stops drawing probes."""

from monograde.reporting import CheckReport


def drawn(values, log):
    for v in values:
        log.append(v)
        yield v


def test_one_relation_passes_or_fails_at_its_first_counterexample():
    rep = CheckReport("r")
    parity = lambda n: (str(n % 2), "0")
    rep.first_counterexample(range(5), ("even", parity, "n=%d".__mod__))
    rep.first_counterexample(range(0, 10, 2), ("even twice", parity, str))
    assert rep.text() == "r: FAIL (1)\nFAIL n=1: lhs=1 rhs=0\nPASS even twice"


def test_failures_in_the_order_found_then_passes_in_relation_order():
    rep = CheckReport("r")
    log = []
    rep.first_counterexample(
        drawn(range(10), log),
        ("small", lambda n: (str(n), "3"), "small at %d".__mod__, lambda a, b: int(a) < int(b)),
        ("any", lambda n: (str(n), str(n)), str),
        ("nonzero", lambda n: (str(n), "0"), "nonzero at %d".__mod__, str.__ne__))
    assert rep.lines == ["FAIL nonzero at 0: lhs=0 rhs=0", "FAIL small at 3: lhs=3 rhs=3",
                         "PASS any"]
    # a relation that never fails keeps every probe coming
    assert log == list(range(10))


def test_no_probe_is_drawn_once_every_relation_has_failed():
    rep = CheckReport("r")
    log = []
    seen = []
    rep.first_counterexample(
        drawn(range(10), log),
        ("a", lambda n: seen.append(("a", n)) or (str(n), "1"), str),
        ("b", lambda n: seen.append(("b", n)) or (str(n), "0"), str))
    assert rep.lines == ["FAIL 0: lhs=0 rhs=1", "FAIL 1: lhs=1 rhs=0"]
    # a failed relation is not evaluated again, and probe 2 is never drawn
    assert seen == [("a", 0), ("b", 0), ("b", 1)]
    assert log == [0, 1]
