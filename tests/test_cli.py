"""Command dispatch, exit codes, session loading, report determinism."""

import copy
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monograde import Morphism, check_cocycle, cli, parse_element, render_element
from monograde.expr import MAX_POWER_DIGITS, MAX_POWER_MONOMIALS
from monograde.cli import main
from monograde.session import SessionError, load_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_session(tmp_path, capsys, data, *argv):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    return run(capsys, *argv, "--session", str(path))


def test_check_monoid_table1(capsys):
    code, out, _ = run(capsys, "check-monoid", "--session",
                       str(SESSIONS / "table1.json"))
    assert code == 0
    assert "non-cancellative" in out
    assert "even part 2, odd part 1: unequal" in out


def test_check_monoid_nat_power_report(capsys):
    code, out, err = run(capsys, "check-monoid", "--session",
                         str(SESSIONS / "geometric.json"))
    assert (code, err) == (0, "")
    assert out == ("monoid kind: nat_power\n"
                   "cancellative: yes (structural)\n"
                   "infinite monoid: cardinality comparison skipped\n"
                   "parity homomorphism: validated at construction\n")


def test_invert_geometric_series(capsys):
    code, out, _ = run(capsys, "invert", "f", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 0
    assert out == "1 + t + t^2 + t^3 + t^4\n"


def test_invert_inline_expression(capsys):
    code, out, _ = run(capsys, "invert", "2 + t", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 0
    assert out.startswith("1/2 - 1/4*t")


def test_invert_failure_exit_code(capsys):
    code, out, _ = run(capsys, "invert", "t", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 1
    assert out.startswith("FAIL not invertible")


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "t*t - t^2 + 1", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 0
    assert out == "1\n"


def test_truncation_override(capsys):
    code, out, _ = run(capsys, "invert", "f", "--session",
                       str(SESSIONS / "geometric.json"), "--truncation", "2")
    assert code == 0
    assert out == "1 + t + t^2\n"


def test_pullback_and_underlying(capsys):
    code, out, _ = run(capsys, "pullback", "shift", "f", "--session",
                       str(SESSIONS / "morphisms.json"))
    assert code == 0
    # canonical generator order puts the degree -1 generator first
    assert out == "x1^2 - 2*x1*xi*eta\n"
    code, out, _ = run(capsys, "underlying", "shift", "--session",
                       str(SESSIONS / "morphisms.json"))
    assert code == 0
    assert out == "x1 -> x1\n"


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "shift", "square", "--session",
                       str(SESSIONS / "morphisms.json"))
    assert code == 0
    assert out.splitlines()[0] == "x1 -> x1^2 - 2*x1*xi*eta"


def test_check_hom(capsys):
    code, out, _ = run(capsys, "check-hom", "shift", "--session",
                       str(SESSIONS / "morphisms.json"), "--samples", "40")
    assert code == 0
    assert out.splitlines()[0] == "homomorphism check: PASS"


def test_verify_atlas(capsys):
    code, out, _ = run(capsys, "verify-atlas", "sign_bundle", "--session",
                       str(SESSIONS / "two_charts.json"))
    assert code == 0
    code, out, _ = run(capsys, "verify-atlas", "broken_bundle", "--session",
                       str(SESSIONS / "two_charts.json"))
    assert code == 1
    assert any(line.startswith("FAIL pair (") for line in out.splitlines())


def test_apply_and_bracket(capsys):
    code, out, _ = run(capsys, "apply", "Q", "x1^2", "--session",
                       str(SESSIONS / "qk_model.json"))
    assert code == 0
    assert out == "2*x1*theta\n"
    code, out, _ = run(capsys, "bracket", "Q", "K", "--session",
                       str(SESSIONS / "qk_model.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("degree:")
    assert "x1 -> psi" in lines


def test_qk_verify(capsys):
    code, out, _ = run(capsys, "qk-verify", "Q", "K", "d", "--session",
                       str(SESSIONS / "qk_model.json"))
    assert code == 0
    assert out.splitlines()[0] == "qk structure check: PASS"


def test_descent_tower(capsys):
    code, out, _ = run(capsys, "descent", "Q", "K", "d", "obs", "--pmax", "4",
                       "--session", str(SESSIONS / "qk_model.json"))
    assert code == 0
    assert out.splitlines() == ["O(0) = theta", "O(1) = psi", "O(2) = 0",
                                "O(3) = 0", "O(4) = 0"]


def test_descent_rejects_open_seed(capsys):
    code, out, _ = run(capsys, "descent", "Q", "K", "d", "psi", "--session",
                       str(SESSIONS / "qk_model.json"))
    assert code == 1
    assert out.startswith("FAIL seed not Q-closed")


def test_check_descent_and_exact(capsys):
    code, out, _ = run(capsys, "check-descent", "Q", "d", "tower", "--session",
                       str(SESSIONS / "qk_model.json"))
    assert code == 0
    code, out, _ = run(capsys, "check-descent", "Q", "d", "bad_tower",
                       "--session", str(SESSIONS / "qk_model.json"))
    assert code == 1
    assert any(line.startswith("FAIL p=1") for line in out.splitlines())
    code, out, _ = run(capsys, "check-exact", "Q", "d", "zeros", "zeros",
                       "--session", str(SESSIONS / "qk_model.json"))
    assert code == 0


def test_check_descent_open_seed(tmp_path, capsys):
    data = json.loads((SESSIONS / "qk_model.json").read_text())
    data["sequences"]["open"] = {"domain": "M", "entries": ["psi", "0"]}
    code, out, _ = run_session(tmp_path, capsys, data, "check-descent", "Q", "d", "open")
    assert code == 1
    assert out == ("descent equation check: FAIL (1)\n"
                   "FAIL p=0: lhs=phi rhs=0\n"
                   "PASS p=1\n")


@pytest.mark.parametrize("grading, counts", [
    ({"kind": "cyclic_product", "orders": [2, 3]}, "even part 3, odd part 3: equal"),
    ({"kind": "z2_power", "n": 2}, "even part 2, odd part 2: equal"),
    ({"kind": "z2_power", "n": 3}, "even part 4, odd part 4: equal"),
    ({"kind": "cyclic_product", "orders": [4, 3]}, "even part 6, odd part 6: equal"),
])
def test_check_monoid_finite_cancellative(tmp_path, capsys, grading, counts):
    code, out, _ = run_session(tmp_path, capsys, {"format": 1, "grading": grading},
                               "check-monoid")
    assert code == 0
    assert out == ("monoid kind: %s\n"
                   "cancellative: yes\n"
                   "%s\n"
                   "parity homomorphism: validated at construction\n"
                   % (grading["kind"], counts))


def test_check_monoid_counts_within_the_digit_limit(tmp_path, capsys):
    # 2^14284 has 4300 digits, 2^14285 has 4301; the second is refused
    # when the report prints it, by Python's int-to-str limit
    code, out, err = run_session(tmp_path, capsys, {"format": 1, "grading": {
        "kind": "z2_power", "n": 14285}}, "check-monoid")
    count = str(2 ** 14284)
    assert (code, err) == (0, "")
    assert "even part %s, odd part %s: equal\n" % (count, count) in out
    for grading in ({"kind": "z2_power", "n": 14286}, {"kind": "z2_power", "n": 15000},
                    {"kind": "cyclic_product", "orders": [2 * 10 ** 4299, 10]}):
        code, out, err = run_session(tmp_path, capsys, {"format": 1, "grading": grading},
                                     "check-monoid")
        assert (code, out, err) == (2, "", "error: the parity counts have more than 4300 "
                                    "digits, the limit for the report\n")


@contextmanager
def int_digit_limit(digits):
    """The interpreter's limit on int-to-string conversion, set for a block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_check_monoid_follows_the_interpreter_digit_limit(tmp_path, capsys):
    # 2^2999 has 903 digits: past a limit of 640, within none at all
    data = {"format": 1, "grading": {"kind": "z2_power", "n": 3000}}
    with int_digit_limit(640):
        code, out, err = run_session(tmp_path, capsys, data, "check-monoid")
    assert (code, out, err) == (2, "", "error: the parity counts have more than 640 "
                                "digits, the limit for the report\n")
    with int_digit_limit(0):
        code, out, err = run_session(tmp_path, capsys, data, "check-monoid")
    count = 2 ** 2999
    assert (code, err) == (0, "")
    assert "even part %d, odd part %d: equal\n" % (count, count) in out


def test_a_coefficient_too_long_to_print_is_an_input_error(capsys):
    # 99999999999^400 has 4400 digits, ^390 has 4290
    argv = ["--session", str(SESSIONS / "two_charts.json"), "--domain", "U"]
    with int_digit_limit(4300):
        code, out, err = run(capsys, "normalize", "99999999999^400", *argv)
        assert (code, out, err) == (2, "", "error: a coefficient has more than 4300 "
                                    "digits, the limit for printing\n")
        code, out, err = run(capsys, "normalize", "99999999999^390*thU", *argv)
        assert (code, out, err) == (0, "%d*thU\n" % 99999999999 ** 390, "")


def test_integer_literal_over_the_digit_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text('{"format": 1, "grading": {"kind": "cyclic_product", '
                    '"orders": [1%s]}}' % ("0" * 4300))
    code, out, err = run(capsys, "check-monoid", "--session", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON: Exceeds the limit (4300 digits)")


LONG = "1" + "0" * 4400  # past the default limit of 4300 digits


@pytest.mark.parametrize("expr, pos", [
    (LONG, 0), ("thU + x" + LONG, 6), ("x1^" + LONG, 3), ("thU + 1/" + LONG, 8),
    ("th[1," + LONG + "]", 5), ("th[" + LONG + ",1]", 3),
], ids=["coefficient", "variable-index", "exponent", "denominator", "generator-index",
        "degree-component"])
@pytest.mark.parametrize("where", ["inline", "session"])
def test_a_number_too_long_to_read_is_an_input_error(tmp_path, capsys, expr, pos, where):
    data = json.loads((SESSIONS / "two_charts.json").read_text())
    if where == "session":
        data["elements"] = {"E": {"domain": "U", "expr": expr}}
        prefix, argv = "element 'E': ", ("normalize", "E")
    else:
        prefix, argv = "", ("normalize", expr, "--domain", "U")
    with int_digit_limit(4300):
        code, out, err = run_session(tmp_path, capsys, data, *argv)
    assert (code, out, err) == (2, "", "error: %sa number has more than 4300 digits, "
                                "the limit for reading (at position %d)\n" % (prefix, pos))


def test_the_number_limit_is_the_interpreter_s(capsys):
    argv = ("normalize", "1" + "0" * 700, "--session", str(SESSIONS / "two_charts.json"),
            "--domain", "U")
    with int_digit_limit(640):
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: a number has more than 640 digits, "
                                "the limit for reading (at position 0)\n")
    with int_digit_limit(4300):
        assert run(capsys, *argv) == (0, "1" + "0" * 700 + "\n", "")


def three_variable_chart():
    """two_charts.json with chart U over three base variables and no atlas."""
    data = json.loads((SESSIONS / "two_charts.json").read_text())
    data["domains"]["U"].update(vars=3, box=[[-2, 2]] * 3)
    del data["atlases"]
    return data


DIGITS = "%d digits" % MAX_POWER_DIGITS
MONOMIALS = "%d base monomials" % MAX_POWER_MONOMIALS


# 9^104795 has at most 99,999.6 digits by the estimate, 9^104796 100,000.5;
# (x1 + x2 + x3 + 1)^20 has 1771 base monomials, ^21 has 2024
@pytest.mark.parametrize("expr, limit, pos", [
    ("9^10000000", DIGITS, 2), ("9^104796", DIGITS, 2),
    ("(x1 + x2 + x3 + 1)^30", MONOMIALS, 19), ("(x1 + x2 + x3 + 1)^21", MONOMIALS, 19),
    ("(x1 + x2 + x3 + 9^1000)^16", DIGITS, 24),
], ids=["number", "number-edge", "parenthesised", "parenthesised-edge", "both"])
@pytest.mark.parametrize("where", ["inline", "session"])
def test_an_exponent_past_the_budget_is_an_input_error(tmp_path, capsys, expr, limit,
                                                       pos, where):
    data = three_variable_chart()
    if where == "session":
        data["elements"] = {"E": {"domain": "U", "expr": expr}}
        prefix, argv = "element 'E': ", ("normalize", "E")
    else:
        prefix, argv = "", ("normalize", expr, "--domain", "U")
    start = time.perf_counter()
    code, out, err = run_session(tmp_path, capsys, data, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %sa power may have more than %s, the limit "
                                "for an exponent (at position %d)\n" % (prefix, limit, pos))


def test_a_power_just_within_the_budget_is_computed(tmp_path, capsys):
    data = three_variable_chart()
    code, out, err = run_session(tmp_path, capsys, data, "normalize",
                                 "9^104795 - 9^104795", "--domain", "U")
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run_session(tmp_path, capsys, data, "normalize",
                                 "(x1 + x2 + x3 + 1)^20", "--domain", "U")
    assert (code, err) == (0, "")
    assert out.startswith("x1^20 + 20*x1^19*x2 + ") and out.endswith(" + 20*x3 + 1\n")
    assert out.count(" + ") == 1771 - 1
    # 1771 base monomials times 2 words, but only 6 multisets of 5 of 2 terms
    code, out, err = run_session(tmp_path, capsys, data, "normalize", "(x1^4 + thU)^5",
                                 "--domain", "U")
    assert (code, out, err) == (0, "x1^20 + 5*x1^16*thU\n", "")
    # comb(403, 3) monomials of degree up to 400 in 3 variables, but only
    # 101 multisets of 100 of 2 terms
    code, out, err = run_session(tmp_path, capsys, data, "normalize", "(x1^4 + 1)^100",
                                 "--domain", "U")
    assert (code, err) == (0, "")
    assert out.startswith("x1^400 + 100*x1^396 + ") and out.endswith(" + 100*x1^4 + 1\n")
    assert out.count(" + ") == 101 - 1


N = "9" * 4300  # the most digits the interpreter prints by default
HALF = 5 * 10 ** 4299  # HALF - 1 + HALF = 10^4300 - 1 is N
PRINTING = "a number has more than 4300 digits, the limit for printing"
RANGE_BITS = "a range check may compute a number of more than 262144 bits, " \
    "the limit for a range check"
RANGE_WORK = "a range check may take more than 536870912 units of work, " \
    "the limit for a range check"


def unit_box_session(images, nvars=1, samples=0):
    """A session with a morphism `m` of domain U, over nvars variables in
    the box [-1, 1] on each axis, to itself, with base images `images`."""
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "options": {"samples": samples},
            "domains": {"U": {"vars": nvars, "box": [[-1, 1]] * nvars}},
            "morphisms": {"m": {"source": "U", "target": "U", "base_images": images}}}


def one_derivation_session(gen_degree, degree, base_value):
    """A nat_power session with one generator `t` and one derivation `D`."""
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "domains": {"U": {"vars": 1, "generators": [{"degree": gen_degree, "name": "t"}]}},
            "derivations": {"D": {"domain": "U", "degree": degree,
                                  "base_values": [base_value], "generator_values": ["0"]}}}


def open_session(images, nvars):
    """unit_box_session with unbounded axes, which no range check reads."""
    data = unit_box_session(images, nvars)
    del data["domains"]["U"]["box"]
    return data


def shift_image_session(image):
    data = json.loads((SESSIONS / "morphisms.json").read_text())
    data["morphisms"]["shift"]["base_images"] = [image]
    return data


def into_box_session(image):
    """A morphism `m` from U, over [-2, 2], to B, over [0, 1]."""
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "domains": {"U": {"vars": 1, "box": [[-2, 2]]}, "B": {"vars": 1, "box": [[0, 1]]}},
            "morphisms": {"m": {"source": "U", "target": "B", "base_images": [image]}}}


def steep_atlas_session():
    """An atlas whose pair (U,V) leaves the second source box at x1 = 1/2,
    where the first leg's image 1/2^20000 is too long to print."""
    leg = {"source": "U", "target": "V", "overlap": [["1/2", 1]], "base_images": ["x1^20000"]}
    back = {"source": "V", "target": "U", "overlap": [["1/4", 1]], "base_images": ["x1"]}
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "domains": {c: {"vars": 1, "box": [[0, 1]]} for c in "UV"},
            "atlases": {"a": {"charts": ["U", "V"], "transitions": [leg, back]}}}


def geometric_session(truncation=4, nvars=0):
    """geometric.json at another truncation order or variable count."""
    data = json.loads((SESSIONS / "geometric.json").read_text())
    data["options"]["truncation"] = truncation
    data["domains"]["U"]["vars"] = nvars
    return data


# four even generators at truncation 60: the e-th power of WORD_SUM has
# comb(e + 4, 4) words, 1820 at e = 12 and 2380 at e = 13
EVEN_WORDS = {"format": 1, "grading": {"kind": "nat_power", "k": 1},
              "options": {"truncation": 60},
              "domains": {"U": {"vars": 0, "generators": [{"degree": 2}] * 4}}}
WORD_SUM = "(th[2,1]+th[2,2]+th[2,3]+th[2,4]+1)^%d"
TRUNCATION = "truncation is more than 256, the limit for a session"
VARS = "domain 'U': vars is more than 1000, the limit for a domain"
TERMS = "a power may have more than 2000 terms, the limit for an exponent (at position 36)"
PAIRS = "a product needs more than 262144 pairs of terms, the limit for a product"
WORDS = "there are more than 8192 words of length at most %d, the limit for a list of words"
GENERATORS = "domain 'U': more than 500 generators, the limit for a domain"
# x1 -> a sum of 512 (513) monomials: the square of the image is a product
# of 262144 (263169) pairs of terms
SUM_512 = " + ".join("x1^%d" % k for k in range(512))
SUM_512_SQUARED = " + ".join(
    ("%d*" % c if c > 1 else "") + ("x1^%d" % k if k > 1 else "x1")
    for k in range(1022, 0, -1) for c in [min(k, 1022 - k) + 1]) + " + 1"
# a derivation D on one variable and one generator a, with D(a) a sum of 513
# monomials times a: applied to a term whose coefficient has 512, the
# derivation of its word times that coefficient is 262656 pairs of terms
SUM_512_DERIVATION = {
    "format": 1, "grading": {"kind": "nat_power", "k": 1},
    "domains": {"U": {"vars": 1, "generators": [{"degree": 1, "name": "a"}]}},
    "derivations": {"D": {"domain": "U", "degree": 0, "base_values": ["0"],
                          "generator_values": ["(%s + x1^512)*a" % SUM_512]}}}
# K(x1) = w and K(w) = w^2 with w even: the tower x1, w, w^2/2, ... w^p/p
# ends only at the truncation order 100, past the bound of 64 entries
ENDLESS_TOWER = {
    "format": 1, "grading": {"kind": "int_power", "k": 2}, "options": {"truncation": 100},
    "domains": {"U": {"vars": 1, "generators": [{"degree": [1, -1], "name": "w"}]}},
    "derivations": {
        "Q": {"domain": "U", "degree": [1, 0], "base_values": ["0"], "generator_values": ["0"]},
        "d": {"domain": "U", "degree": [1, 0], "base_values": ["0"], "generator_values": ["0"]},
        "K": {"domain": "U", "degree": [1, -1], "base_values": ["w"],
              "generator_values": ["w^2"]}}}


def qk_words_session(degree, k_value):
    """Four generators of one degree [a, b] over one variable at truncation
    80, with Q and d zero and K(theta) = k_value for each generator: a
    qk-verify at --max-word 1000 ranges over comb(84, 4) = 1929501 words."""
    gens = [{"degree": degree}] * 4
    grading = "int_power" if min(degree) < 0 else "nat_power"

    def field(deg, values):
        return {"domain": "U", "degree": deg, "base_values": ["0"], "generator_values": values}
    return {"format": 1, "grading": {"kind": grading, "k": 2}, "options": {"truncation": 80},
            "domains": {"U": {"vars": 1, "generators": gens}},
            "derivations": {"Q": field([0, 1], ["0"] * 4), "d": field([1, 0], ["0"] * 4),
                            "K": field({"pos": [1, 0], "neg": [0, 1]}, [k_value] * 4)}}


def identity_session(ngens, degree=2):
    """The identity `m` of a domain of ngens generators of one degree,
    range-checked and homomorphism-checked on one sample."""
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1}, "options": {"samples": 1},
            "domains": {"U": {"vars": 1, "generators": [{"degree": degree}] * ngens}},
            "morphisms": {"m": {"source": "U", "target": "U", "base_images": ["x1"],
                                "generator_images": ["th[%d,%d]" % (degree, i + 1)
                                                     for i in range(ngens)]}}}


def cyclic_table_session(n):
    """Z_n as a finite table with its product, parity the residue mod 2."""
    return {"format": 1, "grading": {
        "kind": "finite_table", "table": [[(i + j) % n for j in range(n)] for i in range(n)],
        "mul": [[i * j % n for j in range(n)] for i in range(n)],
        "parity": [i % 2 for i in range(n)]}}


TWO_CHARTS = json.loads((SESSIONS / "two_charts.json").read_text())
QK_MODEL = json.loads((SESSIONS / "qk_model.json").read_text())
IDENTITY = ["x%d" % (mu + 1) for mu in range(11)]


# (session data, argv, error text) of runs past a limit: a number too long
# to print, a range check or a product past its budget, a descent tower
# past its bound
@pytest.mark.parametrize("data, argv, message", [
    (TWO_CHARTS, ("normalize", "x1^%s*x1^%s" % (N, N), "--domain", "U"), PRINTING),
    (shift_image_session("x1^" + N), ("pullback", "shift", "f"), PRINTING),
    (one_derivation_session(1, int(N), "0"), ("bracket", "D", "D"), PRINTING),
    (one_derivation_session(int(N[:-1] + "8"), 0, "t^2"), ("check-monoid",),
     "derivation 'D': " + PRINTING),
    (into_box_session("x1^20000"), ("check-monoid",), "morphism 'm': " + PRINTING),
    (steep_atlas_session(), ("verify-atlas", "a"), PRINTING),
    (unit_box_session(["x1^52429"]), ("check-monoid",), "morphism 'm': " + RANGE_BITS),
    (unit_box_session(IDENTITY, nvars=11), ("check-monoid",), "morphism 'm': " + RANGE_WORK),
    (unit_box_session(["x1"], samples=232007), ("check-monoid",), "morphism 'm': " + RANGE_WORK),
    (unit_box_session(["x1^229"]), ("compose", "m", "m"), RANGE_BITS),
    # comb(403, 3) base monomials: these pullbacks used to run for minutes
    (open_session(["(x1 + x2 + x3 + 1)^20", "x2", "x3"], 3), ("compose", "m", "m"), PAIRS),
    (open_session(["(x1 + x2 + x3 + 1)^20", "x2", "x3"], 3), ("pullback", "m", "x1^20"), PAIRS),
    (open_session([SUM_512 + " + x1^512"], 1), ("pullback", "m", "x1^2"), PAIRS),
    # a product in an expression, and the derivation of a word times its
    # coefficient: these products had no limit
    (SUM_512_DERIVATION, ("normalize", "(%s + x1^512)*(%s)" % (SUM_512, SUM_512)), PAIRS),
    (SUM_512_DERIVATION, ("apply", "D", "(%s)*a" % SUM_512), PAIRS),
    (QK_MODEL, ("descent", "Q", "K", "d", "obs", "--pmax", "65"),
     "pmax is more than 64, the limit for a descent tower"),
    (QK_MODEL, ("descent", "Q", "K", "d", "obs", "--pmax", "100000000"),
     "pmax is more than 64, the limit for a descent tower"),
    (ENDLESS_TOWER, ("descent", "Q", "K", "d", "x1"), "sequence did not terminate; supply pmax"),
    (geometric_session(truncation=257), ("invert", "f"), TRUNCATION),
    (geometric_session(truncation=100000), ("invert", "f"), TRUNCATION),
    (geometric_session(nvars=1001), ("invert", "f"), VARS),
    (geometric_session(nvars=10 ** 8), ("invert", "f"), VARS),
    (EVEN_WORDS, ("normalize", WORD_SUM % 13, "--domain", "U"), TERMS),
    (EVEN_WORDS, ("normalize", WORD_SUM % 60, "--domain", "U"), TERMS),
    (cyclic_table_session(129), ("check-monoid",),
     "table order is more than 128, the limit for a grading"),
    # every word was built, however many: 1929501 for qk-verify, whose K
    # lowers word length, so that every word is probed, and comb(303, 3)
    # for check-hom's probes (this run did not end in 60 s)
    (qk_words_session([-1, 1], "1"), ("qk-verify", "Q", "K", "d", "--max-word", "1000"),
     WORDS % 80),
    (identity_session(300), ("check-hom", "m"), WORDS % 3),
    # the spec of a domain holds a sign bit per pair of generators
    (identity_session(501), ("check-monoid",), GENERATORS),
    (identity_session(100_000), ("check-monoid",), GENERATORS),
], ids=["exponent-sum", "pullback-exponent", "bracket-degree", "derivation-degree",
        "range-violation-point", "atlas-failure-point", "range-bits", "range-grid",
        "range-samples", "composite-degree", "composite-pairs", "pullback-pairs", "product-pairs",
        "expression-pairs", "coefficient-pairs", "pmax", "pmax-huge", "endless-tower", "truncation", "truncation-huge", "vars", "vars-huge", "word-power",
        "word-power-huge", "table-order", "qk-words", "sample-words", "generators",
        "generators-huge"])
def test_a_run_past_a_limit_is_an_input_error(tmp_path, capsys, data, argv, message):
    start = time.perf_counter()
    with int_digit_limit(4300):
        code, out, err = run_session(tmp_path, capsys, data, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# runs just within each of those limits
@pytest.mark.parametrize("data, argv, first_line", [
    (TWO_CHARTS, ("normalize", "x1^%d*x1^%d" % (HALF - 1, HALF), "--domain", "U"),
     "x1^" + N),
    (one_derivation_session(1, HALF - 1, "0"), ("bracket", "D", "D"),
     "degree: %d" % (2 * HALF - 2)),
    (unit_box_session(["x1^52428"]), ("underlying", "m"), "x1 -> x1^52428"),
    (unit_box_session(IDENTITY[:10], nvars=10), ("underlying", "m"), "x1 -> x1"),
    (unit_box_session(["x1"], samples=232006), ("underlying", "m"), "x1 -> x1"),
    (unit_box_session(["x1^228"]), ("compose", "m", "m"), "x1 -> x1^51984"),
    # products of one pair of terms, however high their degree
    ({"format": 1, "grading": {"kind": "nat_power", "k": 1},
      "domains": {"U": {"vars": 1, "generators": [{"degree": 1, "name": "theta"}]}},
      "morphisms": {"m": {"source": "U", "target": "U", "base_images": ["x1^210"],
                          "generator_images": ["theta"]}}},
     ("compose", "m", "m"), "x1 -> x1^44100"),
    (open_session([SUM_512], 1), ("pullback", "m", "x1^2"), SUM_512_SQUARED),
    (QK_MODEL, ("descent", "Q", "K", "d", "obs", "--pmax", "64"), "O(0) = theta"),
    (geometric_session(truncation=256), ("normalize", "t^256", "--domain", "U"), "t^256"),
    (geometric_session(nvars=1000), ("normalize", "x1000*t", "--domain", "U"), "x1000*t"),
    ({"format": 1, "grading": {"kind": "nat_power", "k": 100_000}, "domains": {"U": {"vars": 1}}},
     ("normalize", "x1 + 1"), "x1 + 1"),
    (cyclic_table_session(128), ("check-monoid",), "monoid kind: finite_table"),
    # every relation is decided on the coordinates: the words are counted,
    # not built (this run took 10 s and 1.4 GB)
    (qk_words_session([1, 1], "0"), ("qk-verify", "Q", "K", "d", "--max-word", "1000"),
     "qk structure check: PASS"),
    # comb(37, 3) = 7770 words of length at most 3
    (identity_session(34), ("check-hom", "m"), "homomorphism check: PASS"),
    (identity_session(500), ("check-monoid",), "monoid kind: nat_power"),
], ids=["exponent-sum", "bracket-degree", "range-bits", "range-grid", "range-samples",
        "composite-degree", "composite-monomial", "product-pairs", "pmax", "truncation", "vars",
        "grading-components", "table-order", "qk-words", "sample-words", "generators"])
def test_a_run_just_within_a_limit_succeeds(tmp_path, capsys, data, argv, first_line):
    with int_digit_limit(4300):
        code, out, err = run_session(tmp_path, capsys, data, *argv)
    assert (code, out.splitlines()[0], err) == (0, first_line, "")


def limited_address_space():
    """Cap a child's address space at 1 GiB, so that a run that builds a
    huge tuple ends in a MemoryError instead of taking the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("grading, what", [
    ({"kind": "z2_power", "n": 10 ** 8}, "grading size n"),
    ({"kind": "nat_power", "k": 10 ** 9}, "grading size k"),
    ({"kind": "int_power", "k": 100_001}, "grading size k"),
    ({"kind": "cyclic_product", "orders": [2] * 100_001}, "number of cyclic orders"),
], ids=["z2-power", "nat-power", "int-power", "cyclic-product"])
@pytest.mark.parametrize("argv", [("check-monoid",), ("normalize", "1")])
def test_a_grading_past_the_component_limit_is_an_input_error(tmp_path, grading, what, argv):
    # in a child process: without the limit these runs built tuples of
    # 10^8 or 10^9 entries and ended in a MemoryError traceback
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"format": 1, "grading": grading,
                                "domains": {"U": {"vars": 1}}}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "monograde.cli", *argv, "--session", str(path)],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=limited_address_space)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: %s is more than 100000, the limit for a grading\n" % what
    assert "Traceback" not in done.stderr


def test_a_word_power_just_within_the_budget_is_computed(tmp_path, capsys):
    code, out, err = run_session(tmp_path, capsys, EVEN_WORDS, "normalize", WORD_SUM % 12,
                                 "--domain", "U")
    assert (code, err) == (0, "")
    assert out.startswith("1 + 12*th[2,1] + 12*th[2,2] + ")
    assert out.count(" + ") == 1820 - 1


@pytest.mark.parametrize("parity, text", [
    ([1, 1, 0, 0], "parity of the identity must be 0"),
    ([0, 1, 0, 0], "parity is not additive at a, b"),
])
def test_table_parity_errors_are_input_errors(tmp_path, capsys, parity, text):
    grading = {"kind": "finite_table", "names": ["0", "a", "b", "c"], "parity": parity,
               "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    code, out, err = run_session(tmp_path, capsys, {"format": 1, "grading": grading},
                                 "check-monoid")
    assert (code, out, err) == (2, "", "error: bad grading: %s\n" % text)


def self_transition_session():
    """two_charts.json with self-transitions: U->U the identity, V->V not."""
    data = json.loads((SESSIONS / "two_charts.json").read_text())
    whole = [[-2, 2]]
    data["atlases"] = {"selfish": {"charts": ["U", "V"], "transitions": [
        {"source": "U", "target": "U", "overlap": whole,
         "base_images": ["x1"], "generator_images": ["thU"]},
        {"source": "V", "target": "V", "overlap": whole,
         "base_images": ["x1"], "generator_images": ["-thV"]},
        data["atlases"]["sign_bundle"]["transitions"][0],
        data["atlases"]["sign_bundle"]["transitions"][1]]}}
    return data


def test_verify_atlas_self_transitions(tmp_path, capsys, monkeypatch):
    data = self_transition_session()
    code, out, _ = run_session(tmp_path, capsys, data, "verify-atlas", "selfish")
    assert code == 1
    assert out == ("atlas cocycle check: FAIL (1)\n"
                   "PASS self (U,U) is the identity\n"
                   "FAIL self (V,V): lhs=declared transition rhs=identity\n"
                   "PASS pair (U,V) inverts\n"
                   "PASS pair (V,U) inverts\n")
    # the identity is compared by its images; only the two composites of
    # the pair are built as morphisms
    s = load_session(data)
    built = []
    init = Morphism.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Morphism, "__init__", counting_init)
    check_cocycle(s.atlases["selfish"])
    assert len(built) == 2


def test_unreadable_generator_name_is_input_error(tmp_path, capsys):
    # a generator named "2" would render th[2,1] + x1 as "x1 + 2", a constant
    data = {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "domains": {"U": {"vars": 1, "generators": [{"degree": 2, "name": "2"}]}},
            "elements": {"f": {"domain": "U", "expr": "th[2,1] + x1"}}}
    code, out, err = run_session(tmp_path, capsys, data, "normalize", "f")
    assert (code, out) == (2, "")
    assert err.startswith("error: domain 'U': generator name '2'")


def test_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "normalize", "x1 +", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "invert", "nope", "--session",
                       str(SESSIONS / "geometric.json"))
    assert code == 2
    code, _, err = run(capsys, "check-hom", "ghost", "--session",
                       str(SESSIONS / "morphisms.json"))
    assert code == 2
    code, _, err = run(capsys, "check-monoid", "--session", "/no/such/file.json")
    assert code == 2
    unnamed = base_session()
    unnamed["elements"] = {"": {"domain": "U", "expr": "s"}}
    for data, message in (([base_session()], "session must be a JSON object"),
                          (unnamed, "names must be nonempty strings")):
        code, out, err = run_session(tmp_path, capsys, data, "check-monoid")
        assert (code, out, err) == (2, "", "error: %s\n" % message)
    two_charts = ("normalize", "thU", "--session", str(SESSIONS / "two_charts.json"))
    for extra, message in (((), "no unique domain; name one explicitly"),
                           (("--domain", "Nope"), "unknown domain 'Nope'")):
        code, out, err = run(capsys, *two_charts, *extra)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def range_session(seed, samples, domains, morphisms):
    """A nat_power session over one generator per domain, named after it."""
    return {"format": 1, "grading": {"kind": "nat_power", "k": 1},
            "options": {"truncation": 4, "seed": seed, "samples": samples},
            "domains": {name: {"vars": len(box), "box": box,
                               "generators": [{"degree": 1, "name": gen}]}
                        for name, (box, gen) in domains.items()},
            "morphisms": {name: {"source": src, "target": tgt, "base_images": base,
                                 "generator_images": [gen]}
                          for name, (src, tgt, base, gen) in morphisms.items()}}


def test_range_violation_texts(tmp_path, capsys):
    # each body vanishes on the 3-per-axis grid, so the first failure is at
    # a seeded random point and the text pins the draws as well
    bounded = range_session(0, 20, {"U": ([[0, 1]], "t"), "V": ([[-1, 1]], "s")},
                            {"m": ("U", "V", ["64*x1^3 - 96*x1^2 + 32*x1"], "t")})
    code, out, err = run_session(tmp_path, capsys, bounded, "underlying", "m")
    assert (code, out, err) == (2, "", (
        "error: morphism 'm': range condition fails: point ['3/4'] maps to ['-3'] "
        "outside the target box\n"))
    # the second source box shares its spec with the first target, not its box
    composite = range_session(
        3, 20, {"U": ([[0, 2], [None, 1]], "t"), "V": ([[None, None]], "s"),
                "W": ([["-1/2", "1/2"]], "s"), "X": ([[None, None]], "s")},
        {"m": ("U", "V", ["x1^3*x2 - 3*x1^2*x2 + 2*x1*x2"], "t"),
         "n": ("W", "X", ["x1^3"], "s")})
    code, out, err = run_session(tmp_path, capsys, composite, "compose", "m", "n")
    assert (code, out, err) == (1, (
        "FAIL cannot compose: point ['3/2', '-3/2'] leaves the second source box "
        "at ['9/16']\n"), "")
    # an unbounded and a half-open source axis into a half-open and a
    # degenerate target axis
    open_boxes = range_session(
        5, 30, {"U": ([[None, None], ["1/3", None]], "t"),
                "V": ([[None, "7/2"], [0, 0]], "s")},
        {"m": ("U", "V", ["x2 + 1/9*x1^3 - 1/9*x1", "1/11*x2*x1^3 - 1/11*x2*x1"], "t")})
    code, out, err = run_session(tmp_path, capsys, open_boxes, "underlying", "m")
    assert (code, out, err) == (2, "", (
        "error: morphism 'm': range condition fails: point ['8', '25/12'] maps to "
        "['697/12', '1050/11'] outside the target box\n"))


def test_out_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["qk-verify", "Q", "K", "d", "--session",
                 str(SESSIONS / "qk_model.json"), "--out", str(report)])
    assert code == 0
    assert report.read_text().splitlines()[0] == "qk structure check: PASS"


@pytest.mark.parametrize("argv, session", [
    (("check-monoid",), "table1.json"),
    (("verify-atlas", "broken_bundle"), "two_charts.json"),
    (("invert", "t"), "geometric.json"),
], ids=["lines", "failed-report", "fail-line"])
def test_unwritable_out_is_input_error(tmp_path, capsys, argv, session):
    out = tmp_path / "missing" / "report.txt"
    code, stdout, err = run(capsys, *argv, "--session", str(SESSIONS / session),
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code = main(["check-hom", "shift", "--session",
                     str(SESSIONS / "morphisms.json"), "--seed", "5",
                     "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# -- loader validation ----------------------------------------------------------

def base_session():
    return {
        "format": 1,
        "grading": {"kind": "nat_power", "k": 1},
        "domains": {"U": {"vars": 1,
                          "generators": [{"degree": 1, "name": "s"}]}},
    }


def test_loader_requires_format():
    data = base_session()
    del data["format"]
    with pytest.raises(SessionError):
        load_session(data)


def test_loader_rejects_duplicate_names():
    data = base_session()
    data["elements"] = {"U": {"domain": "U", "expr": "x1"}}
    with pytest.raises(SessionError):
        load_session(data)


def test_loader_rejects_bad_degree():
    data = base_session()
    data["domains"]["U"]["generators"][0]["degree"] = -1
    with pytest.raises(SessionError):
        load_session(data)


def test_loader_rejects_degree_zero_generator():
    data = base_session()
    data["domains"]["U"]["generators"][0]["degree"] = 0
    with pytest.raises(SessionError):
        load_session(data)


def test_loader_rejects_degree_violating_derivation():
    data = base_session()
    data["derivations"] = {"D": {"domain": "U", "degree": 1,
                                 "base_values": ["s"],
                                 "generator_values": ["x1"]}}
    with pytest.raises(SessionError):
        load_session(data)


def test_loader_rejects_generators_over_product_free_table():
    # an addition table without a declared product cannot grade an algebra
    data = {
        "format": 1,
        "grading": {"kind": "finite_table",
                    "table": [[0, 1], [1, 0]], "parity": [0, 1]},
        "domains": {"U": {"vars": 0, "generators": [{"degree": 1}]}},
    }
    with pytest.raises(SessionError):
        load_session(data)


def two_domains():
    data = base_session()
    data["domains"] = {name: {"vars": 1, "box": [[-2, 2]],
                              "generators": [{"degree": 1, "name": gen}]}
                       for name, gen in (("U", "s"), ("V", "t"))}
    return data


def u_to_v(base, gen, **fields):
    """A transition entry from chart U to chart V with one image of each kind."""
    return dict(fields, source="U", target="V", base_images=[base],
                generator_images=[gen])


@pytest.mark.parametrize("section, entries, message", [
    ("domains", {"W": {"vars": 1, "generators": [{"degree": 0}]}},
     "domain 'W': generators must have nonzero degree"),
    ("domains", {"W": {"vars": 1, "generators": [{"name": "r"}]}}, "domain 'W': 'degree'"),
    ("elements", {"f": {"domain": "U", "expr": "s +"}},
     "element 'f': expected a value, found None (at position 3)"),
    ("morphisms", {"m": {"source": "U", "target": "V", "base_images": ["x1", "x1"],
                         "generator_images": ["s"]}},
     "morphism 'm': need 1 base images, got 2"),
    ("derivations", {"D": {"domain": "U", "degree": 1, "base_values": ["s"],
                           "generator_values": ["x1"]}},
     "derivation 'D': value on generator 0 has degree 0, expected derivation "
     "degree plus coordinate degree"),
    ("atlases", {"A": {"charts": ["U", "V"], "transitions": [
        u_to_v("x1", "-s", overlap=[[-1, 1]])]}},
     "atlas 'A': missing reverse transition (1,0)"),
    ("atlases", {"A": {"charts": ["U", "V"], "transitions": [u_to_v("x1", "x1")]}},
     "atlas 'A' transition (U,V): image of generator 0 must be homogeneous of degree 1"),
    ("atlases", {"A": {"charts": ["U", "V"], "transitions": [u_to_v("x1 +", "s")]}},
     "atlas 'A' transition (U,V) base_images: expected a value, found None "
     "(at position 4)"),
    ("sequences", {"S": {"domain": "U", "entries": []}},
     "sequence 'S': a descent sequence needs at least one entry"),
])
def test_loader_error_texts(section, entries, message):
    data = two_domains()
    data.setdefault(section, {}).update(entries)
    with pytest.raises(SessionError) as info:
        load_session(data)
    assert str(info.value) == message


def test_a_bad_session_option_is_reported_under_an_override(tmp_path, capsys):
    data = dict(base_session(), options={"seed": "abc"})
    assert run_session(tmp_path, capsys, data, "check-monoid", "--seed", "3") == (
        2, "", "error: bad seed option 'abc'\n")


def test_loader_maps_declaration_order_to_canonical():
    # generators declared out of canonical order; values follow declaration
    data = {
        "format": 1,
        "grading": {"kind": "nat_power", "k": 2},
        "domains": {"M": {"vars": 0, "generators": [
            {"degree": [1, 0], "name": "psi"},
            {"degree": [0, 1], "name": "theta"}]}},
        "derivations": {"K": {"domain": "M",
                              "degree": {"pos": [1, 0], "neg": [0, 1]},
                              "base_values": [],
                              "generator_values": ["0", "psi"]}},
    }
    s = load_session(data)
    K = s.derivations["K"]
    spec = s.domains["M"].genspec
    theta_pos = spec.position_of((0, 1), 1)
    psi_pos = spec.position_of((1, 0), 1)
    from monograde import render_element
    assert render_element(K.gen_values[theta_pos]) == "psi"
    assert K.gen_values[psi_pos].is_zero()


def test_non_integer_option_and_grading_size_are_input_errors(tmp_path, capsys):
    assert run_session(tmp_path, capsys, base_session(), "check-monoid")[0] == 0
    cases = []
    # floats and bools are rejected, not truncated to an integer
    for options in ({"truncation": "abc"}, {"truncation": 2.5}, {"seed": True},
                    {"samples": -1}):
        cases.append(dict(base_session(), options=options))
    for grading in ({"kind": "int_power", "k": "two"},
                    {"kind": "nat_power", "k": 2.5}, {"kind": "z2_power", "n": True}):
        cases.append(dict(base_session(), grading=grading))
    # True and 1.0 compare equal to 1 but are not the format number
    for fmt in (True, 1.0):
        cases.append(dict(base_session(), format=fmt))
    for data in cases:
        code, out, err = run_session(tmp_path, capsys, data, "check-monoid")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def finite_table_session():
    """Z4 with named elements, so display names differ from the indices
    the parser reads; the generators are unnamed."""
    return {
        "format": 1,
        "grading": {"kind": "finite_table",
                    "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
                    "mul": [[(i * j) % 4 for j in range(4)] for i in range(4)],
                    "parity": [0, 1, 0, 1], "names": ["z", "o", "t", "h"]},
        "options": {"truncation": 3},
        "domains": {"U": {"vars": 1, "generators": [
            {"degree": 1}, {"degree": 2}, {"degree": 3}]}},
        "morphisms": {"m": {"source": "U", "target": "U",
                            "base_images": ["x1 + th[1,1]*th[3,1]"],
                            "generator_images": ["th[1,1]", "2*th[2,1]",
                                                 "th[3,1] + x1*th[1,1]*th[2,1]"]}},
        "derivations": {"D": {"domain": "U", "degree": 0,
                              "base_values": ["x1"],
                              "generator_values": ["th[1,1]", "0", "th[3,1]"]}},
    }


def test_generator_tokens_parse_back_on_finite_table(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(finite_table_session()))
    spec = load_session(str(path)).domains["U"].genspec
    for argv in (("compose", "m", "m"), ("bracket", "D", "D")):
        code, out, _ = run(capsys, *argv, "--session", str(path))
        assert code == 0
        lines = [line for line in out.splitlines() if "->" in line]
        assert len(lines) == 1 + spec.ngens
        for line in lines:
            lhs, rhs = line.split(" -> ")
            parse_element(lhs, spec)
            assert render_element(parse_element(rhs, spec)) == rhs


def replace_field(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


# each of these crashed the loader with a traceback
MALFORMED_FIELDS = {
    "base_images": ("morphisms.json", ("morphisms", "shift", "base_images"), 5),
    "generator_values": ("qk_model.json", ("derivations", "Q", "generator_values"), 7),
    "entries": ("qk_model.json", ("sequences", "tower", "entries"), 3),
    "domain": ("qk_model.json", ("elements", "obs", "domain"), ["M"]),
    "charts": ("two_charts.json", ("atlases", "sign_bundle", "charts"), 5),
    "transitions": ("two_charts.json", ("atlases", "sign_bundle", "transitions"), [1]),
    "domains": ("geometric.json", ("domains",), [1, 2]),
}


@pytest.mark.parametrize("name, path, value", MALFORMED_FIELDS.values(),
                         ids=list(MALFORMED_FIELDS))
def test_malformed_session_field_is_input_error(tmp_path, capsys, name, path, value):
    data = json.loads((SESSIONS / name).read_text())
    replace_field(data, path, value)
    code, out, err = run_session(tmp_path, capsys, data, "check-monoid")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unreadable_session_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "session.json"
    for content in (b"\xff\xfe{", b"[" * 100000 + b"]" * 100000):
        path.write_bytes(content)
        code, out, err = run(capsys, "check-monoid", "--session", str(path))
        assert code == 2
        assert err.startswith("error: ")


def field_paths(node, prefix=()):
    """The path of every value below the root of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


# one command per bundled session that reads what the session declares;
# zero range samples keep the run short without skipping any loader path
FUZZ_COMMANDS = {
    "geometric.json": ("invert", "f"),
    "morphisms.json": ("pullback", "shift", "f"),
    "qk_model.json": ("descent", "Q", "K", "d", "obs", "--pmax", "2"),
    "table1.json": ("check-monoid",),
    "two_charts.json": ("verify-atlas", "sign_bundle"),
}


# the replacement values of the single-field mutations; tools/diff_parent.py
# reads them too
MUTATION_VALUES = (None, 1, 2.5, True, "x", [], {}, [1], {"a": 1}, -1)


@pytest.mark.parametrize("name", sorted(FUZZ_COMMANDS))
def test_single_field_mutations_never_raise(tmp_path, capsys, name):
    base = json.loads((SESSIONS / name).read_text())
    for path in list(field_paths(base)):
        for value in MUTATION_VALUES:
            data = json.loads(json.dumps(base))
            replace_field(data, path, value)
            try:
                code, _, err = run_session(tmp_path, capsys, data,
                                           *FUZZ_COMMANDS[name], "--samples", "0")
            except SystemExit as exc:  # the command line was rejected
                assert exc.code == 2
                continue
            assert code in (0, 1, 2), (path, value)
            assert (code == 2) == err.startswith("error: "), (path, value)


# the domain `normalize` reads in each bundled session that declares one
NORMALIZE_DOMAINS = {"geometric.json": "U", "morphisms.json": "U", "qk_model.json": "M",
                     "two_charts.json": "U"}
# pieces of the expression syntax, the bundled sessions' generator names among them
EXPR_PIECES = ("0", "1", "2", "9", "99", "x1", "x2", "t", "eta", "xi", "theta", "psi",
               "thU", "th[", "]", ",", "(", ")", "+", "-", "*", "^", "/", " ")


def expr_texts(max_len):
    return st.lists(st.sampled_from(EXPR_PIECES), max_size=max_len).map(
        lambda pieces: "".join(pieces)[:max_len])


@st.composite
def fuzzed_runs(draw):
    """(session data, argv before --session, argv after it) of one run of
    main: a bundled session with 1-3 fields replaced, under its
    FUZZ_COMMANDS command, or `normalize` of a short inline text."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(NORMALIZE_DOMAINS)))
        return (json.loads((SESSIONS / name).read_text()),
                ("normalize", "--domain", NORMALIZE_DOMAINS[name]), ("--", draw(expr_texts(40))))
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    data = json.loads((SESSIONS / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(field_paths(data))
        if paths:
            replace_field(data, draw(st.sampled_from(paths)),
                          draw(st.one_of(st.sampled_from(MUTATION_VALUES).map(copy.deepcopy),
                                         expr_texts(12))))
    return data, (*FUZZ_COMMANDS[name], "--samples", "0"), ()


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_runs())
def test_fuzzed_runs_keep_the_exit_code_contract(tmp_path, capsys, fuzzed):
    data, head, tail = fuzzed
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    argv = [*head, "--session", str(path), *tail]
    first, second = run(capsys, *argv), run(capsys, *argv)
    code, _, err = first
    assert code in (0, 1, 2), argv
    assert (code == 2) == err.startswith("error: "), argv
    assert "Traceback" not in err
    assert first == second, argv


def digit_strings():
    """Numerals of 1 to 4300 digits, the interpreter's default limit."""
    return st.one_of(st.sampled_from(["0", "1", "2", "3"]),
                     st.builds(lambda n, d: d * n, st.integers(1, 4300),
                               st.sampled_from("123456789")))


def grammar_atoms():
    """An atom of the expression grammar, with a numeral in each numeric
    position, and an optional exponent.  Numbers and names come up more
    often than the atoms that are mostly input errors, so that many texts
    reach the printer."""
    names = st.sampled_from(["x1", "t", "eta", "xi", "theta", "psi", "thU"])
    atom = st.one_of(
        digit_strings(), digit_strings(), digit_strings(), names, names,
        st.builds("%s/%s".__mod__, st.tuples(digit_strings(), digit_strings())),
        st.builds("x%s".__mod__, digit_strings()),
        st.builds("th[%s%s,%s]".__mod__, st.tuples(st.sampled_from(["", "-"]), digit_strings(),
                                                   digit_strings())),
        st.builds("th[(%s,%s),%s]".__mod__, st.tuples(digit_strings(), digit_strings(),
                                                      digit_strings())))
    return st.builds(lambda a, e: a if e is None else "%s^%s" % (a, e),
                     atom, st.none() | st.sampled_from(["2", "3"]) | digit_strings())


def grammar_texts():
    """Expressions of nested sums, products, negations and powers of
    parenthesised factors over `grammar_atoms`."""
    return st.recursive(grammar_atoms(), lambda inner: st.one_of(
        st.builds("(%s)^%s".__mod__, st.tuples(inner, digit_strings())),
        st.builds("%s*%s".__mod__, st.tuples(inner, inner)),
        st.builds("%s %s %s".__mod__, st.tuples(inner, st.sampled_from("+-"), inner)),
        st.builds("-(%s)".__mod__, inner)), max_leaves=8)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(st.sampled_from(sorted(NORMALIZE_DOMAINS)), grammar_texts())
def test_normalize_of_long_numbers_keeps_the_exit_code_contract(capsys, name, text):
    start = time.perf_counter()
    with int_digit_limit(4300):
        code, out, err = run(capsys, "normalize", "--domain", NORMALIZE_DOMAINS[name],
                             "--session", str(SESSIONS / name), "--", text)
    assert time.perf_counter() - start < 1, text[:200]
    assert code in (0, 2), text[:200]
    assert (code == 2) == (err.startswith("error: ") and err.count("\n") == 1), text[:200]
    assert (code == 0) == (out.count("\n") == 1 and not err), text[:200]


def test_nesting_beyond_the_bound_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "normalize", "(" * 200 + "t" + ")" * 200,
                       "--session", str(SESSIONS / "geometric.json"))
    assert code == 2
    assert "nesting" in err
    data = json.loads((SESSIONS / "geometric.json").read_text())
    data["elements"]["f"]["expr"] = "-" * 1000 + "t"
    code, _, err = run_session(tmp_path, capsys, data, "check-monoid")
    assert code == 2
    assert "nesting" in err
    code, out, _ = run(capsys, "normalize", "(" * 50 + "-" * 40 + "t" + ")" * 50,
                       "--session", str(SESSIONS / "geometric.json"))
    assert (code, out) == (0, "t\n")


def test_negative_counts_are_input_errors(tmp_path, capsys):
    code, out, err = run(capsys, "check-hom", "shift", "--samples", "-3",
                         "--session", str(SESSIONS / "morphisms.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    for argv in (("qk-verify", "Q", "K", "d", "--max-word", "-1"),
                 ("descent", "Q", "K", "d", "obs", "--pmax", "-1")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--session", str(SESSIONS / "qk_model.json")])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err


GEO, MOR, QK = (str(SESSIONS / name) for name in
                ("geometric.json", "morphisms.json", "qk_model.json"))


# Command lines, their exit codes and whether main raised SystemExit (on
# help and on a rejected command line), as the argparse front end that
# cli.read_argv replaced gave them.
@pytest.mark.parametrize("argv, code, raised", [
    (["normalize", "t^2", "--session=" + GEO], 0, False),
    (["descent", "Q", "K", "d", "obs", "--pmax=2", "--session", QK], 0, False),
    (["normalize", "t^2", "--sess", GEO], 0, False),
    (["check-hom", "shift", "--sa=0", "--sess=" + MOR], 0, False),
    (["normalize", "t^2", "--s", GEO], 2, True),
    (["normalize", "t^2"], 2, True),
    ([], 2, True),
    (["normalise", "t^2", "--session", GEO], 2, True),
    (["normalize", "t^2", "--session", GEO, "--verbose"], 2, True),
    (["--session", GEO, "normalize", "t^2"], 2, True),
    (["pullback", "shift", "--session", MOR], 2, True),
    (["normalize", "t^2", "t", "--session", GEO], 2, True),
    (["normalize", "t^2", "--session"], 2, True),
    (["check-monoid", "--seed", "x", "--session", GEO], 2, True),
    (["descent", "Q", "K", "d", "obs", "--pmax", "-1", "--session", QK], 2, True),
    (["qk-verify", "Q", "K", "d", "--max-word=-1", "--session", QK], 2, True),
    (["check-hom", "shift", "--samples", "-3", "--samples", "0", "--session", MOR], 0, False),
    (["check-hom", "shift", "--samples", "0", "--samples", "-3", "--session", MOR], 2, False),
    (["normalize", "-1", "--session", GEO], 0, False),
    (["normalize", "-x1^2", "--session", GEO], 2, True),
    (["normalize", "- t", "--session", GEO], 0, False),
    (["normalize", "--session", GEO, "--", "-t^2"], 0, False),
    (["check-monoid", "--session", GEO, "--"], 2, True),
    (["-h"], 0, True),
    (["--he"], 0, True),
    (["normalize", "-h"], 0, True),
    (["descent", "-h", "--pmax", "-1"], 0, True),
    (["descent", "--pmax", "-1", "-h"], 2, True),
    (["normalize", "--help=yes"], 2, True),
], ids=["flag-equals-value", "option-equals-value", "unique-prefix", "unique-prefix-equals",
        "ambiguous-prefix", "missing-session", "no-command", "unknown-command",
        "unknown-option", "option-before-command", "missing-positional", "extra-positional",
        "missing-option-value", "seed-not-an-integer", "pmax-negative", "max-word-negative",
        "last-value-wins", "last-value-wins-bad", "negative-number-positional",
        "dash-positional", "space-positional", "double-dash", "double-dash-after-option",
        "help", "help-long-prefix", "command-help", "help-before-a-bad-value",
        "bad-value-before-help", "help-with-a-value"])
def test_command_lines_keep_their_exit_codes(capsys, argv, code, raised):
    try:
        outcome = main(argv), False
    except SystemExit as exc:
        outcome = exc.code, True
    out, err = capsys.readouterr()
    assert outcome == (code, raised)
    if raised and code == 2:
        assert (out, err.splitlines()[0].split()[:2]) == ("", ["usage:", "monograde"])
        assert ": error: " in err.splitlines()[-1]


def test_a_second_double_dash_is_a_positional_token(capsys):
    # argparse read it as an empty list, whose lookup among the session's
    # elements ended in a TypeError traceback
    code, out, err = run(capsys, "pullback", "--session", MOR, "--", "shift", "--")
    assert (code, out, err) == (2, "", "error: expected a value, found None (at position 2)\n")


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert re.findall(r"^  (\S+) ", capsys.readouterr().out, re.M) == list(cli.COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["descent", "-h"])
    assert exc.value.code == 0
    assert re.findall(r"^  (--\S+)", capsys.readouterr().out, re.M) == [*cli.OPTIONS, "--pmax"]


def readme_section(start: str, end: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text[text.index(start) + len(start):].split(end, 1)[0]


def test_readme_commands_and_examples(capsys, monkeypatch):
    listed = re.findall(r"`([a-z-]+)`", readme_section("Commands:", "\n\n"))
    assert listed == list(cli.COMMANDS)
    examples = readme_section("Examples against the bundled sessions:\n\n```sh\n", "```")
    monkeypatch.chdir(ROOT)
    lines = examples.splitlines()
    assert lines
    for line in lines:
        command, _, shown = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "monograde"
        code, out, _ = run(capsys, *argv[1:])
        shown = shown.strip()
        if shown == "exit 1":
            assert code == 1, line
        else:
            assert code == 0, line
            if shown:
                assert out == shown + "\n", line
