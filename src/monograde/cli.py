"""The monograde command line: batch commands over a session file.

Exit codes: 0 for success, 1 for a mathematical failure (a violated
identity, a non-invertible element, a broken cocycle -- always with a
located counterexample in the report), 2 for input errors.  Reports are
line-oriented and deterministic for a fixed session and seed.
"""

from __future__ import annotations

import argparse
import sys

from .calculus import (CalculusError, NotQClosed, bracket, check_descent,
                       check_exact, k_sequence, qk_verify)
from .expr import (ExprError, parse_element, render_element, render_generator,
                   render_poly)
from .galgebra import AlgebraError, NotInvertible
from .grading import (GradingError, check_parity_cardinality, format_k)
from .morphism import (MorphismError, RangeViolation, check_cocycle,
                       check_homomorphism, compose)
from .session import Session, SessionError, load_session

PASS, MATH_FAIL, INPUT_ERROR = 0, 1, 2


class CommandFailure(Exception):
    """A mathematical failure with report lines already prepared."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


def _resolve_element(session: Session, token: str, domain: str | None):
    """A named session element, or an inline expression over the named
    domain (or the sole domain of the session)."""
    if token in session.elements:
        return session.elements[token], session.element_domain[token]
    dn = domain or session.sole_domain()
    if dn not in session.domains:
        raise SessionError("unknown domain %r" % dn)
    return parse_element(token, session.domains[dn].genspec), dn


def _named(session: Session, table: dict, token: str, what: str):
    if token not in table:
        raise SessionError("unknown %s %r" % (what, token))
    return table[token]


def _derivation_lines(deriv) -> list:
    spec = deriv.domain.genspec
    lines = ["degree: %s" % format_k(spec.grading, deriv.degree)]
    for mu in range(spec.nvars):
        lines.append("x%d -> %s" % (mu + 1, render_element(deriv.base_values[mu])))
    for pos in range(spec.ngens):
        lines.append("%s -> %s" % (render_generator(spec, pos),
                                   render_element(deriv.gen_values[pos])))
    return lines


def _morphism_lines(m) -> list:
    spec = m.target.genspec
    lines = []
    for mu, y in enumerate(m.base_images):
        lines.append("x%d -> %s" % (mu + 1, render_element(y)))
    for pos in range(spec.ngens):
        lines.append("%s -> %s" % (render_generator(spec, pos),
                                   render_element(m.gen_images[pos])))
    return lines


# -- command handlers: each returns (exit_code, lines) ----------------------

def cmd_normalize(session, args):
    elem, _ = _resolve_element(session, args.element, args.domain)
    return PASS, [render_element(elem)]


def cmd_invert(session, args):
    elem, _ = _resolve_element(session, args.element, args.domain)
    try:
        inv = elem.invert()
    except NotInvertible as exc:
        raise CommandFailure(["FAIL not invertible: %s" % exc])
    return PASS, [render_element(inv)]


def cmd_pullback(session, args):
    m = _named(session, session.morphisms, args.morphism, "morphism")
    if args.element in session.elements:
        elem = session.elements[args.element]
        if elem.spec != m.target.genspec:
            raise SessionError("element %r does not live over the morphism's target"
                               % args.element)
    else:
        elem = parse_element(args.element, m.target.genspec)
    return PASS, [render_element(m.pullback(elem))]


def cmd_compose(session, args):
    first = _named(session, session.morphisms, args.first, "morphism")
    second = _named(session, session.morphisms, args.second, "morphism")
    composite = compose(first, second, samples=session.samples,
                        seed=session.seed)
    return PASS, _morphism_lines(composite)


def cmd_underlying(session, args):
    m = _named(session, session.morphisms, args.morphism, "morphism")
    return PASS, ["x%d -> %s" % (mu + 1, render_poly(p))
                  for mu, p in enumerate(m.underlying_map())]


def cmd_check_hom(session, args):
    m = _named(session, session.morphisms, args.morphism, "morphism")
    rep = check_homomorphism(m, samples=session.samples, seed=session.seed)
    return (PASS if rep.passed else MATH_FAIL), rep.text().splitlines()


def cmd_verify_atlas(session, args):
    atlas = _named(session, session.atlases, args.atlas, "atlas")
    rep = check_cocycle(atlas, samples=session.samples,
                        seed=session.seed)
    return (PASS if rep.passed else MATH_FAIL), rep.text().splitlines()


def cmd_bracket(session, args):
    d1 = _named(session, session.derivations, args.first, "derivation")
    d2 = _named(session, session.derivations, args.second, "derivation")
    return PASS, _derivation_lines(bracket(d1, d2))


def cmd_apply(session, args):
    d = _named(session, session.derivations, args.derivation, "derivation")
    dn = session.derivation_domain[args.derivation]
    elem, _ = _resolve_element(session, args.element, args.domain or dn)
    return PASS, [render_element(d.apply(elem))]


def cmd_qk_verify(session, args):
    Q = _named(session, session.derivations, args.q, "derivation")
    K = _named(session, session.derivations, args.k, "derivation")
    d = _named(session, session.derivations, args.d, "derivation")
    rep = qk_verify(Q, K, d, max_word=args.max_word,
                    samples=session.samples, seed=session.seed)
    return (PASS if rep.passed else MATH_FAIL), rep.text().splitlines()


def cmd_descent(session, args):
    Q = _named(session, session.derivations, args.q, "derivation")
    K = _named(session, session.derivations, args.k, "derivation")
    d = _named(session, session.derivations, args.d, "derivation")
    elem, _ = _resolve_element(session, args.seed_element,
                               args.domain or session.derivation_domain[args.q])
    try:
        seq = k_sequence(Q, K, d, elem, pmax=args.pmax)
    except NotQClosed as exc:
        raise CommandFailure(["FAIL seed not Q-closed: %s" % exc])
    return PASS, ["O(%d) = %s" % (p, render_element(e))
                  for p, e in enumerate(seq)]


def cmd_check_descent(session, args):
    Q = _named(session, session.derivations, args.q, "derivation")
    d = _named(session, session.derivations, args.d, "derivation")
    seq = _named(session, session.sequences, args.sequence, "sequence")
    rep = check_descent(Q, d, seq)
    return (PASS if rep.passed else MATH_FAIL), rep.text().splitlines()


def cmd_check_exact(session, args):
    Q = _named(session, session.derivations, args.q, "derivation")
    d = _named(session, session.derivations, args.d, "derivation")
    o_seq = _named(session, session.sequences, args.observables, "sequence")
    p_seq = _named(session, session.sequences, args.witnesses, "sequence")
    rep = check_exact(Q, d, o_seq, p_seq)
    return (PASS if rep.passed else MATH_FAIL), rep.text().splitlines()


def cmd_check_monoid(session, args):
    g = session.grading
    lines = ["monoid kind: %s" % g.kind]
    witness = g.cancellation_witness() if g.is_finite else None
    if g.is_finite:
        if witness is None:
            lines.append("cancellative: yes")
        else:
            x, y, z = (g.format_element(e) for e in witness)
            lines.append("non-cancellative: %s+%s = %s+%s, %s != %s"
                         % (x, y, x, z, y, z))
        even = sum(1 for e in g.elements() if g.parity(e) == 0)
        odd = sum(1 for e in g.elements() if g.parity(e) == 1)
        verdict = "equal" if check_parity_cardinality(g) else "unequal"
        lines.append("even part %d, odd part %d: %s" % (even, odd, verdict))
    else:
        lines.append("cancellative: yes (structural)")
        lines.append("infinite monoid: cardinality comparison skipped")
    lines.append("parity homomorphism: validated at construction")
    return PASS, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monograde",
        description="exact computations in monoid-graded commutative algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--session", required=True, help="session JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--truncation", type=int, default=None)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--domain", default=None,
                       help="domain for inline expressions")
        return p

    p = common(sub.add_parser("normalize", help="print the normal form"))
    p.add_argument("element")
    p.set_defaults(handler=cmd_normalize)

    p = common(sub.add_parser("invert", help="multiplicative inverse"))
    p.add_argument("element")
    p.set_defaults(handler=cmd_invert)

    p = common(sub.add_parser("pullback", help="pull an element back along a morphism"))
    p.add_argument("morphism")
    p.add_argument("element")
    p.set_defaults(handler=cmd_pullback)

    p = common(sub.add_parser("compose", help="compose two morphisms (first, then second)"))
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_compose)

    p = common(sub.add_parser("underlying", help="underlying base point map"))
    p.add_argument("morphism")
    p.set_defaults(handler=cmd_underlying)

    p = common(sub.add_parser("check-hom", help="homomorphism property run"))
    p.add_argument("morphism")
    p.set_defaults(handler=cmd_check_hom)

    p = common(sub.add_parser("verify-atlas", help="cocycle consistency of an atlas"))
    p.add_argument("atlas")
    p.set_defaults(handler=cmd_verify_atlas)

    p = common(sub.add_parser("bracket", help="graded commutator of two derivations"))
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_bracket)

    p = common(sub.add_parser("apply", help="apply a derivation to an element"))
    p.add_argument("derivation")
    p.add_argument("element")
    p.set_defaults(handler=cmd_apply)

    p = common(sub.add_parser("qk-verify", help="verify the QK structure relations"))
    p.add_argument("q")
    p.add_argument("k")
    p.add_argument("d")
    p.add_argument("--max-word", type=int, default=4)
    p.set_defaults(handler=cmd_qk_verify)

    p = common(sub.add_parser("descent", help="generate the canonical descent tower"))
    p.add_argument("q")
    p.add_argument("k")
    p.add_argument("d")
    p.add_argument("seed_element", metavar="seed-element")
    p.add_argument("--pmax", type=int, default=None)
    p.set_defaults(handler=cmd_descent)

    p = common(sub.add_parser("check-descent", help="verify the descent equations"))
    p.add_argument("q")
    p.add_argument("d")
    p.add_argument("sequence")
    p.set_defaults(handler=cmd_check_descent)

    p = common(sub.add_parser("check-exact", help="verify exactness witnesses"))
    p.add_argument("q")
    p.add_argument("d")
    p.add_argument("observables")
    p.add_argument("witnesses")
    p.set_defaults(handler=cmd_check_exact)

    p = common(sub.add_parser("check-monoid", help="report on the session's grading monoid"))
    p.set_defaults(handler=cmd_check_monoid)

    return parser


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        session = load_session(args.session, truncation=args.truncation,
                               seed=args.seed, samples=args.samples)
        code, lines = args.handler(session, args)
    except CommandFailure as exc:
        _emit(exc.lines, args.out)
        return MATH_FAIL
    except RangeViolation as exc:
        _emit(["FAIL %s" % exc], args.out)
        return MATH_FAIL
    except (SessionError, ExprError, AlgebraError, GradingError,
            CalculusError, MorphismError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    _emit(lines, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
