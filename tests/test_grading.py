"""Grading monoids: parity, cancellativity, group completion, enumeration."""

import pytest
from itertools import product
from random import Random

from monograde import (CyclicProduct, FiniteTable, GradingError, IntPower,
                       KGroupElement, NatPower, Z2Power, k_add, k_element, k_eq,
                       k_parity, parity_of)
from monograde.grading import (EXAMPLE_TABLE3, EXAMPLE_TABLE3_NAMES,
                               EXAMPLE_TABLE3_PARITY, parity_counts)
from monograde.structure import (all_cancellative_tables, check_parity_cardinality,
                                 element_order, k_normalize, parity_functions_of_table)


def table1():
    return FiniteTable(EXAMPLE_TABLE3, EXAMPLE_TABLE3_PARITY,
                       names=EXAMPLE_TABLE3_NAMES)


def test_parity_naturals():
    g = NatPower(1)
    assert parity_of(g, 3) == 1
    assert parity_of(g, 0) == 0
    assert [parity_of(g, k) for k in range(6)] == [0, 1, 0, 1, 0, 1]


def test_parity_table1():
    g = table1()
    assert parity_of(g, 1) == 1   # a
    assert parity_of(g, 2) == 0   # b
    assert parity_of(g, 0) == 0


def test_parity_nat2_is_total_weight():
    g = NatPower(2)
    assert parity_of(g, (1, 1)) == 0
    # homomorphism law, exhaustively on a small range
    rng = range(4)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    i, j = (a, b), (c, d)
                    assert parity_of(g, g.add(i, j)) == (
                        parity_of(g, i) + parity_of(g, j)) % 2


def test_cancellativity():
    assert table1().is_cancellative() is False
    assert table1().cancellation_witness() is not None
    assert Z2Power(2).is_cancellative() is True
    assert NatPower(1).is_cancellative() is True
    assert IntPower(2).is_cancellative() is True


def test_is_cancellative_is_the_absence_of_a_witness():
    specs = (NatPower(2), IntPower(1), CyclicProduct([2, 3]), Z2Power(2),
             FiniteTable(((0, 1), (1, 0)), (0, 1)), table1())
    for g in specs:
        assert g.is_cancellative() == (g.cancellation_witness() is None), g
    assert [g.is_cancellative() for g in specs] == [True] * 5 + [False]


@pytest.mark.parametrize("spec, value, text", [
    (NatPower(2), (1,), "(1,) is not a 2-tuple of naturals"),
    (NatPower(2), (1, 2.5), "(1, 2.5) is not a 2-tuple of naturals"),
    (IntPower(2), (1,), "(1,) is not a 2-tuple of integers"),
    (IntPower(2), (1, "a"), "(1, 'a') is not a 2-tuple of integers"),
    (CyclicProduct([2, 3]), (1,), "(1,) is not a 2-tuple"),
    (CyclicProduct([2, 3]), (1, 2.5), "(1, 2.5) is not a 2-tuple"),
])
def test_check_element_texts(spec, value, text):
    with pytest.raises(GradingError) as exc:
        spec.check_element(value)
    assert str(exc.value) == text


def test_parity_cardinality():
    assert check_parity_cardinality(Z2Power(1)) is True
    assert check_parity_cardinality(CyclicProduct([4])) is True
    # the non-cancellative example splits 2 even vs 1 odd
    assert check_parity_cardinality(table1()) is False
    with pytest.raises(GradingError):
        check_parity_cardinality(NatPower(1))


def test_k_normalize():
    g = NatPower(1)
    assert k_normalize(g, k_element(g, 3, 1)) == k_element(g, 2, 0)
    assert k_normalize(g, k_element(g, 5, 5)) == k_element(g, 0, 0)
    assert k_normalize(g, k_element(g, 0, 2)) == k_element(g, 0, 2)
    g2 = NatPower(2)
    assert k_normalize(g2, k_element(g2, (3, 0), (1, 2))) == \
        k_element(g2, (2, 0), (0, 2))
    with pytest.raises(GradingError):
        k_normalize(Z2Power(1), k_element(Z2Power(1), (1,), (0,)))


def test_k_parity():
    g = NatPower(1)
    assert k_parity(g, k_element(g, 3, 1)) == 0
    assert k_parity(g, k_element(g, 1, 0)) == 1
    assert k_parity(g, k_element(g, 7, 7)) == 0


def test_k_eq_needs_witness_without_cancellation():
    g = table1()
    # 0+a = b+a although 0 != b, so [(0,0)] and [(b,0)] coincide
    assert g.add(0, 1) == g.add(2, 1)
    e1 = k_element(g, 0, 0)
    e2 = k_element(g, 2, 0)
    assert k_eq(g, e1, e2)
    assert k_parity(g, e1) == k_parity(g, e2)


def test_k_addition():
    g = NatPower(1)
    a = k_element(g, 3, 1)
    b = k_element(g, 0, 5)
    assert k_add(g, a, b) == KGroupElement(3, 6)


def test_element_order_and_the_failed_order_formula():
    g = CyclicProduct([4])
    assert element_order(g, 1) == 4
    assert element_order(g, 2) == 2
    assert element_order(g, 0) == 1
    # the order-based bit (order(x)-1) % 2 is not additive on Z_4 ...
    bit = lambda x: (element_order(g, x) - 1) % 2
    assert (bit(1) + bit(1)) % 2 != bit(g.add(1, 1))
    # ... while the implemented mod-2 residue is
    assert (parity_of(g, 1) + parity_of(g, 1)) % 2 == parity_of(g, g.add(1, 1))


def test_element_order_matches_enumeration():
    # a cyclic product's order comes from a formula and a table's from a
    # loop bounded by its size; the oracle steps through the multiples,
    # bounded by enumerating the elements
    specs = [CyclicProduct(orders) for k in (1, 2)
             for orders in product(range(1, 6), repeat=k)]
    specs += [Z2Power(n) for n in range(1, 5)] + [table1()]
    specs += [FiniteTable(t, [0] * len(t)) for t in all_cancellative_tables(4)]
    for g in specs:
        elements = list(g.elements())
        assert sum(parity_counts(g)) == len(elements), g
        for i in elements:
            acc, want = i, None
            for m in range(1, len(elements) + 1):
                if acc == g.zero():
                    want = m
                    break
                acc = g.add(acc, i)
            assert element_order(g, i) == want, (g, i)
    assert [element_order(table1(), i) for i in range(3)] == [1, None, None]


def test_element_order_of_a_large_cyclic_product(monkeypatch):
    # no multiple is stepped through: an order of 10^30 comes back at once
    def refuse(self, i, j):
        raise AssertionError("stepped through the multiples")

    monkeypatch.setattr(CyclicProduct, "add", refuse)
    assert element_order(CyclicProduct([10 ** 30]), 1) == 10 ** 30
    assert element_order(CyclicProduct([10 ** 30]), 4 * 10 ** 27) == 250
    assert element_order(CyclicProduct([10 ** 30, 6]), (0, 4)) == 3
    assert element_order(CyclicProduct([10 ** 6, 6]), (10, 4)) == 3 * 10 ** 5
    assert element_order(Z2Power(40), (0,) * 40) == 1


def test_element_order_does_not_enumerate(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated the monoid")

    monkeypatch.setattr(CyclicProduct, "elements", refuse)
    assert element_order(Z2Power(22), (1,) + (0,) * 21) == 2
    assert element_order(CyclicProduct([6, 10 ** 30]), (2, 0)) == 3


def test_parity_homomorphism_randomized():
    rng = Random(0)
    specs = [NatPower(1), NatPower(2), IntPower(1), IntPower(2),
             Z2Power(2), CyclicProduct([4]), CyclicProduct([2, 3]), table1()]

    def draw(g):
        if isinstance(g, FiniteTable):
            return rng.randrange(g.size)
        if isinstance(g, CyclicProduct):
            return g.check_element(tuple(rng.randrange(q) for q in g.orders))
        lo = 0 if isinstance(g, NatPower) else -10
        return g.check_element(tuple(rng.randint(lo, 10) for _ in range(g.ncomp))
                               if g.ncomp > 1 else rng.randint(lo, 10))

    for g in specs:
        for _ in range(1000):
            i, j = draw(g), draw(g)
            assert g.parity(g.add(i, j)) == (g.parity(i) + g.parity(j)) % 2


def test_induced_parity_well_defined_on_pairs():
    g = NatPower(2)
    rng = Random(1)
    for _ in range(500):
        a1 = tuple(rng.randint(0, 12) for _ in range(2))
        a2 = tuple(rng.randint(0, 12) for _ in range(2))
        shift = tuple(rng.randint(0, 9) for _ in range(2))
        b1, b2 = g.add(a1, shift), g.add(a2, shift)
        e, f = KGroupElement(a1, a2), KGroupElement(b1, b2)
        assert k_eq(g, e, f)
        assert k_parity(g, e) == k_parity(g, f)


def test_completion_of_naturals_is_the_integers():
    g = NatPower(1)
    to_int = lambda e: e.pos - e.neg
    reps = {}
    for a in range(0, 16):
        for b in range(0, 16):
            e = k_normalize(g, k_element(g, a, b))
            z = to_int(e)
            # one canonical representative per integer
            reps.setdefault(z, e)
            assert reps[z] == e
            assert k_parity(g, e) == z % 2
    assert set(reps) == set(range(-15, 16))
    rng = Random(2)
    for _ in range(200):
        e1 = k_element(g, rng.randint(0, 20), rng.randint(0, 20))
        e2 = k_element(g, rng.randint(0, 20), rng.randint(0, 20))
        assert to_int(k_add(g, e1, e2)) == to_int(e1) + to_int(e2)


def test_table_validation():
    with pytest.raises(GradingError):  # not associative
        FiniteTable([[0, 1, 2], [1, 0, 1], [2, 1, 2]], [0, 0, 0])
    with pytest.raises(GradingError):  # identity broken
        FiniteTable([[1, 0], [0, 1]], [0, 0])
    with pytest.raises(GradingError):  # parity not a homomorphism on Z_3
        FiniteTable(((0, 1, 2), (1, 2, 0), (2, 0, 1)), (0, 1, 0))
    with pytest.raises(GradingError):  # non-commutative
        FiniteTable([[0, 1, 2], [1, 2, 0], [2, 1, 0]], [0, 0, 0])


def test_table_parity_texts():
    z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(GradingError, match="^parity of the identity must be 0$"):
        FiniteTable(z3, (1, 0, 0))
    with pytest.raises(GradingError, match="^parity is not additive at 1, 2$"):
        FiniteTable(z3, (0, 1, 0))
    with pytest.raises(GradingError, match="^parity is not additive at a, a$"):
        FiniteTable(z3, (0, 1, 1), names=("0", "a", "b"))


def test_cyclic_construction_does_not_enumerate_parities(monkeypatch):
    # the total weight is a homomorphism by construction, so none of the
    # 256² pairs of elements is checked
    calls = []
    parity = Z2Power.parity

    def spy(self, i):
        calls.append(i)
        return parity(self, i)

    monkeypatch.setattr(Z2Power, "parity", spy)
    Z2Power(8)
    assert len(calls) < 10


def test_mul_table_validation():
    # Z_4 as a table with its ring product: accepted
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    g = FiniteTable(add, [0, 1, 0, 1], mul_table=mul)
    assert g.mul(2, 3) == 2
    broken = [row[:] for row in mul]
    broken[2][3] = broken[3][2] = 1  # kills distributivity
    with pytest.raises(GradingError):
        FiniteTable(add, [0, 1, 0, 1], mul_table=broken)


def test_total_order_laws():
    rng = Random(6)
    for g in (NatPower(2), IntPower(2), table1()):
        if isinstance(g, FiniteTable):
            elems = list(g.elements())
        else:
            elems = [g.check_element((rng.randint(-6, 6) if isinstance(g, IntPower)
                                      else rng.randint(0, 6),
                                      rng.randint(0, 6))) for _ in range(40)]
        keys = [g.sort_key(e) for e in elems]
        for a in keys:
            for b in keys:
                assert (a <= b) or (b <= a)
                if a <= b and b <= a:
                    assert a == b
                for c in keys:
                    if a <= b and b <= c:
                        assert a <= c


def test_product_distributes_over_addition():
    rng = Random(7)
    for g in (NatPower(2), IntPower(1), Z2Power(2), CyclicProduct([4, 3])):
        for _ in range(200):
            if isinstance(g, CyclicProduct):
                draw = lambda: g.check_element(
                    tuple(rng.randrange(q) for q in g.orders))
            else:
                lo = 0 if isinstance(g, NatPower) else -6
                draw = lambda: g.check_element(
                    tuple(rng.randint(lo, 6) for _ in range(g.ncomp))
                    if g.ncomp > 1 else rng.randint(lo, 6))
            a, b, c = draw(), draw(), draw()
            assert g.mul(a, b) == g.mul(b, a)
            assert g.mul(a, g.add(b, c)) == g.add(g.mul(a, b), g.mul(a, c))


def test_enumeration_matches_classical_counts():
    # labeled abelian group structures with identity 0: sum over groups of
    # (n-1)!/|Aut|, a closed form independent of the search
    expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 60}
    for n, count in expected.items():
        tables = list(all_cancellative_tables(n))
        assert len(tables) == count
        for t in tables:
            g = FiniteTable(t, [0] * n)  # re-validates the axioms
            assert g.is_cancellative()


def test_odd_cyclic_groups_have_no_parity():
    g = CyclicProduct([3])
    assert all(parity_of(g, k) == 0 for k in range(3))
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    assert parity_functions_of_table(add) == []


def test_cyclic_parity_counts_match_enumeration():
    specs = [CyclicProduct(orders) for k in (1, 2)
             for orders in product(range(1, 7), repeat=k)]
    specs += [Z2Power(n) for n in range(1, 7)]
    for g in specs:
        bits = [g.parity(e) for e in g.elements()]
        assert parity_counts(g) == (len(bits) - sum(bits), sum(bits)), g


def test_parity_search_on_enumerated_tables():
    # order 4: the cyclic tables and the Klein table all admit parities,
    # and each nontrivial parity splits the monoid evenly
    for t in all_cancellative_tables(4):
        parities = parity_functions_of_table(t)
        assert parities
        for p in parities:
            assert sum(p) * 2 == len(p)


def test_k_group_element_is_a_plain_value():
    a = KGroupElement(1, 2)
    assert a == KGroupElement(1, 2) and hash(a) == hash(KGroupElement(1, 2))
    assert a != KGroupElement(2, 1) and a != (1, 2)
    assert repr(a) == "KGroupElement(pos=1, neg=2)"
    with pytest.raises(AttributeError):
        a.pos = 3
