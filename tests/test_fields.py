import numpy as np
import pytest

from qphase.fields import (
    ContextMismatchError,
    FieldContext,
    FieldError,
    field_create,
)


def gf(n):
    return field_create(n)


class TestGF4Golden:
    """The four-element field relations, exact."""

    def test_one_plus_omega(self):
        ctx = gf(2)
        one, w, w2 = ctx.one, ctx.omega, ctx.elements()[3]
        assert one + w == w2

    def test_omega_times_omega2(self):
        ctx = gf(2)
        w, w2 = ctx.omega, ctx.elements()[3]
        assert w * w2 == ctx.one

    def test_self_cancellation(self):
        ctx = gf(2)
        for a in ctx.elements():
            assert (a + a).is_zero

    def test_omega_squared_cross_check(self):
        # w*w reduced by x^2+x+1 must agree with 1+w, two independent routes
        ctx = gf(2)
        w = ctx.omega
        assert w * w == ctx.one + w


class TestAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_field_axioms_exhaustive(self, n):
        ctx = gf(n)
        elems = ctx.elements()
        zero, one = ctx.zero, ctx.one
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert (a * zero).is_zero
            assert (a + a).is_zero
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    def test_every_nonzero_invertible_gf8(self):
        ctx = gf(3)
        for a in ctx.nonzero_elements():
            assert a * a.inverse() == ctx.one

    def test_not_arithmetic_mod_n(self):
        # In Z_4 the element 2 has no multiplicative inverse; in GF(4) every
        # nonzero element does.
        assert all((2 * b) % 4 != 1 for b in range(4))
        ctx = gf(2)
        assert all(a * a.inverse() == ctx.one for a in ctx.nonzero_elements())

    def test_inverse_of_one(self):
        ctx = gf(3)
        assert ctx.one.inverse() == ctx.one

    def test_inverse_of_omega_gf4(self):
        ctx = gf(2)
        assert ctx.omega.inverse() == ctx.elements()[3]


class TestIndexTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_match_element_arithmetic(self, n):
        ctx = gf(n)
        add, mul = ctx.index_tables()
        elems = ctx.elements()
        assert add.shape == mul.shape == (ctx.order, ctx.order)
        for a in elems:
            for b in elems:
                assert elems[add[a.index, b.index]] == a + b
                assert elems[mul[a.index, b.index]] == a * b

    def test_tables_are_cached_and_read_only(self):
        ctx = gf(3)
        add, mul = ctx.index_tables()
        assert ctx.index_tables()[1] is mul
        with pytest.raises(ValueError):
            mul[1, 1] = 0

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda add, mul: add.__setitem__((3, 3), 1), "additive self-inverse"),
            (lambda add, mul: mul.__setitem__((5, 1), 4), "multiplicative identity"),
            (lambda add, mul: mul.__setitem__((2, 3), 6), "commutativity"),
        ],
    )
    def test_self_test_rejects_a_corrupted_table(self, corrupt, message):
        ctx = gf(3)
        add, mul = (t.copy() for t in ctx.index_tables())
        corrupt(add, mul)
        ctx._derived["index_tables"] = (add, mul)
        with pytest.raises(FieldError, match=message):
            ctx._self_test()

    def test_self_test_rejects_a_non_associative_table(self):
        # swapping two products keeps the table symmetric with identity and
        # inverses intact, but breaks associativity
        ctx = gf(3)
        add, mul = (t.copy() for t in ctx.index_tables())
        mul[2, 3], mul[2, 4] = mul[2, 4], mul[2, 3]
        mul[3, 2], mul[4, 2] = mul[2, 3], mul[2, 4]
        ctx._derived["index_tables"] = (add, mul)
        with pytest.raises(FieldError, match="associativity"):
            ctx._self_test()


class TestEnumerationAndLabels:
    def test_gf2_order(self):
        ctx = gf(1)
        assert [e.label for e in ctx.elements()] == ["0", "1"]

    def test_gf4_order(self):
        ctx = gf(2)
        assert [e.label for e in ctx.elements()] == ["0", "1", "w", "w2"]

    def test_gf8_distinct(self):
        ctx = gf(3)
        elems = ctx.elements()
        assert len(elems) == 8
        assert len({e.bits for e in elems}) == 8

    def test_power_order_structure(self):
        # enumerate() lists 0 then ascending powers of w; multiplication must
        # therefore act as index addition mod N-1 on the nonzero elements.
        ctx = gf(3)
        elems = ctx.elements()
        for i in range(1, 8):
            for j in range(1, 8):
                expect = elems[1 + ((i - 1) + (j - 1)) % 7]
                assert elems[i] * elems[j] == expect

    def test_label_parse_roundtrip(self):
        for n in (1, 2, 3, 4):
            ctx = gf(n)
            for e in ctx.elements():
                assert ctx.parse(e.label) == e

    def test_parse_unknown_label(self):
        with pytest.raises(FieldError):
            gf(2).parse("w9")

    def test_stable_across_runs(self):
        a, b = gf(3), gf(3)
        assert [e.bits for e in a.elements()] == [e.bits for e in b.elements()]
        assert a.labels == b.labels


class TestTrace:
    def test_gf4_trace_values(self):
        # tr(a) = a + a^2: tr(0)=0, tr(1)=1+1=0, tr(w)=w+w2=1, tr(w2)=w2+w=1
        ctx = gf(2)
        zero, one, w, w2 = ctx.elements()
        assert zero.trace() == 0
        assert one.trace() == 0
        assert w.trace() == 1
        assert w2.trace() == 1

    def test_trace_additive(self):
        ctx = gf(4)
        for a in ctx.elements():
            for b in ctx.elements():
                assert (a + b).trace() == a.trace() ^ b.trace()


class TestErrors:
    def test_zero_degree_rejected(self):
        with pytest.raises(FieldError):
            field_create(0)

    def test_reducible_modulus_rejected(self):
        # x^2 + x = x(x+1)
        with pytest.raises(FieldError):
            FieldContext(2, 0b110)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(FieldError):
            FieldContext(3, 0b111)

    def test_irreducible_but_imprimitive_rejected(self):
        # x^4+x^3+x^2+x+1 is irreducible, but x has order 5, not 15, so the
        # power labeling cannot name every element.
        with pytest.raises(FieldError):
            FieldContext(4, 0b11111)

    def test_context_mixing_rejected(self):
        a = gf(2).one
        b = gf(2).one
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a * b

    def test_zero_has_no_inverse(self):
        with pytest.raises(FieldError):
            gf(2).zero.inverse()

    def test_no_default_modulus_beyond_8(self):
        with pytest.raises(FieldError):
            field_create(9)
