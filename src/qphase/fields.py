"""Exact arithmetic in the finite fields GF(2^n) labeling the phase-space axes.

Elements are polynomials over Z2, stored as integer bit masks (bit i is the
coefficient of x^i) and reduced modulo a fixed irreducible polynomial.  Each
context fixes a canonical element order -- zero followed by ascending powers
of the generator w, the class of x -- which downstream code relies on for
axis labels, grid indexing and serialization.  ``FieldContext.index_tables``
gives the addition and multiplication tables on those order indices as numpy
arrays, built from the log/antilog tables, for code that works on whole
arrays of elements at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    """Invalid field construction or a field-domain violation."""


class ContextMismatchError(FieldError):
    """Elements of two distinct field contexts were combined."""


# Lowest-weight irreducible modulus per degree.  All are primitive, so the
# class of x generates the multiplicative group and the power labels
# "0", "1", "w", "w2", ... name every element.
DEFAULT_MODULI = {
    1: 0b10,          # x
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}

# Exhaustive field-axiom self-test runs at construction up to this degree.
_SELF_TEST_MAX_DEGREE = 4


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the carry-less division of a by m over Z2."""
    deg_m = m.bit_length() - 1
    while a.bit_length() - 1 >= deg_m and a:
        a ^= m << (a.bit_length() - 1 - deg_m)
    return a


def _poly_mul(a: int, b: int) -> int:
    """Carry-less (XOR) polynomial product over Z2, no reduction."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
    return p


def is_irreducible(modulus: int) -> bool:
    """Trial-divide by every polynomial of degree 1..deg/2."""
    degree = modulus.bit_length() - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for f in range(1 << d, 1 << (d + 1)):
            if _poly_mod(modulus, f) == 0:
                return False
    return True


@dataclass(frozen=True)
class FieldElement:
    """Value in GF(2^n): an n-bit coefficient vector bound to its context.

    Equality is bitwise on the coefficients plus context identity; elements
    of different contexts never combine.
    """

    ctx: "FieldContext"
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < self.ctx.order:
            raise FieldError(f"coefficient vector {self.bits:#x} out of range for GF(2^{self.ctx.n})")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise ContextMismatchError("elements belong to different field contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx._mul_bits(self.bits, other.bits))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; zero has none."""
        if self.bits == 0:
            raise FieldError("zero has no multiplicative inverse")
        return FieldElement(self.ctx, self.ctx._inv_bits(self.bits))

    def trace(self) -> int:
        """Absolute trace to Z2: sum of the n Frobenius conjugates, as 0 or 1."""
        t, v = 0, self.bits
        for _ in range(self.ctx.n):
            t ^= v
            v = self.ctx._mul_bits(v, v)
        return t & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def index(self) -> int:
        """Position in the canonical element order of the context."""
        return self.ctx._index[self.bits]

    @property
    def label(self) -> str:
        return self.ctx.labels[self.index]

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"<{self.label} in GF(2^{self.ctx.n})>"


class FieldContext:
    """GF(2^n) with a fixed irreducible, primitive modulus.

    Immutable after construction and safe to share across threads; all
    arithmetic goes through pure functions backed by log/antilog tables.
    The one write after construction fills a cache of structures derived
    from the context alone; two threads racing on it build equal values.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if not isinstance(n, int) or n < 1:
            raise FieldError(f"field degree must be a positive integer, got {n!r}")
        if modulus is None:
            modulus = DEFAULT_MODULI.get(n)
            if modulus is None:
                raise FieldError(f"no default modulus for degree {n}; pass one explicitly")
        if modulus.bit_length() - 1 != n:
            raise FieldError(f"modulus {bin(modulus)} does not have degree {n}")
        if not is_irreducible(modulus):
            raise FieldError(f"modulus {bin(modulus)} is reducible over Z2")

        self.n = n
        self.order = 1 << n  # number of elements, N = 2^n
        self.modulus = modulus

        # Canonical order: 0, then ascending powers of w = class of x.
        # For n = 1 the multiplicative group is trivial and the order is [0, 1].
        if n == 1:
            element_bits = [0, 1]
        else:
            element_bits = [0]
            v = 1
            for _ in range(self.order - 1):
                element_bits.append(v)
                v = _poly_mod(_poly_mul(v, 0b10), modulus)
            if len(set(element_bits)) != self.order:
                raise FieldError(
                    f"modulus {bin(modulus)} is irreducible but x is not primitive; "
                    "the power labeling needs a primitive modulus"
                )
        self._order_bits = tuple(element_bits)
        self._index = {b: i for i, b in enumerate(element_bits)}

        # log/antilog tables: _exp[k] = w^k, _log[bits] = k.
        self._exp = tuple(element_bits[1:])
        self._log = {b: k for k, b in enumerate(self._exp)}

        self.labels = tuple(self._label_for(i) for i in range(self.order))
        self._parse = {lab: bits for lab, bits in zip(self.labels, element_bits)}
        self._elements = tuple(FieldElement(self, b) for b in element_bits)
        # Structures derived from this context alone (index tables,
        # striations), built once on first use by the code that owns them.
        self._derived: dict[str, object] = {}

        if n <= _SELF_TEST_MAX_DEGREE:
            self._self_test()

    # -- internal integer arithmetic -------------------------------------

    def _mul_bits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        k = self._log[a] + self._log[b]
        return self._exp[k % (self.order - 1)]

    def _inv_bits(self, a: int) -> int:
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def _label_for(self, index: int) -> str:
        if index == 0:
            return "0"
        if index == 1:
            return "1"
        return "w" if index == 2 else f"w{index - 1}"

    def _self_test(self) -> None:
        """Exhaustive axiom check over the index tables: additive self-inverse,
        identity, inverses, commutativity, associativity, distributivity."""
        add, mul = self.index_tables()
        idx = np.arange(self.order)
        if np.any(add[idx, idx] != 0):
            raise FieldError("additive self-inverse failed")
        if np.any(mul[:, 1] != idx):
            raise FieldError("multiplicative identity failed")
        inv = np.array([self._index[self._inv_bits(b)] for b in self._order_bits[1:]], dtype=np.intp)
        if np.any(mul[idx[1:], inv] != 1):
            raise FieldError("multiplicative inverse failed")
        if np.any(mul != mul.T):
            raise FieldError("commutativity failed")
        # [a, b, c] entries: (a*b)*c against a*(b*c), a*(b+c) against a*b + a*c
        if np.any(mul[mul] != mul[:, mul]):
            raise FieldError("associativity failed")
        if np.any(mul[:, add] != add[mul[:, :, None], mul[:, None, :]]):
            raise FieldError("distributivity failed")

    # -- public API -------------------------------------------------------

    def index_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul): add[i, j] and mul[i, j] are the canonical-order indices
        of e_i + e_j and e_i * e_j, as read-only N x N intp arrays.

        Sums come from XOR on the coefficient bits, products from the
        log/antilog tables; built on first use and cached on the context.
        """
        cached = self._derived.get("index_tables")
        if cached is None:
            bits = np.array(self._order_bits, dtype=np.intp)
            index_of = np.empty(self.order, dtype=np.intp)
            index_of[bits] = np.arange(self.order)
            add = index_of[bits[:, None] ^ bits[None, :]]
            logs = np.array([self._log[b] for b in self._order_bits[1:]], dtype=np.intp)
            exp = np.array(self._exp, dtype=np.intp)
            mul = np.zeros_like(add)
            mul[1:, 1:] = index_of[exp[(logs[:, None] + logs[None, :]) % (self.order - 1)]]
            add.setflags(write=False)
            mul.setflags(write=False)
            cached = self._derived["index_tables"] = (add, mul)
        return cached

    def element(self, bits: int) -> FieldElement:
        """Element with the given coefficient bit mask."""
        return FieldElement(self, bits)

    @property
    def zero(self) -> FieldElement:
        return self._elements[0]

    @property
    def one(self) -> FieldElement:
        return self._elements[1]

    @property
    def omega(self) -> FieldElement:
        """The generator w (class of x); requires n >= 2."""
        if self.n < 2:
            raise FieldError("GF(2) has no generator distinct from 1")
        return self._elements[2]

    def elements(self) -> tuple[FieldElement, ...]:
        """All N elements in canonical order 0, 1, w, w2, ...; stable across runs."""
        return self._elements

    def nonzero_elements(self) -> tuple[FieldElement, ...]:
        return self._elements[1:]

    def parse(self, text: str) -> FieldElement:
        """Inverse of the label map: "0", "1", "w", "w2", ... -> element."""
        bits = self._parse.get(text)
        if bits is None:
            raise FieldError(f"unknown element label {text!r} for GF(2^{self.n})")
        return self._elements[self._index[bits]]

    def power(self, k: int) -> FieldElement:
        """w^k; for n = 1 the multiplicative group is trivial, so always 1."""
        if self.n == 1:
            return self.one
        return self._elements[1 + k % (self.order - 1)]

    def __repr__(self) -> str:
        return f"FieldContext(GF(2^{self.n}), modulus={bin(self.modulus)})"


def field_create(n: int, modulus: int | None = None) -> FieldContext:
    """Build GF(2^n) with the default (or given) irreducible modulus."""
    return FieldContext(n, modulus)
