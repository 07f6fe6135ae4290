"""Exact coefficient ring Q[sqrt3, gamma, k, 1/k].

Every constant appearing in the operator expansions and action tables
lives here: rationals, powers of the wavenumber ``k`` (negative powers
allowed), the surd ``sqrt3`` (reduced by ``sqrt3 * sqrt3 -> 3``), and the
model-B parameter ``gamma`` kept as a polynomial generator so threshold
statements can be certified algebraically.
"""

from fractions import Fraction
from math import gcd

__all__ = ["Coeff"]


def _rational(value):
    """``(num, den)`` of an int or Fraction, else None."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


def _reduced(num, den):
    g = gcd(num, den)
    return num // g, den // g


def _made(terms):
    """A Coeff on nonzero reduced pairs made by the ring's own arithmetic."""
    out = object.__new__(Coeff)
    out.terms = terms
    return out


def _lift(value):
    """An int or Fraction operand as a Coeff, else None."""
    pair = _rational(value)
    return pair and _made({(0, 0, 0): pair} if pair[0] else {})


def _text(num, den):
    """``str`` of the Fraction ``num/den``."""
    return f"{num}/{den}" if den != 1 else str(num)


class Coeff:
    """Sparse sum of monomials ``q * sqrt3^e3 * gamma^eg * k^ek``.

    ``terms`` maps ``(ek, e3, eg)`` to the reduced pair ``(num, den)`` of
    a nonzero rational ``q``, with ``e3`` in ``{0, 1}`` after reduction.
    Instances are immutable.

    Values from outside the ring, int or Fraction, are converted and
    checked where they enter: the constructor, :meth:`monomial`,
    :meth:`rational` and the operands of arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, val in (terms or {}).items():
            pair = _rational(val)
            if pair is None:
                raise TypeError(
                    f"expected int or Fraction, got {type(val).__name__}")
            if pair[0]:
                self.terms[key] = pair

    # ----- constructors --------------------------------------------------

    @classmethod
    def rational(cls, num, den=1):
        return cls.monomial(num) * cls.monomial(den).reciprocal()

    @classmethod
    def monomial(cls, value, ek=0, e3=0, eg=0):
        if e3 not in (0, 1):
            raise ValueError("sqrt3 exponent must be reduced to 0 or 1")
        if eg < 0:
            raise ValueError("gamma exponent must be non-negative")
        return cls({(ek, e3, eg): value})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.monomial(1)

    @classmethod
    def sqrt3(cls):
        return cls.monomial(1, e3=1)

    @classmethod
    def gamma(cls):
        return cls.monomial(1, eg=1)

    @classmethod
    def k_power(cls, ek):
        return cls.monomial(1, ek=ek)

    # ----- ring operations ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Coeff):
            return self.terms == other.terms
        pair = _rational(other)
        if pair is None:
            return NotImplemented
        return self.terms == ({(0, 0, 0): pair} if pair[0] else {})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return _made({key: (-num, den)
                      for key, (num, den) in self.terms.items()})

    def __add__(self, other):
        other = other if isinstance(other, Coeff) else _lift(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for key, (num, den) in other.terms.items():
            if key in merged:
                n1, d1 = merged[key]
                num, den = n1 * den + num * d1, d1 * den
                if not num:
                    del merged[key]
                    continue
                g = gcd(num, den)
                num, den = num // g, den // g
            merged[key] = num, den
        return _made(merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -(other if isinstance(other, Coeff)
                        else Coeff.monomial(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = other if isinstance(other, Coeff) else _lift(other)
        if other is None:
            return NotImplemented
        out = {}
        for (ek1, e31, eg1), (n1, d1) in self.terms.items():
            for (ek2, e32, eg2), (n2, d2) in other.terms.items():
                key = (ek1 + ek2, e31 ^ e32, eg1 + eg2)
                num, den = n1 * n2 * (3 if e31 and e32 else 1), d1 * d2
                if key in out:  # summed unreduced, for one gcd per entry
                    n0, d0 = out[key]
                    num, den = n0 * den + num * d0, d0 * den
                out[key] = num, den
        return _made({key: _reduced(*val) for key, val in out.items()
                      if val[0]})

    __rmul__ = __mul__

    def reciprocal(self):
        """Inverse of a single monomial with no gamma content."""
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if len(self.terms) != 1:
            raise ArithmeticError("can only invert monomials")
        ((ek, e3, eg), (num, den)), = self.terms.items()
        if eg != 0:
            raise ArithmeticError("cannot invert a gamma-carrying monomial")
        # 1/(f sqrt3 k^e) = sqrt3 / (3 f k^e)
        num *= 3 if e3 else 1
        return _made({(-ek, e3, 0): _reduced(den if num > 0 else -den,
                                             abs(num))})

    def __truediv__(self, other):
        other = other if isinstance(other, Coeff) else _lift(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        """``n / self``, defined for a gamma-free monomial ``self``."""
        if _rational(other) is None:
            return NotImplemented
        return self.reciprocal() * other

    def divide_one_minus_gamma(self):
        """Exact quotient by ``(1 - gamma)``, by synthetic division in gamma:
        ``c gamma^i = c - (1 - gamma) c (1 + gamma + ... + gamma^(i-1))``,
        so each ``(ek, e3)`` part leaves its value at ``gamma = 1`` as the
        remainder; raises :class:`ArithmeticError` unless all vanish."""
        quotient = remainder = Coeff()
        for (ek, e3, eg), val in self.terms.items():
            term = _made({(ek, e3, 0): val})
            remainder = remainder + term
            for power in range(eg):
                quotient = quotient - term * Coeff.monomial(1, eg=power)
        if remainder:
            raise ArithmeticError("not divisible by (1 - gamma)")
        return quotient

    # ----- evaluation and rendering ----------------------------------------

    def evalf(self, k, gamma=0.0):
        """Numerical value at given ``k`` and ``gamma``."""
        sqrt3 = 3.0 ** 0.5
        total = 0.0
        for (ek, e3, eg), (num, den) in self.terms.items():
            total += num / den * k**ek * (sqrt3 if e3 else 1.0) * gamma**eg
        return total

    @staticmethod
    def _monomial_str(key, num, den):
        ek, e3, eg = key
        parts = [_text(num, den)]
        if e3:
            parts.append("sqrt3")
        if eg:
            parts.append("gamma" if eg == 1 else f"gamma^{eg}")
        if ek:
            parts.append("k" if ek == 1 else f"k^{ek}")
        return "*".join(parts)

    def canonical(self):
        """Deterministic text form, e.g. ``-7/16*k^4`` or
        ``1/8*k^2 + -1/8*gamma*k^2``."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda key: (key[2], key[1], key[0]))
        return " + ".join(self._monomial_str(key, *self.terms[key])
                          for key in keys)

    def factored(self):
        """Display form with a common k/sqrt3 monomial pulled out of a
        gamma polynomial, e.g. ``(1-gamma)*k^4``; falls back to
        :meth:`canonical` when no common factor exists."""
        if len(self.terms) <= 1:
            return self.canonical()
        eks = {key[0] for key in self.terms}
        e3s = {key[1] for key in self.terms}
        if len(eks) != 1 or len(e3s) != 1:
            return self.canonical()
        ek, e3 = eks.pop(), e3s.pop()
        inner = []
        for (_, _, eg), (num, den) in sorted(self.terms.items(),
                                             key=lambda item: item[0][2]):
            body = "gamma" if eg == 1 else (f"gamma^{eg}" if eg else "")
            mag_str = "" if (abs(num) == den == 1 and body) \
                else _text(abs(num), den)
            piece = mag_str + ("*" if mag_str and body else "") + body
            if not inner:
                inner.append(piece if num > 0 else "-" + piece)
            else:
                inner.append(("+" if num > 0 else "-") + piece)
        tail = Coeff._monomial_str((ek, e3, 0), 1, 1)
        suffix = tail[2:] if tail.startswith("1*") else ""
        joined = "".join(inner)
        return f"({joined})*{suffix}" if suffix else f"({joined})"

    def __repr__(self):
        return f"Coeff({self.canonical()})"
