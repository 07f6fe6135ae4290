"""Exact coefficient ring Q[sqrt3, gamma, k, 1/k].

Every constant appearing in the operator expansions and action tables
lives here: rationals, powers of the wavenumber ``k`` (negative powers
allowed), the surd ``sqrt3`` (reduced by ``sqrt3 * sqrt3 -> 3``), and the
model-B parameter ``gamma`` kept as a polynomial generator so threshold
statements can be certified algebraically.
"""

from fractions import Fraction

__all__ = ["Coeff"]


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Coeff:
    """Sparse sum of monomials ``q * sqrt3^e3 * gamma^eg * k^ek``.

    ``terms`` maps ``(ek, e3, eg)`` to a nonzero :class:`Fraction`, with
    ``e3`` in ``{0, 1}`` after reduction.  Instances are immutable.

    Values from outside the ring are checked where they enter, by
    :meth:`monomial` and :meth:`rational` (and by type, for int or
    Fraction operands of arithmetic).  The constructor trusts its
    ``terms`` and only drops zero entries, so arithmetic builds each
    result once.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: val for key, val in terms.items() if val} \
            if terms else {}

    # ----- constructors --------------------------------------------------

    @classmethod
    def rational(cls, num, den=1):
        return cls.monomial(_as_fraction(num) / _as_fraction(den))

    @classmethod
    def monomial(cls, value, ek=0, e3=0, eg=0):
        if e3 not in (0, 1):
            raise ValueError("sqrt3 exponent must be reduced to 0 or 1")
        if eg < 0:
            raise ValueError("gamma exponent must be non-negative")
        return cls({(ek, e3, eg): _as_fraction(value)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.rational(1)

    @classmethod
    def sqrt3(cls):
        return cls.monomial(1, e3=1)

    @classmethod
    def gamma(cls):
        return cls.monomial(1, eg=1)

    @classmethod
    def k_power(cls, ek, value=1):
        return cls.monomial(value, ek=ek)

    # ----- ring operations ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.terms == ({(0, 0, 0): other} if other else {})
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Coeff({key: -val for key, val in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Coeff):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Coeff.rational(other)
        merged = dict(self.terms)
        for key, val in other.terms.items():
            merged[key] = merged[key] + val if key in merged else val
        return Coeff(merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Coeff)
                       else Coeff.rational(-other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Coeff):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Coeff({key: val * other for key, val in self.terms.items()})
        out = {}
        for (ek1, e31, eg1), f1 in self.terms.items():
            for (ek2, e32, eg2), f2 in other.terms.items():
                frac = f1 * f2
                e3 = e31 + e32
                if e3 == 2:
                    e3 = 0
                    frac *= 3
                key = (ek1 + ek2, e3, eg1 + eg2)
                out[key] = out[key] + frac if key in out else frac
        return Coeff(out)

    __rmul__ = __mul__

    def reciprocal(self):
        """Inverse of a single monomial with no gamma content."""
        if len(self.terms) != 1:
            raise ArithmeticError("can only invert monomials")
        (ek, e3, eg), frac = next(iter(self.terms.items()))
        if eg != 0:
            raise ArithmeticError("cannot invert a gamma-carrying monomial")
        if e3:
            # 1/(f sqrt3 k^e) = sqrt3 / (3 f k^e)
            return Coeff({(-ek, 1, 0): 1 / (3 * frac)})
        return Coeff({(-ek, 0, 0): 1 / frac})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Coeff.rational(1, other)
        if isinstance(other, Coeff):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        """``n / self``, defined for a gamma-free monomial ``self``."""
        if isinstance(other, (int, Fraction)):
            return self.reciprocal() * other
        return NotImplemented

    # ----- evaluation and rendering ----------------------------------------

    def evalf(self, k, gamma=0.0):
        """Numerical value at given ``k`` and ``gamma``."""
        sqrt3 = 3.0 ** 0.5
        total = 0.0
        for (ek, e3, eg), frac in self.terms.items():
            total += float(frac) * k**ek * (sqrt3 if e3 else 1.0) * gamma**eg
        return total

    @staticmethod
    def _monomial_str(key, frac):
        ek, e3, eg = key
        parts = [str(frac)]
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
        return " + ".join(self._monomial_str(key, self.terms[key])
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
        for (_, _, eg), frac in sorted(self.terms.items(),
                                       key=lambda item: item[0][2]):
            mag = abs(frac)
            body = "gamma" if eg == 1 else (f"gamma^{eg}" if eg else "")
            mag_str = "" if (mag == 1 and body) else str(mag)
            piece = mag_str + ("*" if mag_str and body else "") + body
            if not inner:
                inner.append(piece if frac > 0 else "-" + piece)
            else:
                inner.append(("+" if frac > 0 else "-") + piece)
        tail = Coeff._monomial_str((ek, e3, 0), Fraction(1))
        suffix = tail[2:] if tail.startswith("1*") else ""
        joined = "".join(inner)
        return f"({joined})*{suffix}" if suffix else f"({joined})"

    def __repr__(self):
        return f"Coeff({self.canonical()})"
