"""Sparse truncated series in (a, mu, lambda) with exact coefficients.

Three layers share one bookkeeping scheme:

* :class:`ScalarSeries` - keys ``(p, q, r, im)``: a-power, mu-power,
  lambda-power, and the imaginary marker (``im = 1`` means the term
  carries one factor of ``i``; ``i*i`` folds into the sign).
* :class:`TrigPolySeries` - scalar keys extended by a harmonic ``(n, par)``
  with ``par = 0`` for cos (``n = 0`` is the constant) and ``1`` for sin.
* :class:`OperatorSeries` - trig keys extended by a derivative order ``s``;
  a term is ``coeff * a^p mu^q lambda^r i^im * trig(nz) * d^s/dz^s`` in
  canonical form (multiplication to the left of the derivative).

Terms whose a- or mu-power exceeds the truncation caps, and ``sin(0z)``
terms, are dropped on insertion; everything kept is exact.  Lambda stays
linear at the operator level and quadratic after the 2x2 determinant.

Terms from outside are validated where they enter (the constructors,
``term``, ``basis``, ``OperatorSeries.add``), not again by arithmetic.
"""

from fractions import Fraction

from .ring import Coeff

__all__ = ["ScalarSeries", "TrigPolySeries", "OperatorSeries",
           "ExactEngineError", "DEFAULT_CAPS", "BASIS_TAGS"]

DEFAULT_CAPS = (2, 2)


class ExactEngineError(ArithmeticError):
    """Internal consistency failure of the exact engine."""


def _coeff(value):
    if isinstance(value, Coeff):
        return value
    if isinstance(value, (int, Fraction)):
        return Coeff.rational(value)
    raise TypeError(f"expected Coeff/int/Fraction, got {type(value).__name__}")


def _times(val, factor):
    """``val * factor``, without multiplying by a unit int or Coeff."""
    if factor == 1:
        return val
    if factor == -1:
        return -val
    return val * factor


class _Series:
    """Shared sparse-dict plumbing; subclasses fix the key layout."""

    __slots__ = ("terms", "caps")
    KEY_LEN = None
    MAX_R = 2

    def __init__(self, caps=DEFAULT_CAPS, terms=None):
        self.caps = tuple(caps)
        self.terms = {}
        if terms:
            for key, val in terms.items():
                self._insert(key, val)

    def _insert(self, key, coeff):
        """Validate a term given from outside the engine, then add it."""
        coeff = _coeff(coeff)
        if coeff.is_zero():
            return
        if len(key) != self.KEY_LEN:
            raise ValueError(f"bad key length for {type(self).__name__}")
        if key[3] not in (0, 1):
            raise ExactEngineError("imaginary marker must be 0 or 1")
        if key[6:] and key[6] > self.MAX_S:
            raise ExactEngineError(
                f"derivative order {key[6]} exceeds limit {self.MAX_S}")
        self._accumulate(key, coeff)

    def _accumulate(self, key, coeff):
        """Add a nonzero ``coeff`` that the engine's own arithmetic made at
        a well-formed ``key``, checking only what arithmetic can trip: the
        lambda limit, negative powers (``scale(dp=-1)``), the caps and
        ``sin(0z)``; a sum that cancels is removed."""
        p, q, r = key[:3]
        if p < 0 or q < 0:
            raise ExactEngineError("negative a- or mu-power")
        if r > self.MAX_R:
            raise ExactEngineError(
                f"lambda power {r} exceeds limit {self.MAX_R}")
        if p > self.caps[0] or q > self.caps[1] or key[4:6] == (0, 1):
            return
        old = self.terms.get(key)
        if old is not None:
            coeff = old + coeff
            if not coeff:
                del self.terms[key]
                return
        self.terms[key] = coeff

    # ----- linear structure ------------------------------------------------

    def _empty(self):
        return type(self)(caps=self.caps)

    def copy(self, caps=None):
        out = type(self)(caps=caps or self.caps)
        for key, val in self.terms.items():
            out._accumulate(key, val)
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = self._empty()
        out.terms = dict(self.terms)
        for key, val in other.terms.items():
            out._accumulate(key, val)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff, dp=0, dq=0, dr=0, dim=0):
        """Multiply by ``coeff * a^dp mu^dq lambda^dr i^dim``."""
        coeff = _coeff(coeff)
        out = self._empty()
        if coeff.is_zero():
            return out
        factors = (coeff, -coeff)
        for key, val in self.terms.items():
            p, q, r, im = key[:4]
            im += dim  # i^im: bit 0 is the marker, bit 1 the sign
            out._accumulate((p + dp, q + dq, r + dr, im & 1) + key[4:],
                            _times(val, factors[im >> 1 & 1]))
        return out

    def _product(self, other, out, harmonics):
        """Accumulate into ``out`` every pair of terms: scalar parts
        multiply, and ``harmonics(tail1, tail2)`` gives the weight and the
        ``(sign, tail)`` pieces that the trig parts of the two keys combine
        into, none of them ``sin(0z)``.  The weight depends on ``tail1``
        alone, so each term of ``self`` is weighted once, and a sign is a
        negation.  A pair past the caps of ``out``, or with no piece, is
        skipped before its coefficients are multiplied."""
        cap_p, cap_q = out.caps
        for (p1, q1, r1, im1, *tail1), c1 in self.terms.items():
            weighted = None
            for (p2, q2, r2, im2, *tail2), c2 in other.terms.items():
                p, q = p1 + p2, q1 + q2
                if p > cap_p or q > cap_q:
                    continue
                weight, pieces = harmonics(tail1, tail2)
                if not pieces:
                    continue
                if weighted is None:
                    weighted = c1 if weight == 1 else c1 * weight
                base = weighted * c2
                flip = im1 + im2 == 2  # i * i = -1
                key = (p, q, r1 + r2, (im1 + im2) & 1)
                for sign, tail in pieces:
                    out._accumulate(key + tail,
                                    base if (sign < 0) == flip else -base)
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.terms)} terms, "
                f"caps={self.caps})")


class ScalarSeries(_Series):
    """Polynomial in (a, mu, lambda, i) with Coeff coefficients."""

    KEY_LEN = 4

    @classmethod
    def term(cls, coeff, p=0, q=0, r=0, im=0, caps=DEFAULT_CAPS):
        out = cls(caps=caps)
        out._insert((p, q, r, im), coeff)
        return out

    @classmethod
    def one(cls, caps=DEFAULT_CAPS):
        return cls.term(Coeff.one(), caps=caps)

    def __mul__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self._product(other, self._empty(), _scalar_product)

    def inverse(self):
        """Series inverse within the truncation caps.

        Requires an invertible constant term (a monomial without gamma);
        valid because the correction is nilpotent under truncation.
        """
        unit = self.terms.get((0, 0, 0, 0))
        if unit is None:
            raise ExactEngineError("cannot invert a series without unit term")
        inv_unit = unit.reciprocal()
        normalized = self.scale(inv_unit)
        correction = normalized - ScalarSeries.one(caps=self.caps)
        result = ScalarSeries.one(caps=self.caps)
        power = ScalarSeries.one(caps=self.caps)
        sign = 1
        for _ in range(self.caps[0] + self.caps[1] + 2):
            power = power * correction
            if power.is_zero():
                break
            sign = -sign
            result = result + power.scale(sign)
        else:
            raise ExactEngineError("series inverse did not terminate")
        return result.scale(inv_unit)

    def coefficient(self, p, q, r=0, im=0):
        return self.terms.get((p, q, r, im), Coeff.zero())

    def lambda_part(self, r):
        """Terms of the given lambda power, with the power stripped."""
        out = self._empty()
        for (p, q, rr, im), val in self.terms.items():
            if rr == r:
                out._accumulate((p, q, 0, im), val)
        return out

    def strip_i(self):
        """Divide by i: requires every term to carry the marker."""
        out = self._empty()
        for (p, q, r, im), val in self.terms.items():
            if im != 1:
                raise ExactEngineError("series is not purely imaginary")
            out._accumulate((p, q, r, 0), val)
        return out

    def require_real(self):
        for key in self.terms:
            if key[3] != 0:
                raise ExactEngineError("series is not real")
        return self

    def mu_divide(self, power):
        """Exact division by mu^power; parity guarantees divisibility."""
        out = self._empty()
        for (p, q, r, im), val in self.terms.items():
            if q < power:
                raise ExactEngineError(
                    f"term mu^{q} not divisible by mu^{power} "
                    "(parity violation)")
            out._accumulate((p, q - power, r, im), val)
        return out

    def evalf(self, a, mu, k, gamma=0.0):
        """Numeric value; defined for series without lambda or i content."""
        total = 0.0
        for (p, q, r, im), val in self.terms.items():
            if r or im:
                raise ExactEngineError("evalf needs a real lambda-free series")
            total += val.evalf(k, gamma) * a**p * mu**q
        return total


def _scalar_product(tail1, tail2):
    """Scalar keys carry no harmonic."""
    return 1, [(1, ())]


BASIS_TAGS = {
    "1": (0, 0), "cos1": (1, 0), "sin1": (1, 1), "cos2": (2, 0),
    "sin2": (2, 1), "cos3": (3, 0), "sin3": (3, 1),
}


_HALF = Fraction(1, 2)


def _trig_product(tail1, tail2):
    """Product-to-sum rules for ``(n, par)`` pairs; returns the weight
    1/2 and ``[(sign, (n, par))]`` without the ``sin(0z)`` pieces, which
    vanish."""
    (n1, par1), (n2, par2) = tail1, tail2
    diff = abs(n1 - n2)
    if par1 == par2:
        # cos cos = (cos d + cos s)/2, sin sin = (cos d - cos s)/2
        return _HALF, [(1, (diff, 0)), (1 - 2 * par1, (n1 + n2, 0))]
    # sin(n1 z) cos(n2 z) = (sin s + sin((n1 - n2) z))/2, and the
    # opposite sign of the second piece for cos(n1 z) sin(n2 z)
    sign = 1 if (par1 == 1) == (n1 >= n2) else -1
    return _HALF, [(s, (n, 1)) for s, n in ((1, n1 + n2), (sign, diff)) if n]


def _pairing(tail1, tail2):
    """Torus average of two harmonics: 1 (constant), 1/2 or no piece."""
    if tail1 != tail2:
        return 1, []
    return (1 if tail1[0] == 0 else _HALF), [(1, ())]


class TrigPolySeries(_Series):
    """Trigonometric polynomial whose coefficients are scalar-series terms."""

    KEY_LEN = 6

    @classmethod
    def term(cls, coeff, p=0, q=0, r=0, im=0, n=0, par=0, caps=DEFAULT_CAPS):
        out = cls(caps=caps)
        out._insert((p, q, r, im, n, par), coeff)
        return out

    @classmethod
    def basis(cls, tag, caps=DEFAULT_CAPS):
        if tag not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {tag!r}")
        n, par = BASIS_TAGS[tag]
        return cls.term(Coeff.one(), n=n, par=par, caps=caps)

    def __mul__(self, other):
        """Product, truncated to the caps of ``self``."""
        if not isinstance(other, TrigPolySeries):
            return NotImplemented
        return self._product(other, self._empty(), _trig_product)

    def deriv(self, order=1):
        """``d^order/dz^order``: ``cos(nz)' = -n sin(nz)``,
        ``sin(nz)' = n cos(nz)``."""
        out = self
        for _ in range(order):
            step = self._empty()
            for key, val in out.terms.items():
                n, par = key[4:]
                if n:
                    step._accumulate(key[:4] + (n, 1 - par),
                                     _times(val, n if par else -n))
            out = step
        return out

    def inner(self, other):
        """Torus-average pairing against a real trig series.

        Matching harmonics pair with weight 1 (constant) or 1/2; valid as
        the L2 inner product because the second factor is real.
        """
        if not isinstance(other, TrigPolySeries):
            raise TypeError("inner expects a TrigPolySeries")
        return self._product(other, ScalarSeries(caps=self.caps), _pairing)

    def harmonic(self, n, par, p=None, q=None, r=0, im=0):
        """Collect the coefficient of one harmonic (optionally filtered)."""
        total = Coeff.zero()
        for (tp, tq, tr, tim, tn, tpar), val in self.terms.items():
            if (tn, tpar) != (n, par) or (tr, tim) != (r, im):
                continue
            if p is not None and tp != p:
                continue
            if q is not None and tq != q:
                continue
            total = total + val
        return total


class OperatorSeries(_Series):
    """Differential operator in canonical ``trig * d^s`` form, s <= 2."""

    KEY_LEN = 7
    MAX_R = 1
    MAX_S = 2

    @classmethod
    def term(cls, coeff, p=0, q=0, r=0, im=0, n=0, par=0, s=0,
             caps=DEFAULT_CAPS):
        out = cls(caps=caps)
        out._insert((p, q, r, im, n, par, s), coeff)
        return out

    def add(self, func, s=0):
        """In place: add ``func * d^s`` for a trig polynomial ``func``."""
        for key, val in func.terms.items():
            self._insert(key + (s,), val)

    def multiplier(self, s):
        """The trig polynomial that multiplies ``d^s``."""
        out = TrigPolySeries(caps=self.caps)
        for key, val in self.terms.items():
            if key[6] == s:
                out._accumulate(key[:6], val)
        return out

    def commutator_z(self):
        """Commutator with multiplication by z: ``[f d^s, z] = s f d^(s-1)``.

        Well defined on the torus even though z itself is not periodic.
        """
        out = self._empty()
        for (p, q, r, im, n, par, s), val in self.terms.items():
            if s == 0:
                continue
            out._accumulate((p, q, r, im, n, par, s - 1), _times(val, s))
        return out

    def apply(self, func):
        """Apply the operator to a derivative-free trig polynomial, or to
        the basis function a ``BASIS_TAGS`` name stands for: the sum over
        ``s`` of the order-``s`` multiplier times ``func.deriv(s)``."""
        if isinstance(func, str):
            func = TrigPolySeries.basis(func, caps=self.caps)
        out = TrigPolySeries(caps=self.caps)
        for s in range(self.MAX_S + 1):
            # func.deriv(s), usually the shorter, first: halved once a term
            func.deriv(s)._product(self.multiplier(s), out, _trig_product)
        return out
