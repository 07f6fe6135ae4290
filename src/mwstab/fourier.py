"""Truncated trigonometric-series arithmetic on the 2*pi torus.

Two coefficient layouts are used throughout the package:

* :class:`TrigSeries` stores split cosine/sine coefficients of a real
  series, which makes even/odd symmetry structural (an even series has an
  all-zero sine block).
* :class:`ComplexFourierVector` stores the coefficients of ``exp(i*n*z)``
  for ``n = -N..N``; the basis in which ``d/dz + i*mu`` is diagonal.

Series are value-semantic: coefficient arrays are copied on construction
and marked read-only, and every operation returns a new object.
"""

import numpy as np

__all__ = ["TrigSeries", "ComplexFourierVector"]


class TrigSeries:
    """Real trigonometric polynomial ``c0 + sum_j c_j cos(jz) + s_j sin(jz)``.

    Parameters
    ----------
    cos_coeffs : array_like, shape (N+1,)
        Cosine coefficients; index 0 is the constant term.
    sin_coeffs : array_like, shape (N,), optional
        Sine coefficients; index j-1 corresponds to ``sin(jz)``.  Defaults
        to zero (an even series).
    """

    __slots__ = ("cos", "sin")

    def __init__(self, cos_coeffs, sin_coeffs=None):
        cos = np.array(cos_coeffs, dtype=float)
        if cos.ndim != 1 or cos.size < 1:
            raise ValueError("cos_coeffs must be a non-empty 1-d array")
        n = cos.size - 1
        if sin_coeffs is None:
            sin = np.zeros(n)
        else:
            sin = np.array(sin_coeffs, dtype=float)
            if sin.shape != (n,):
                raise ValueError(
                    f"sin_coeffs must have length {n}, got {sin.shape}")
        cos.setflags(write=False)
        sin.setflags(write=False)
        self.cos = cos
        self.sin = sin

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_modes):
        return cls(np.zeros(n_modes + 1))

    @classmethod
    def constant(cls, value, n_modes):
        cos = np.zeros(n_modes + 1)
        cos[0] = value
        return cls(cos)

    @classmethod
    def cosine(cls, j, n_modes, amplitude=1.0):
        """``amplitude * cos(jz)`` at the given cutoff."""
        if not 0 <= j <= n_modes:
            raise ValueError("harmonic outside cutoff")
        cos = np.zeros(n_modes + 1)
        cos[j] = amplitude
        return cls(cos)

    @classmethod
    def sine(cls, j, n_modes, amplitude=1.0):
        """``amplitude * sin(jz)`` at the given cutoff."""
        if not 1 <= j <= n_modes:
            raise ValueError("harmonic outside cutoff")
        sin = np.zeros(n_modes)
        sin[j - 1] = amplitude
        return cls(np.zeros(n_modes + 1), sin)

    # ----- basic queries -------------------------------------------------

    @property
    def n_modes(self):
        return self.cos.size - 1

    def is_even(self, tol=0.0):
        return bool(np.all(np.abs(self.sin) <= tol))

    def is_odd(self, tol=0.0):
        return bool(np.all(np.abs(self.cos) <= tol))

    def __repr__(self):
        return f"TrigSeries(n_modes={self.n_modes})"

    # ----- arithmetic ----------------------------------------------------

    def _check_match(self, other):
        if self.n_modes != other.n_modes:
            raise ValueError(
                f"cutoff mismatch: {self.n_modes} vs {other.n_modes}")

    def __add__(self, other):
        if not isinstance(other, TrigSeries):
            return NotImplemented
        self._check_match(other)
        return TrigSeries(self.cos + other.cos, self.sin + other.sin)

    def __sub__(self, other):
        if not isinstance(other, TrigSeries):
            return NotImplemented
        self._check_match(other)
        return TrigSeries(self.cos - other.cos, self.sin - other.sin)

    def __neg__(self):
        return TrigSeries(-self.cos, -self.sin)

    def __mul__(self, other):
        if isinstance(other, TrigSeries):
            return self._product(other)
        if np.isscalar(other):
            return TrigSeries(self.cos * other, self.sin * other)
        return NotImplemented

    def __rmul__(self, other):
        if np.isscalar(other):
            return TrigSeries(self.cos * other, self.sin * other)
        return NotImplemented

    def _product(self, other):
        """Full convolution of the two series, truncated back to the cutoff.

        Exact (up to rounding) whenever the true product degree fits the
        cutoff; higher harmonics are dropped, never aliased.
        """
        self._check_match(other)
        n = self.n_modes
        pa = np.convolve(self.to_modes(), other.to_modes())
        # center 2N+1 slice of the degree-2N product
        pa = pa[n:3 * n + 1]
        # restore exact conjugate symmetry lost to rounding
        pa = 0.5 * (pa + np.conj(pa[::-1]))
        return TrigSeries.from_modes(pa)

    def deriv(self, order=1):
        """Term-wise derivative of the given order (order 0 is identity)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        cos, sin = self.cos, self.sin
        for _ in range(order):
            j = np.arange(1, cos.size)
            new_cos = np.zeros_like(cos)
            new_cos[1:] = j * sin
            new_sin = -j * cos[1:]
            cos, sin = new_cos, new_sin
        return TrigSeries(cos, sin)

    def inner(self, other):
        """L2 inner product ``(1/2pi) int_0^{2pi} f g dz`` from coefficients."""
        self._check_match(other)
        return float(self.cos[0] * other.cos[0]
                     + 0.5 * (self.cos[1:] @ other.cos[1:]
                              + self.sin @ other.sin))

    def eval(self, z):
        """Pointwise value at ``z`` (scalar or array)."""
        z = np.asarray(z, dtype=float)
        j = np.arange(1, self.n_modes + 1)
        jz = np.multiply.outer(z, j)
        val = self.cos[0] + np.cos(jz) @ self.cos[1:] + np.sin(jz) @ self.sin
        return val if val.ndim else float(val)

    def sup_norm(self, n_samples=None):
        """Max of |f| over a uniform grid (dense enough for the cutoff)."""
        if n_samples is None:
            n_samples = 8 * self.n_modes + 9
        z = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        return float(np.max(np.abs(self.eval(z))))

    def translate(self, dz):
        """The series ``z -> f(z + dz)``."""
        modes = self.to_modes()
        n = np.arange(-self.n_modes, self.n_modes + 1)
        return TrigSeries.from_modes(modes * np.exp(1j * n * dz))

    def resized(self, n_modes):
        """Pad with zeros or truncate to a new harmonic cutoff."""
        cos = np.zeros(n_modes + 1)
        sin = np.zeros(n_modes)
        m = min(n_modes, self.n_modes)
        cos[:m + 1] = self.cos[:m + 1]
        sin[:m] = self.sin[:m]
        return TrigSeries(cos, sin)

    # ----- complex exponential basis --------------------------------------

    def to_modes(self):
        """Coefficients of ``exp(i*n*z)`` for n = -N..N (index 0 is n=-N)."""
        n = self.n_modes
        modes = np.zeros(2 * n + 1, dtype=complex)
        modes[n] = self.cos[0]
        half = 0.5 * (self.cos[1:] - 1j * self.sin)
        modes[n + 1:] = half
        modes[:n] = np.conj(half[::-1])
        return modes

    @classmethod
    def from_modes(cls, modes):
        """Inverse of :meth:`to_modes`; discards the tiny skew part left by
        rounding (input must be conjugate-symmetric up to that)."""
        modes = np.asarray(modes, dtype=complex)
        if modes.ndim != 1 or modes.size % 2 != 1:
            raise ValueError("modes must be a 1-d array of odd length")
        n = modes.size // 2
        pos = modes[n + 1:]
        neg = modes[:n][::-1]
        cos = np.empty(n + 1)
        cos[0] = modes[n].real
        cos[1:] = (pos + neg).real
        sin = (pos - neg).imag * -1.0
        return cls(cos, sin)

    def to_complex(self):
        return ComplexFourierVector(self.to_modes())

    def mult_matrix(self):
        """Toeplitz matrix of multiplication by this series in the
        exponential basis: entry ``(p, q)`` is the ``exp(i(p-q)z)``
        coefficient, products truncated to ``|p| <= N`` as in ``*``."""
        n = self.n_modes
        padded = np.concatenate([np.zeros(n), self.to_modes(), np.zeros(n)])
        idx = np.arange(2 * n + 1)
        return padded[idx[:, None] - idx[None, :] + 2 * n]


class ComplexFourierVector:
    """Coefficients of ``exp(i*n*z)``, n = -N..N, as a dense complex array."""

    __slots__ = ("modes",)

    def __init__(self, modes):
        modes = np.array(modes, dtype=complex)
        if modes.ndim != 1 or modes.size % 2 != 1:
            raise ValueError("modes must be a 1-d array of odd length")
        modes.setflags(write=False)
        self.modes = modes

    @property
    def n_modes(self):
        return self.modes.size // 2

    def mode(self, n):
        if abs(n) > self.n_modes:
            raise IndexError("harmonic outside cutoff")
        return complex(self.modes[n + self.n_modes])

    def is_real_series(self, tol=1e-14):
        """True when the vector represents a real function."""
        return bool(np.max(np.abs(self.modes - np.conj(self.modes[::-1])))
                    <= tol)

    def deriv(self, order=1):
        n = np.arange(-self.n_modes, self.n_modes + 1)
        return ComplexFourierVector(self.modes * (1j * n) ** order)

    def inner(self, other):
        """Sesquilinear inner product ``sum_n f_n conj(g_n)``."""
        if self.n_modes != other.n_modes:
            raise ValueError("cutoff mismatch")
        return complex(self.modes @ np.conj(other.modes))

    def to_trig(self):
        return TrigSeries.from_modes(self.modes)

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        n = np.arange(-self.n_modes, self.n_modes + 1)
        val = np.exp(1j * np.multiply.outer(z, n)) @ self.modes
        return val if val.ndim else complex(val)
