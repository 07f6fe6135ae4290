"""Truncated trigonometric-series arithmetic on the 2*pi torus.

:class:`TrigSeries` stores split cosine/sine coefficients of a real
series, which makes even/odd symmetry structural (an even series has an
all-zero sine block).  ``to_modes`` gives the coefficients of
``exp(i*n*z)`` for ``n = -N..N``, the basis in which ``d/dz + i*mu`` is
diagonal, and ``band`` the entries of multiplication there.

Series are value-semantic: coefficient arrays are copied on construction
and marked read-only, and every operation returns a new object.
"""

import numpy as np

__all__ = ["TrigSeries"]


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
    def cosine(cls, j, n_modes):
        """``cos(jz)`` at the given cutoff."""
        if not 0 <= j <= n_modes:
            raise ValueError("harmonic outside cutoff")
        cos = np.zeros(n_modes + 1)
        cos[j] = 1.0
        return cls(cos)

    @classmethod
    def sine(cls, j, n_modes):
        """``sin(jz)`` at the given cutoff."""
        if not 1 <= j <= n_modes:
            raise ValueError("harmonic outside cutoff")
        sin = np.zeros(n_modes)
        sin[j - 1] = 1.0
        return cls(np.zeros(n_modes + 1), sin)

    # ----- basic queries -------------------------------------------------

    @property
    def n_modes(self):
        return self.cos.size - 1

    def is_even(self):
        return not self.sin.any()

    def is_odd(self):
        return not self.cos.any()

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
        # center 2N+1 slice of the degree-2N product
        pa = np.convolve(self.to_modes(), other.to_modes())[n:3 * n + 1]
        # restore exact conjugate symmetry lost to rounding
        pa = 0.5 * (pa + np.conj(pa[::-1]))
        return TrigSeries.from_modes(pa)

    def deriv(self, order=1):
        """Term-wise derivative of the given order (order 0 is identity)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        j, cos, sin = np.arange(1, self.cos.size), self.cos[1:], self.sin
        for _ in range(order):
            cos, sin = j * sin, -j * cos
        return TrigSeries(np.concatenate(
            [self.cos[:1] if order == 0 else [0.0], cos]), sin)

    def inner(self, other):
        """L2 inner product ``(1/2pi) int_0^{2pi} f g dz`` from coefficients."""
        self._check_match(other)
        return float(self.cos[0] * other.cos[0]
                     + 0.5 * (self.cos[1:] @ other.cos[1:]
                              + self.sin @ other.sin))

    def eval(self, z):
        """Pointwise value at ``z`` (scalar or array)."""
        jz = np.multiply.outer(np.asarray(z, dtype=float),
                               np.arange(1, self.n_modes + 1))
        val = self.cos[0] + np.cos(jz) @ self.cos[1:] + np.sin(jz) @ self.sin
        return val if val.ndim else float(val)

    def sup_norm(self):
        """Max of |f| over ``8N+9`` uniform points, dense for the cutoff.

        ``f = c0 + 2 Re p(w)`` with ``p(w) = sum_j m_j w^j``, ``m_j`` the
        ``exp(ijz)`` coefficients and ``w = exp(iz)``, evaluated by Horner's
        rule without a table of cosines and sines.  The rounding of ``w``
        compounds in ``w^j``, so ``j = q b + r`` is split with ``b`` a power
        of 2 near ``sqrt(N)``: ``p = sum_q (w^b)^q P_q(w)``, each ``P_q`` of
        degree ``b`` and ``w^b = exp(i b z)`` exact to rounding (``b z`` is
        exact), so no term carries more than about ``2 sqrt(N)`` rounded
        factors.  The maximum then stays within about 1.5e-15 relative of
        the exact one on the same points at N = 257, where ``eval``'s is
        2e-14 off.  An even series takes the points ``0..4N+4`` alone, as
        ``f(z_{8N+9-m}) = f(z_m)`` on the exact grid ``2 pi m / (8N+9)``,
        whose maximum it meets to 9e-15 at N = 257; the rounded far points
        move the maximum over all 8N+9 of them by up to 2.2e-14.
        """
        n = self.n_modes
        z = np.linspace(0.0, 2.0 * np.pi, 8 * n + 9, endpoint=False)[
            :4 * n + 5 if self.is_even() else None]
        b = 1 << int(np.ceil(np.log2(max(n, 1)) / 2))
        modes = np.zeros(-(-n // b) * b, dtype=complex)
        modes[:n] = 0.5 * (self.cos[1:] - 1j * self.sin)
        w = np.exp(1j * z)
        # row q: P_q(w) = sum_{r=1..b} m_{qb+r} w^r, all q at once
        blocks = np.zeros((modes.size // b, z.size), dtype=complex)
        for column in modes.reshape(-1, b).T[::-1, :, None]:
            blocks += column
            blocks *= w
        p = np.zeros_like(w)
        w_b = np.exp(1j * (b * z))
        for block in blocks[::-1]:
            p *= w_b
            p += block
        return float(np.max(np.abs(self.cos[0] + 2.0 * p.real)))

    def resized(self, n_modes):
        """Pad with zeros or truncate to a new harmonic cutoff."""
        pad = (0, n_modes - min(n_modes, self.n_modes))
        return TrigSeries(np.pad(self.cos[:n_modes + 1], pad),
                          np.pad(self.sin[:n_modes], pad))

    # ----- complex exponential basis --------------------------------------

    def to_modes(self):
        """Coefficients of ``exp(i*n*z)`` for n = -N..N (index 0 is n=-N)."""
        half = 0.5 * (self.cos[1:] - 1j * self.sin)
        return np.concatenate([np.conj(half[::-1]), self.cos[:1], half])

    @classmethod
    def from_modes(cls, modes):
        """Inverse of :meth:`to_modes`; discards the tiny skew part left by
        rounding (input must be conjugate-symmetric up to that)."""
        modes = np.asarray(modes, dtype=complex)
        if modes.ndim != 1 or modes.size % 2 != 1:
            raise ValueError("modes must be a 1-d array of odd length")
        n = modes.size // 2
        pos, neg = modes[n + 1:], modes[:n][::-1]
        return cls(np.concatenate([modes[n:n + 1].real, (pos + neg).real]),
                   -(pos - neg).imag)

    def band(self):
        """Multiplication by this series in the exponential basis, as a
        real band: entry ``j + 2N``, the ``(p, q)`` entry for ``p - q =
        j``, is the coefficient of ``exp(ijz)`` (``-i`` times it for an odd
        series, whose product is ``i`` times the band), zero for ``N < |j|
        <= 2N`` as ``*`` truncates.  Mixed parity raises ``ValueError``."""
        if not (self.is_even() or self.is_odd()):
            raise ValueError("a series with both cosines and sines has no "
                             "real multiplication matrix")
        modes, pad = self.to_modes(), np.zeros(self.n_modes)
        return np.concatenate(
            [pad, modes.real if self.is_even() else modes.imag, pad])
