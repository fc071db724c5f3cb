"""Orthosymplectic Lie superalgebra structure data and its polynomial actions.

The ambient algebra is gl(m|2n) spanned by matrix units E(i,j), 1 <= i,j <=
m+2n, with parity even when i and j are on the same side of the m|2n split.
osp(m|2n) sits inside as the span of explicit two-term combinations of
matrix units; ``osp_basis`` returns those spanning sets (whole algebra, even
part, odd part, Cartan, positive part, even positive part) for both even and
odd m.

Two families of actions on supercommutative polynomials are provided, both
"swapped" variants of the canonical one:

* family A on C[x_1..x_m; t_1..t_2n], where multiplication by x_i and
  d/dx_i are exchanged (with a sign) for i in 1..r;
* family A' on C[x_1..x_2n; t_1..t_m], where the exchange happens for the
  bosonic indices in a chosen subset T of 1..2n.

``rep_matrix_unit`` realizes a single E(i,j) as a SuperOperator; the induced
map on osp is a representation, which the test-suite verifies exactly
through the superbracket identity.  ``k_degree`` gives the integer grading
each family preserves, ``delta_eta`` the pair of quadratic operators whose
kernel/image decompose each graded piece, and ``weight_of`` the simultaneous
Cartan eigenvalue vector in epsilon coordinates.

Weights are stored as epsilon coordinates (one rational per Cartan basis
element).  Rendering in terms of fundamental weights is best-effort via the
declared conversion in ``weight_to_fundamental``; epsilon coordinates are
the authoritative form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .superpoly import (
    DER_T,
    DER_X,
    MUL_T,
    MUL_X,
    SuperOperator,
    SuperPolynomial,
    VariableSignature,
)

EVEN, ODD = 0, 1


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class RepConfig:
    """One representation: algebra size (m_parity, m1, n) and swap data.

    family "A":  acts on m bosonic / 2n fermionic variables, swap range r
                 with 0 <= r <= m1.
    family "Aprime": acts on 2n bosonic / m fermionic variables, swap set T
                 a subset of {1..2n}.
    """

    m_parity: str
    m1: int
    n: int
    family: str
    r: int | None = None
    T: frozenset[int] | None = field(default=None)

    def __post_init__(self):
        if self.m_parity not in ("even", "odd"):
            raise ValueError("m_parity must be 'even' or 'odd'")
        if self.m1 < 0 or self.n < 0:
            raise ValueError("m1 and n must be nonnegative")
        if self.family == "A":
            if self.r is None or not 0 <= self.r <= self.m1:
                raise ValueError("family A needs 0 <= r <= m1")
            if self.T is not None:
                raise ValueError("family A takes no swap set T")
        elif self.family == "Aprime":
            if self.T is None:
                object.__setattr__(self, "T", frozenset())
            if self.r is not None:
                raise ValueError("family Aprime takes no swap range r")
            bad = [i for i in self.T if not 1 <= i <= 2 * self.n]
            if bad:
                raise ValueError(f"T entries outside 1..2n: {bad}")
            object.__setattr__(self, "T", frozenset(self.T))
        else:
            raise ValueError("family must be 'A' or 'Aprime'")

    @property
    def m(self) -> int:
        return 2 * self.m1 + (1 if self.m_parity == "odd" else 0)

    @property
    def gl_size(self) -> int:
        return self.m + 2 * self.n

    @property
    def signature(self) -> VariableSignature:
        if self.family == "A":
            return VariableSignature(self.m, 2 * self.n)
        return VariableSignature(2 * self.n, self.m)

    def describe(self) -> str:
        if self.family == "A":
            return f"A(m_parity={self.m_parity},m1={self.m1},n={self.n},r={self.r})"
        ts = ",".join(str(i) for i in sorted(self.T))
        return f"Aprime(m_parity={self.m_parity},m1={self.m1},n={self.n},T={{{ts}}})"

    def to_dict(self) -> dict:
        d = {
            "m_parity": self.m_parity,
            "m1": self.m1,
            "n": self.n,
            "family": self.family,
        }
        if self.family == "A":
            d["r"] = self.r
        else:
            d["T"] = sorted(self.T)
        return d


def config_a(m1, n, r, m_parity="even") -> RepConfig:
    return RepConfig(m_parity, m1, n, "A", r=r)


def config_aprime(m1, n, T, m_parity="even") -> RepConfig:
    return RepConfig(m_parity, m1, n, "Aprime", T=frozenset(T))


# ---------------------------------------------------------------------------
# matrix elements and the superbracket


class MatrixElement:
    """Formal rational combination of matrix units of gl(m|2n)."""

    __slots__ = ("size", "m", "terms", "parity")

    def __init__(self, size: int, m: int, terms: dict, parity=None):
        self.size = size
        self.m = m
        self.terms = {ij: Fraction(c) for ij, c in terms.items() if c != 0}
        parities = {self.unit_parity(i, j) for i, j in self.terms}
        if len(parities) > 1:
            raise ValueError("matrix element mixes parities")
        if parity is None:
            parity = parities.pop() if parities else EVEN
        self.parity = parity

    def unit_parity(self, i: int, j: int) -> int:
        return EVEN if (i <= self.m) == (j <= self.m) else ODD

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        if (self.size, self.m) != (other.size, other.m):
            raise ValueError("size mismatch")
        out = dict(self.terms)
        for ij, c in other.terms.items():
            s = out.get(ij, 0) + c
            if s:
                out[ij] = s
            else:
                out.pop(ij, None)
        parity = None
        if self.terms and other.terms:
            if self.parity != other.parity and out:
                raise ValueError("cannot add elements of different parity")
            parity = self.parity
        return MatrixElement(self.size, self.m, out, parity)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "MatrixElement":
        return MatrixElement(
            self.size, self.m, {ij: c * v for ij, v in self.terms.items()}, self.parity
        )

    def __eq__(self, other):
        return (
            isinstance(other, MatrixElement)
            and (self.size, self.m) == (other.size, other.m)
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            if c == 1:
                parts.append(f"+E({i},{j})" if parts else f"E({i},{j})")
            elif c == -1:
                parts.append(f"-E({i},{j})")
            else:
                parts.append(f"{'+' if c > 0 and parts else ''}{c}*E({i},{j})")
        return "".join(parts)

    def __repr__(self):
        return f"MatrixElement({self})"


def unit(cfg_or_size, i: int, j: int, m: int | None = None) -> MatrixElement:
    """Matrix unit E(i,j).  Accepts a RepConfig or (size, i, j, m)."""
    if isinstance(cfg_or_size, RepConfig):
        size, m = cfg_or_size.gl_size, cfg_or_size.m
    else:
        size = cfg_or_size
        if m is None:
            raise ValueError("need the even-block size m")
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"index ({i},{j}) outside 1..{size}")
    return MatrixElement(size, m, {(i, j): Fraction(1)})


def superbracket(u: MatrixElement, v: MatrixElement) -> MatrixElement:
    """[u, v] = uv - (-1)^{|u||v|} vu on parity-homogeneous elements."""
    if (u.size, u.m) != (v.size, v.m):
        raise ValueError("size mismatch")
    sign = -1 if (u.parity and v.parity) else 1
    out: dict = {}

    def add(i, j, c):
        s = out.get((i, j), 0) + c
        if s:
            out[(i, j)] = s
        else:
            out.pop((i, j), None)

    for (a, b), cu in u.terms.items():
        for (c, d), cv in v.terms.items():
            if b == c:
                add(a, d, cu * cv)
            if d == a:
                add(c, b, -sign * cu * cv)
    parity = (u.parity + v.parity) & 1 if out else None
    return MatrixElement(u.size, u.m, out, parity)


# ---------------------------------------------------------------------------
# the swapped polynomial actions


def rep_matrix_unit(cfg: RepConfig, i: int, j: int) -> SuperOperator:
    """Operator realizing E(i,j) in the given configuration."""
    m, size = cfg.m, cfg.gl_size
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"index ({i},{j}) outside 1..{size}")
    sig = cfg.signature
    parity = ODD if (i <= m) != (j <= m) else EVEN

    def op(coeff, chain):
        return SuperOperator(sig, [(Fraction(coeff), chain)], parity)

    if cfg.family == "A":
        r = cfg.r
        swapped = lambda a: a <= r
        if i <= m and j <= m:
            if swapped(i) and swapped(j):
                out = op(-1, ((MUL_X, j - 1), (DER_X, i - 1)))
                if i == j:
                    out = out + op(-1, ())
                return out
            if swapped(i):
                return op(1, ((DER_X, i - 1), (DER_X, j - 1)))
            if swapped(j):
                return op(-1, ((MUL_X, i - 1), (MUL_X, j - 1)))
            return op(1, ((MUL_X, i - 1), (DER_X, j - 1)))
        if i <= m < j:
            p = j - m
            if swapped(i):
                return op(1, ((DER_X, i - 1), (DER_T, p - 1)))
            return op(1, ((MUL_X, i - 1), (DER_T, p - 1)))
        if j <= m < i:
            p = i - m
            if swapped(j):
                return op(-1, ((MUL_T, p - 1), (MUL_X, j - 1)))
            return op(1, ((MUL_T, p - 1), (DER_X, j - 1)))
        p, q = i - m, j - m
        return op(1, ((MUL_T, p - 1), (DER_T, q - 1)))

    # family Aprime: bosonic variables carry the symplectic indices.
    T = cfg.T
    if i <= m and j <= m:
        return op(1, ((MUL_T, i - 1), (DER_T, j - 1)))
    if i > m and j > m:
        a, b = i - m, j - m
        if a in T and b in T:
            out = op(-1, ((MUL_X, b - 1), (DER_X, a - 1)))
            if a == b:
                out = out + op(-1, ())
            return out
        if a in T:
            return op(1, ((DER_X, a - 1), (DER_X, b - 1)))
        if b in T:
            return op(-1, ((MUL_X, a - 1), (MUL_X, b - 1)))
        return op(1, ((MUL_X, a - 1), (DER_X, b - 1)))
    if i > m:  # E(m+a, p)
        a, p = i - m, j
        if a in T:
            return op(1, ((DER_X, a - 1), (DER_T, p - 1)))
        return op(1, ((MUL_X, a - 1), (DER_T, p - 1)))
    # E(p, m+b)
    p, b = i, j - m
    if b in T:
        return op(-1, ((MUL_T, p - 1), (MUL_X, b - 1)))
    return op(1, ((MUL_T, p - 1), (DER_X, b - 1)))


def rep_element(cfg: RepConfig, elem: MatrixElement) -> SuperOperator:
    """Linear extension of rep_matrix_unit to a matrix element."""
    out = SuperOperator.zero(cfg.signature)
    for (i, j), c in elem.terms.items():
        out = out + rep_matrix_unit(cfg, i, j).scale(c)
    return out


def k_degree(cfg: RepConfig, mono) -> int:
    """Integer grading preserved by the action.

    Family A: fermionic count minus swapped bosonic degrees plus the rest.
    Family A': fermionic count plus unswapped bosonic degrees minus swapped.
    """
    bos, mask = mono.bos, mono.mask
    t = bin(mask).count("1")
    if cfg.family == "A":
        r = cfg.r
        return t - sum(bos[:r]) + sum(bos[r:])
    total = t
    for idx, e in enumerate(bos, start=1):
        total += -e if idx in cfg.T else e
    return total


def variable_k_weights(cfg: RepConfig) -> tuple[list[int], int]:
    """Per-bosonic-variable contribution to k_degree, and the fermionic one."""
    if cfg.family == "A":
        return [(-1 if i <= cfg.r else 1) for i in range(1, cfg.m + 1)], 1
    return [(-1 if i in cfg.T else 1) for i in range(1, 2 * cfg.n + 1)], 1


# ---------------------------------------------------------------------------
# spanning sets


def _pm(cfg, spec):
    """Build sum_k coeff_k E(i_k, j_k) from ((coeff, i, j), ...)."""
    out = None
    for c, i, j in spec:
        e = unit(cfg, i, j).scale(c)
        out = e if out is None else out + e
    return out


def osp_basis(cfg: RepConfig, part: str = "all") -> list[MatrixElement]:
    """Spanning set of the requested part of osp(m|2n).

    part: "all", "even", "odd", "cartan", "positive", "positive_even".
    """
    if cfg.m_parity == "even":
        return _osp_basis_even(cfg, part)
    return _osp_basis_odd(cfg, part)


def _osp_basis_even(cfg, part):
    m1, n = cfg.m1, cfg.n
    m = 2 * m1
    so_even, sp_even, odd = [], [], []
    for i in range(1, m1 + 1):
        for j in range(1, m1 + 1):
            so_even.append(_pm(cfg, ((1, i, j), (-1, m1 + j, m1 + i))))
    for i in range(1, m1 + 1):
        for j in range(i + 1, m1 + 1):
            so_even.append(_pm(cfg, ((1, i, m1 + j), (-1, j, m1 + i))))
            so_even.append(_pm(cfg, ((1, m1 + i, j), (-1, m1 + j, i))))
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            sp_even.append(_pm(cfg, ((1, m + p, m + q), (-1, m + n + q, m + n + p))))
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            sp_even.append(_pm(cfg, ((1, m + p, m + n + q), (1, m + q, m + n + p))))
            sp_even.append(_pm(cfg, ((1, m + n + p, m + q), (1, m + n + q, m + p))))
    for i in range(1, m1 + 1):
        for p in range(1, n + 1):
            odd.append(_pm(cfg, ((1, i, m + p), (-1, m + n + p, m1 + i))))
            odd.append(_pm(cfg, ((1, i, m + n + p), (1, m + p, m1 + i))))
            odd.append(_pm(cfg, ((1, m1 + i, m + p), (-1, m + n + p, i))))
            odd.append(_pm(cfg, ((1, m1 + i, m + n + p), (1, m + p, i))))
    if part == "even":
        return so_even + sp_even
    if part == "odd":
        return odd
    if part == "all":
        return so_even + sp_even + odd
    if part == "cartan":
        h = [_pm(cfg, ((1, i, i), (-1, m1 + i, m1 + i))) for i in range(1, m1 + 1)]
        h += [
            _pm(cfg, ((1, m + j, m + j), (-1, m + n + j, m + n + j)))
            for j in range(1, n + 1)
        ]
        return h
    if part in ("positive", "positive_even"):
        pos = []
        for i in range(1, m1 + 1):
            for j in range(i + 1, m1 + 1):
                pos.append(_pm(cfg, ((1, i, j), (-1, m1 + j, m1 + i))))
                pos.append(_pm(cfg, ((1, i, m1 + j), (-1, j, m1 + i))))
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                pos.append(_pm(cfg, ((1, m + p, m + q), (-1, m + n + q, m + n + p))))
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                pos.append(_pm(cfg, ((1, m + p, m + n + q), (1, m + q, m + n + p))))
        if part == "positive":
            for i in range(1, m1 + 1):
                for q in range(1, n + 1):
                    pos.append(_pm(cfg, ((1, i, m + q), (-1, m + n + q, m1 + i))))
                    pos.append(_pm(cfg, ((1, i, m + n + q), (1, m + q, m1 + i))))
        return pos
    raise ValueError(f"unknown part {part!r}")


def _osp_basis_odd(cfg, part):
    m1, n = cfg.m1, cfg.n
    m = 2 * m1 + 1
    u = m  # index of the unpaired row/column 2*m1+1
    so_even, sp_even, odd = [], [], []
    for i in range(1, m1 + 1):
        for j in range(1, m1 + 1):
            so_even.append(_pm(cfg, ((1, i, j), (-1, m1 + j, m1 + i))))
    for i in range(1, m1 + 1):
        for j in range(i + 1, m1 + 1):
            so_even.append(_pm(cfg, ((1, i, m1 + j), (-1, j, m1 + i))))
            so_even.append(_pm(cfg, ((1, m1 + i, j), (-1, m1 + j, i))))
    for i in range(1, m1 + 1):
        so_even.append(_pm(cfg, ((1, i, u), (-1, u, m1 + i))))
        so_even.append(_pm(cfg, ((1, m1 + i, u), (-1, u, i))))
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            sp_even.append(_pm(cfg, ((1, m + p, m + q), (-1, m + n + q, m + n + p))))
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            sp_even.append(_pm(cfg, ((1, m + p, m + n + q), (1, m + q, m + n + p))))
            sp_even.append(_pm(cfg, ((1, m + n + p, m + q), (1, m + n + q, m + p))))
    for i in range(1, m1 + 1):
        for p in range(1, n + 1):
            odd.append(_pm(cfg, ((1, i, m + p), (-1, m + n + p, m1 + i))))
            odd.append(_pm(cfg, ((1, i, m + n + p), (1, m + p, m1 + i))))
            odd.append(_pm(cfg, ((1, m1 + i, m + p), (-1, m + n + p, i))))
            odd.append(_pm(cfg, ((1, m1 + i, m + n + p), (1, m + p, i))))
    for p in range(1, n + 1):
        odd.append(_pm(cfg, ((1, u, m + p), (-1, m + n + p, u))))
        odd.append(_pm(cfg, ((1, u, m + n + p), (1, m + p, u))))
    if part == "even":
        return so_even + sp_even
    if part == "odd":
        return odd
    if part == "all":
        return so_even + sp_even + odd
    if part == "cartan":
        h = [_pm(cfg, ((1, i, i), (-1, m1 + i, m1 + i))) for i in range(1, m1 + 1)]
        h += [
            _pm(cfg, ((1, m + j, m + j), (-1, m + n + j, m + n + j)))
            for j in range(1, n + 1)
        ]
        return h
    if part in ("positive", "positive_even"):
        pos = []
        for i in range(1, m1 + 1):
            for j in range(i + 1, m1 + 1):
                pos.append(_pm(cfg, ((1, i, j), (-1, m1 + j, m1 + i))))
                pos.append(_pm(cfg, ((1, i, m1 + j), (-1, j, m1 + i))))
        for i in range(1, m1 + 1):
            pos.append(_pm(cfg, ((1, i, u), (-1, u, m1 + i))))
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                pos.append(_pm(cfg, ((1, m + p, m + q), (-1, m + n + q, m + n + p))))
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                pos.append(_pm(cfg, ((1, m + p, m + n + q), (1, m + q, m + n + p))))
        if part == "positive":
            for i in range(1, m1 + 1):
                for q in range(1, n + 1):
                    pos.append(_pm(cfg, ((1, i, m + q), (-1, m + n + q, m1 + i))))
                    pos.append(_pm(cfg, ((1, i, m + n + q), (1, m + q, m1 + i))))
            for p in range(1, n + 1):
                pos.append(_pm(cfg, ((1, u, m + n + p), (1, m + p, u))))
        return pos
    raise ValueError(f"unknown part {part!r}")


# ---------------------------------------------------------------------------
# weights


class Weight(NamedTuple):
    """Cartan eigenvalues in epsilon coordinates: (orthogonal, symplectic)."""

    eps_so: tuple[Fraction, ...]
    eps_sp: tuple[Fraction, ...]

    def render(self) -> str:
        so = ",".join(str(c) for c in self.eps_so)
        sp = ",".join(str(c) for c in self.eps_sp)
        return f"({so} | {sp})"


def weight_of(cfg: RepConfig, p: SuperPolynomial) -> Weight | None:
    """Simultaneous Cartan eigenvalue vector of p, or None if p is not one."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no weight")
    eigs = []
    for h in osp_basis(cfg, "cartan"):
        op = rep_element(cfg, h)
        image = op(p)
        # p is an eigenvector iff image == lam * p for one rational lam.
        mono, coeff = next(iter(p.terms.items()))
        lam = image.terms.get(mono, Fraction(0)) / coeff
        if image != p.scale(lam):
            return None
        eigs.append(lam)
    return Weight(tuple(eigs[: cfg.m1]), tuple(eigs[cfg.m1 :]))


def monomial_weight(cfg: RepConfig, mono) -> Weight:
    """Weight of a single monomial (the Cartan acts diagonally on monomials)."""
    bos, mask = mono.bos, mono.mask

    def bos_eig(a: int) -> Fraction:
        # eigenvalue of E(a,a) on the monomial, by variable role
        if cfg.family == "A":
            swapped = a <= cfg.r if a <= cfg.m else False
            if a <= cfg.m:
                e = bos[a - 1]
                return Fraction(-e - 1) if swapped else Fraction(e)
            pbit = 1 << (a - cfg.m - 1)
            return Fraction(1 if mask & pbit else 0)
        if a <= cfg.m:
            pbit = 1 << (a - 1)
            return Fraction(1 if mask & pbit else 0)
        idx = a - cfg.m
        e = bos[idx - 1]
        return Fraction(-e - 1) if idx in cfg.T else Fraction(e)

    m1, n, m = cfg.m1, cfg.n, cfg.m
    so = tuple(bos_eig(i) - bos_eig(m1 + i) for i in range(1, m1 + 1))
    sp = tuple(bos_eig(m + j) - bos_eig(m + n + j) for j in range(1, n + 1))
    return Weight(so, sp)


def weight_to_fundamental(cfg: RepConfig, w: Weight) -> str:
    """Best-effort rendering in fundamental-weight coordinates.

    Declared conversion: symplectic nu_j = e'_1+..+e'_j; orthogonal even
    lam_i = e_1+..+e_i for i <= m1-2 with the two half-sum spin weights at
    the end; orthogonal odd lam_i = partial sums with lam_m1 halved.  When
    the solve needs non-integer multiples they are printed as fractions.
    """
    m1 = cfg.m1
    cols: list[list[Fraction]] = []
    if cfg.m_parity == "even":
        for i in range(1, m1 + 1):
            col = [Fraction(1)] * i + [Fraction(0)] * (m1 - i)
            cols.append(col)
        if m1 >= 2:
            cols[m1 - 2] = [Fraction(1, 2)] * (m1 - 1) + [Fraction(-1, 2)]
        if m1 >= 1:
            cols[m1 - 1] = [Fraction(1, 2)] * m1
    else:
        for i in range(1, m1 + 1):
            col = [Fraction(1)] * i + [Fraction(0)] * (m1 - i)
            cols.append(col)
        if m1 >= 1:
            cols[m1 - 1] = [Fraction(1, 2)] * m1
    coeffs = _dense_solve(cols, list(w.eps_so))
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c:
            parts.append(_fmt_coeff(c, f"lam{i}"))
    # nu coefficients: differences of consecutive symplectic coordinates
    sp = list(w.eps_sp)
    for j in range(len(sp)):
        nxt = sp[j + 1] if j + 1 < len(sp) else Fraction(0)
        c = sp[j] - nxt
        if c:
            parts.append(_fmt_coeff(c, f"nu{j + 1}"))
    return " + ".join(parts) if parts else "0"


def _dense_solve(cols, target):
    """Solve sum_c coeffs[c] * cols[c] = target by rational elimination."""
    m = len(target)
    if m == 0:
        return []
    aug = [[cols[c][row] for c in range(m)] + [target[row]] for row in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError(f"singular system: no pivot in column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


def _fmt_coeff(c: Fraction, name: str) -> str:
    if c == 1:
        return name
    if c == -1:
        return f"-{name}"
    return f"{c}*{name}"


# ---------------------------------------------------------------------------
# the quadratic pair and swap-set markers


def delta_eta(cfg: RepConfig) -> tuple[SuperOperator, SuperOperator]:
    """The grading-lowering operator and its raising partner.

    Family A, even m: the swapped bosonic pairs contribute -x_i d/dx_{m1+i}
    to the lowering operator and x_{m1+i} d/dx_i to the raising one; the
    unswapped pairs contribute second derivatives / products; fermionic
    pairs (t_j, t_{n+j}) always contribute derivative pairs / products.
    Family A, odd m: same shape with every paired term weighted by 2 and the
    unpaired variable contributing its square (of derivative / of itself);
    the fermionic block is weighted by 2.
    Family A': defined for the normal form T = {1..n}; bosonic pairs are
    (x_i, x_{n+i}) all swapped, fermionic pairs (t_j, t_{m1+j}).
    """
    sig = cfg.signature
    m1, n = cfg.m1, cfg.n
    d_atoms, e_atoms = [], []
    if cfg.family == "A":
        r = cfg.r
        w = 2 if cfg.m_parity == "odd" else 1
        for i in range(1, m1 + 1):
            xi, xmi = i - 1, m1 + i - 1
            if i <= r:
                d_atoms.append((Fraction(-w), ((MUL_X, xi), (DER_X, xmi))))
                e_atoms.append((Fraction(w), ((MUL_X, xmi), (DER_X, xi))))
            else:
                d_atoms.append((Fraction(w), ((DER_X, xi), (DER_X, xmi))))
                e_atoms.append((Fraction(w), ((MUL_X, xi), (MUL_X, xmi))))
        if cfg.m_parity == "odd":
            xu = 2 * m1
            d_atoms.append((Fraction(1), ((DER_X, xu), (DER_X, xu))))
            e_atoms.append((Fraction(1), ((MUL_X, xu), (MUL_X, xu))))
        wt = 2 if cfg.m_parity == "odd" else 1
        for j in range(1, n + 1):
            tj, tnj = j - 1, n + j - 1
            d_atoms.append((Fraction(wt), ((DER_T, tj), (DER_T, tnj))))
            e_atoms.append((Fraction(wt), ((MUL_T, tj), (MUL_T, tnj))))
    else:
        if cfg.m_parity == "odd":
            raise ValueError("no lowering/raising pair defined for odd Aprime")
        if cfg.T != frozenset(range(1, n + 1)):
            raise ValueError(
                "lowering/raising pair defined only for the normal form T={1..n}; "
                "use aprime_normalize first"
            )
        for i in range(1, n + 1):
            xi, xni = i - 1, n + i - 1
            d_atoms.append((Fraction(-1), ((MUL_X, xi), (DER_X, xni))))
            e_atoms.append((Fraction(1), ((MUL_X, xni), (DER_X, xi))))
        for j in range(1, m1 + 1):
            tj, tmj = j - 1, m1 + j - 1
            d_atoms.append((Fraction(1), ((DER_T, tj), (DER_T, tmj))))
            e_atoms.append((Fraction(1), ((MUL_T, tj), (MUL_T, tmj))))
    return SuperOperator(sig, d_atoms, EVEN), SuperOperator(sig, e_atoms, EVEN)


def eta_polynomial(cfg: RepConfig) -> SuperPolynomial:
    """The raising operator applied to 1 (its multiplication part)."""
    _, eta = delta_eta(cfg)
    return eta(SuperPolynomial.one(cfg.signature))


class SubsetMarkers(NamedTuple):
    """Pair indices fully outside (S1) / fully inside (T1) the swap set."""

    S1: frozenset[int]
    T1: frozenset[int]


def markers(cfg: RepConfig) -> SubsetMarkers:
    if cfg.family != "Aprime":
        raise ValueError("markers are defined for the Aprime family")
    n, T = cfg.n, cfg.T
    s1 = frozenset(i for i in range(1, n + 1) if i not in T and n + i not in T)
    t1 = frozenset(i for i in range(1, n + 1) if i in T and n + i in T)
    return SubsetMarkers(s1, t1)


def aprime_normalize(cfg: RepConfig):
    """Reduce an Aprime configuration with S1 = T1 = {} to T = {1..n}.

    Returns (normal_cfg, transport) where transport maps polynomials of the
    original configuration to the normal one.  For each pair with n+i in T
    the symplectic swap x_i -> x_{n+i}, x_{n+i} -> -x_i is applied; it
    intertwines the two actions up to an automorphism of the algebra, so
    submodule structure is preserved.
    """
    mk = markers(cfg)
    if mk.S1 or mk.T1:
        raise ValueError("normal form applies only when S1 and T1 are empty")
    n = cfg.n
    flips = [i for i in range(1, n + 1) if n + i in cfg.T]
    normal = config_aprime(cfg.m1, cfg.n, range(1, n + 1), cfg.m_parity)
    sig = cfg.signature

    def transport(p: SuperPolynomial) -> SuperPolynomial:
        out = {}
        for mono, c in p.terms.items():
            bos = list(mono.bos)
            sign = 1
            for i in flips:
                a, b = bos[i - 1], bos[n + i - 1]
                bos[i - 1], bos[n + i - 1] = b, a
                if a & 1:
                    sign = -sign
            key = type(mono)(tuple(bos), mono.mask)
            out[key] = out.get(key, Fraction(0)) + sign * c
        return SuperPolynomial(sig, {k: v for k, v in out.items() if v})

    return normal, transport
