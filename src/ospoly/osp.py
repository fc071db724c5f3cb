"""Orthosymplectic Lie superalgebra structure data and its polynomial actions.

The ambient algebra is gl(m|2n) spanned by matrix units E(i,j), 1 <= i,j <=
m+2n, with parity even when i and j are on the same side of the m|2n split.
osp(m|2n) sits inside as the span of explicit two-term combinations of
matrix units; ``osp_basis`` returns that one spanning set for both even and
odd m.  Which of its elements are roots, and which roots are positive, is
read off their root codes (``element_root``, ``weight_code``).

Both families of actions on supercommutative polynomials come from one
move.  Canonically each gl index a names one variable v_a and E(i,j) acts as
v_i d/dv_j; a "swapped" representation then exchanges multiplication by x
with d/dx, and d/dx with -x, on a chosen set of bosonic variables:

* family A on C[x_1..x_m; t_1..t_2n]: index a <= m names x_a, index m+p
  names t_p, and the swapped variables are x_1..x_r;
* family A' on C[x_1..x_2n; t_1..t_m]: index p <= m names t_p, index m+a
  names x_a, and the swapped variables are the x_a with a in T, a subset of
  1..2n.

``_swapped`` and ``_role`` hold this data and ``_swap`` applies the rule;
every realized operator, the grading and the weights are derived from them.
``rep_matrix_unit`` realizes a single E(i,j) as a SuperOperator; the induced
map on osp is a representation, which the test-suite checks exactly against
the superbracket.  ``variable_k_weights`` gives the integer grading each
family preserves (a swapped variable of exponent e counts -e), ``delta_eta``
the pair of quadratic operators whose kernel/image decompose each graded
piece, and ``monomial_weight`` the Cartan eigenvalue vector of a monomial in
epsilon coordinates (a swapped variable contributes -e-1 to its E(a,a)
eigenvalue).  ``element_root`` is the shift a root element adds to a weight,
and ``weight_code`` packs a weight into one int.

Coefficients are ints from ``unit`` (1) and the swap rule (+-1, +-w in
``delta_eta``) on, and ``slices`` compiles them as they are; ``MatrixElement``
and ``SuperOperator`` make a Fraction only of a coefficient that is no int.
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
        for name in ("m1", "n") if self.r is None else ("m1", "n", "r"):
            check_int(name, getattr(self, name))
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
            for i in self.T:
                check_int("a T entry", i)
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


def check_int(name: str, value) -> None:
    """A ValueError unless value is an int; a bool is no size."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def config_a(m1, n, r, m_parity="even") -> RepConfig:
    return RepConfig(m_parity, m1, n, "A", r=r)


def config_aprime(m1, n, T, m_parity="even") -> RepConfig:
    return RepConfig(m_parity, m1, n, "Aprime", T=frozenset(T))


# ---------------------------------------------------------------------------
# matrix elements


class MatrixElement:
    """Formal combination of matrix units of gl(m|2n); a coefficient that is
    no int becomes a Fraction."""

    __slots__ = ("size", "m", "terms", "parity")

    def __init__(self, size: int, m: int, terms: dict, parity=None):
        self.size = size
        self.m = m
        self.terms = {
            ij: c if type(c) is int else Fraction(c) for ij, c in terms.items() if c != 0
        }
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


def unit(cfg: RepConfig, i: int, j: int) -> MatrixElement:
    """Matrix unit E(i,j) of cfg's gl(m|2n)."""
    size = cfg.gl_size
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"index ({i},{j}) outside 1..{size}")
    return MatrixElement(size, cfg.m, {(i, j): 1})


# ---------------------------------------------------------------------------
# the swap rule: the one place that knows what distinguishes the families


def _swapped(cfg: RepConfig) -> frozenset[int]:
    """1-based indices of the swapped bosonic variables: {1..r} or T."""
    if cfg.family == "A":
        return frozenset(range(1, cfg.r + 1))
    return cfg.T


def _role(cfg: RepConfig, a: int) -> tuple[bool, int]:
    """(is bosonic, 1-based variable index) of the variable gl index a acts on.

    Family A puts the bosonic x_1..x_m on the indices 1..m and the fermionic
    t_1..t_2n on m+1..m+2n; family A' puts t_1..t_m on 1..m and x_1..x_2n on
    m+1..m+2n.
    """
    bosonic = (a <= cfg.m) == (cfg.family == "A")
    return bosonic, a if a <= cfg.m else a - cfg.m


def _canonical(cfg: RepConfig, a: int, mul: bool):
    """Unswapped action of gl index a: multiply by its variable if mul, else
    differentiate by it."""
    bosonic, v = _role(cfg, a)
    if bosonic:
        return (MUL_X if mul else DER_X), v - 1
    return (MUL_T if mul else DER_T), v - 1


def _swap(cfg: RepConfig, coeff, chain) -> tuple:
    """The atom coeff * chain with x -> d/dx, d/dx -> -x on swapped variables."""
    swapped = _swapped(cfg)
    out = []
    for kind, v in chain:
        if kind in (MUL_X, DER_X) and v + 1 in swapped:
            if kind == DER_X:
                coeff = -coeff
            kind = DER_X if kind == MUL_X else MUL_X
        out.append((kind, v))
    return coeff, tuple(out)


def rep_matrix_unit(cfg: RepConfig, i: int, j: int) -> SuperOperator:
    """Operator realizing E(i,j) in the given configuration.

    Canonically E(i,j) multiplies by the variable of index i after
    differentiating by the variable of index j (``_role`` says which variable
    an index names).  The swap rule then exchanges, on every swapped bosonic
    variable, multiplication by x with d/dx and d/dx with -x.  A swapped
    diagonal E(i,i) thus acts as -d/dx_i x_i = -x_i d/dx_i - 1.
    """
    m, size = cfg.m, cfg.gl_size
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"index ({i},{j}) outside 1..{size}")
    parity = ODD if (i <= m) != (j <= m) else EVEN
    atom = _swap(cfg, 1, (_canonical(cfg, i, True), _canonical(cfg, j, False)))
    return SuperOperator(cfg.signature, [atom], parity)


def rep_element(cfg: RepConfig, elem: MatrixElement) -> SuperOperator:
    """Linear extension of rep_matrix_unit to a matrix element: each term's
    one atom times the term's coefficient."""
    atoms = [
        (c * a, chain)
        for (i, j), c in elem.terms.items()
        for a, chain in rep_matrix_unit(cfg, i, j).atoms
    ]
    return SuperOperator(cfg.signature, atoms, elem.parity)


def variable_k_weights(cfg: RepConfig) -> tuple[list[int], int]:
    """Per-bosonic-variable contribution to the integer grading each family
    preserves, and the fermionic one: a swapped variable counts -1."""
    swapped = _swapped(cfg)
    nb = cfg.signature.num_bosonic
    return [(-1 if i in swapped else 1) for i in range(1, nb + 1)], 1


# ---------------------------------------------------------------------------
# spanning sets


def _root_element(cfg: RepConfig, a: int, b: int) -> MatrixElement:
    """E(a,b) - eps(a) eps(b) E(b', a'), the osp element led by E(a,b).

    The partner a' of an index is i <-> m1+i on the orthogonal pairs, the
    unpaired 2*m1+1 (odd m) itself, and m+p <-> m+n+p on the symplectic
    pairs; eps is -1 on m+n+1..m+2n and +1 elsewhere.
    """
    m1, n, m = cfg.m1, cfg.n, cfg.m

    def partner(c):
        if c <= 2 * m1:
            return c + m1 if c <= m1 else c - m1
        if c <= m:
            return c
        return c + n if c <= m + n else c - n

    eps_ab = -1 if (a > m + n) != (b > m + n) else 1
    return unit(cfg, a, b) + unit(cfg, partner(b), partner(a)).scale(-eps_ab)


def osp_basis(cfg: RepConfig) -> list[MatrixElement]:
    """The spanning set of osp(m|2n): one ``_root_element(a, b)`` per lead.

    The leads a = b give the Cartan elements, whose root (``element_root``)
    is 0; every other element moves a weight vector to another weight.  A
    window reads the root elements, and the positive ones, off their root
    codes (``slices.MonomialIndex.roots``).  For odd m the unpaired row
    u = 2*m1+1 only appends its own entries to the list of even m.
    """
    m1, n, m = cfg.m1, cfg.n, cfg.m
    u = m  # the unpaired row/column when m is odd
    odd_m = cfg.m_parity == "odd"
    so_even, sp_even, odd = [], [], []
    for i in range(1, m1 + 1):
        for j in range(1, m1 + 1):
            so_even.append((i, j))
    for i in range(1, m1 + 1):
        for j in range(i + 1, m1 + 1):
            so_even += [(i, m1 + j), (m1 + i, j)]
    if odd_m:
        for i in range(1, m1 + 1):
            so_even += [(i, u), (m1 + i, u)]
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            sp_even.append((m + p, m + q))
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            sp_even += [(m + p, m + n + q), (m + n + p, m + q)]
    for i in range(1, m1 + 1):
        for p in range(1, n + 1):
            odd += [(i, m + p), (i, m + n + p)]
            odd += [(m1 + i, m + p), (m1 + i, m + n + p)]
    if odd_m:
        for p in range(1, n + 1):
            odd += [(u, m + p), (u, m + n + p)]
    return [_root_element(cfg, a, b) for a, b in so_even + sp_even + odd]


# ---------------------------------------------------------------------------
# weights


class Weight(NamedTuple):
    """Cartan eigenvalues in epsilon coordinates: (orthogonal, symplectic).
    A root is positive when its first nonzero coordinate, eps_so then
    eps_sp, is: the sign of its ``weight_code``.  This order fixes the Borel
    subalgebra whose positive part kills a singular vector."""

    eps_so: tuple[int, ...]
    eps_sp: tuple[int, ...]


def monomial_weight(cfg: RepConfig, mono) -> Weight:
    """Weight of a single monomial (the Cartan acts diagonally on monomials)."""
    bos, mask = mono.bos, mono.mask
    swapped = _swapped(cfg)

    def bos_eig(a: int) -> int:
        # eigenvalue of E(a,a) on the monomial: the exponent e of its
        # variable, or -e-1 for a swapped one (E(a,a) acts as -d/dx x)
        bosonic, v = _role(cfg, a)
        if not bosonic:
            return mask >> (v - 1) & 1
        e = bos[v - 1]
        return -e - 1 if v in swapped else e

    m1, n, m = cfg.m1, cfg.n, cfg.m
    so = tuple(bos_eig(i) - bos_eig(m1 + i) for i in range(1, m1 + 1))
    sp = tuple(bos_eig(m + j) - bos_eig(m + n + j) for j in range(1, n + 1))
    return Weight(so, sp)


def element_root(cfg: RepConfig, elem: MatrixElement) -> Weight:
    """The weight a root element adds to a weight vector, in the coordinates
    of ``monomial_weight``.

    A term E(i,j) raises the E(i,i) eigenvalue by 1 and lowers the E(j,j)
    one by 1; the two terms of an osp element have the same root, and a
    Cartan element has root 0.
    """
    i, j = next(iter(elem.terms))

    def shift(a: int) -> int:
        return (a == i) - (a == j)

    m1, n, m = cfg.m1, cfg.n, cfg.m
    so = tuple(shift(c) - shift(m1 + c) for c in range(1, m1 + 1))
    sp = tuple(shift(m + c) - shift(m + n + c) for c in range(1, n + 1))
    return Weight(so, sp)


def weight_code(w: Weight, base: int) -> int:
    """w's coordinates, eps_so then eps_sp, as the digits of one int in the
    given base, the first digit the most significant.

    The code is linear: code(v + w) = code(v) + code(w).  On weights whose
    coordinates differ by less than base it is one-to-one and sorts as the
    weights do, so a root's code is 0 only for root 0 and has the sign of
    the root order (``Weight``).
    """
    code = 0
    for c in w.eps_so + w.eps_sp:
        code = code * base + c
    return code


# ---------------------------------------------------------------------------
# the quadratic pair and swap-set markers


def delta_eta(cfg: RepConfig) -> tuple[SuperOperator, SuperOperator]:
    """The grading-lowering operator and its raising partner.

    Canonically the pair is sum_(a,b) w d/dv_a d/dv_b and sum_(a,b) w v_a v_b
    over the paired gl indices: the orthogonal pairs (i, m1+i), the
    unpaired 2*m1+1 with itself (odd m, weight 1) and the symplectic pairs
    (m+j, m+n+j); w is 2 for odd m and 1 otherwise.  The swap rule of
    ``rep_matrix_unit`` then turns each swapped factor d/dx into -x and x
    into d/dx, so a pair with one swapped variable x_a contributes
    -w x_a d/dx_b to the lowering operator and w d/dx_a x_b to the raising
    one.  Family A' is defined for even m and the normal form T = {1..n}
    only; there the symplectic (bosonic) pairs come first.
    """
    m1, n, m = cfg.m1, cfg.n, cfg.m
    w = 2 if cfg.m_parity == "odd" else 1
    orth = [(w, i, m1 + i) for i in range(1, m1 + 1)]
    if cfg.m_parity == "odd":
        orth.append((1, m, m))
    symp = [(w, m + j, m + n + j) for j in range(1, n + 1)]
    if cfg.family == "A":
        pairs = orth + symp
    else:
        if cfg.m_parity == "odd":
            raise ValueError("no lowering/raising pair defined for odd Aprime")
        if cfg.T != frozenset(range(1, n + 1)):
            raise ValueError(
                "lowering/raising pair defined only for the normal form T={1..n}; "
                "use aprime_normalize first"
            )
        pairs = symp + orth
    sig = cfg.signature
    lower, raise_ = [], []
    for c, a, b in pairs:
        lower.append(_swap(cfg, c, (_canonical(cfg, a, False), _canonical(cfg, b, False))))
        raise_.append(_swap(cfg, c, (_canonical(cfg, a, True), _canonical(cfg, b, True))))
    return SuperOperator(sig, lower, EVEN), SuperOperator(sig, raise_, EVEN)


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


def aprime_normalize(cfg: RepConfig) -> RepConfig:
    """Reduce an Aprime configuration with S1 = T1 = {} to T = {1..n}.

    For each pair with n+i in T the symplectic swap x_i -> x_{n+i},
    x_{n+i} -> -x_i carries polynomials of cfg to those of the normal form;
    it intertwines the two actions up to an automorphism of the algebra, so
    submodule structure is preserved.
    """
    mk = markers(cfg)
    if mk.S1 or mk.T1:
        raise ValueError("normal form applies only when S1 and T1 are empty")
    return config_aprime(cfg.m1, cfg.n, range(1, cfg.n + 1), cfg.m_parity)
