"""Exact supercommutative polynomial arithmetic.

A polynomial lives in C[x_1..x_nb ; t_1..t_nf] where the x_i are ordinary
(bosonic) commuting variables and the t_p are fermionic: t_p t_q = -t_q t_p,
so t_p^2 = 0.  A monomial is a pair

    SuperMonomial(bos, mask)

where ``bos`` is the tuple of bosonic exponents and ``mask`` is a bitset of
the fermionic factors present, always read in ascending index order (bit p-1
set means t_p is a factor).  That ascending order is the canonical form; all
signs produced by reordering are absorbed into coefficients.

Coefficients are ``fractions.Fraction`` and zero coefficients are never
stored, so the zero polynomial is the one with an empty term map.

Two conventions are pinned here and relied on everywhere else:

* fermionic derivatives are LEFT derivatives: on a canonical monomial that
  contains t_q in position s (1-based among the fermionic factors), d/dt_q
  removes t_q and multiplies by (-1)**(s-1);
* an operator chain acts rightmost-action-first, i.e. the chain (a, b, c)
  sends p to a(b(c(p))).

Every atomic action (multiply by or differentiate by one variable) sends a
monomial to an integer multiple of a single monomial, or to 0, so a chain
acts on one monomial at a time with an integer factor.  ``act_on_terms`` is
the one kernel that applies chains: it sums the images of a sum of terms
as a sparse row keyed by packed monomial code.  ``apply_operator`` calls it
and unpacks the row.

The kernel works on packed monomial codes.  A ``CodeLayout`` for a degree
bound B packs a monomial of total degree <= B into one int: the total
degree in the top bits, then one field of B.bit_length() bits per bosonic
exponent (x_1 most significant), then the fermionic mask in the low nf
bits.  No field overflows, so the integer order of codes is the canonical
order (total degree, exponents lexicographic, mask) of
``SuperMonomial.sort_key``.  ``compile_atoms`` turns integer atoms into an
``ActionProgram`` for one layout: per atom, the derivative reads (field
shift and the exponent change of the actions before them in the chain), one
mask test for the fermionic factors the chain needs present or absent, one
sign mask, and one net code delta, which carries the atom's degree shift
into the degree field.  The sign rule lives in ``compile_atoms``: t_q
enters or leaves past the fermionic factors below it, so each fermionic
action contributes the parity of the mask bits below q at that point, and
the XOR of those masks gives the whole chain's sign as one parity of the
source mask.  A program refuses (``ValueError``) a source whose degree plus
the largest shift of its atoms would pass B, so no field ever wraps.

Both choices are validated downstream by demanding that the matrix-unit
realizations actually define representations and that the quadratic
invariant is harmonic; any other combination of conventions fails those
checks.

``format_poly`` prints a polynomial as ``c * x1^2 x3 t1 t4`` with terms
joined by " + ", rational coefficients printed as ``p/q`` or an integer, and
exponent 1 omitted; witness strings use this format.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple


class VariableSignature(NamedTuple):
    """Number of bosonic and fermionic variables of an algebra."""

    num_bosonic: int
    num_fermionic: int


class SuperMonomial(NamedTuple):
    """Canonical monomial: bosonic exponent tuple + fermionic bitset."""

    bos: tuple[int, ...]
    mask: int

    @property
    def total_degree(self) -> int:
        return sum(self.bos) + self.mask.bit_count()

    def sort_key(self):
        """Graded lexicographic: (total degree, exponent vector, mask)."""
        return (self.total_degree, self.bos, self.mask)


def mono_one(sig: VariableSignature) -> SuperMonomial:
    return SuperMonomial((0,) * sig.num_bosonic, 0)


def mono_mul(a: SuperMonomial, b: SuperMonomial):
    """Multiply canonical monomials.

    Returns (sign, product) with sign in {+1, -1}, or None when the product
    vanishes because the two share a fermionic factor.  The sign counts the
    transpositions needed to interleave the two ascending fermionic lists.
    """
    if len(a.bos) != len(b.bos):
        raise ValueError("monomials from different signatures")
    if a.mask & b.mask:
        return None
    # Each factor of b below a factor of a must jump over it.
    inversions = 0
    rest = a.mask
    while rest:
        low = rest & -rest
        inversions += (b.mask & (low - 1)).bit_count()
        rest ^= low
    bos = tuple(x + y for x, y in zip(a.bos, b.bos))
    return (-1 if inversions & 1 else 1, SuperMonomial(bos, a.mask | b.mask))


# Atomic operator actions; chains are applied rightmost-first.
MUL_X, MUL_T, DER_X, DER_T = 0, 1, 2, 3
_ACTION_NAMES = {MUL_X: "x", MUL_T: "t", DER_X: "dx", DER_T: "dt"}


class SuperPolynomial:
    """Sparse exact polynomial: map from SuperMonomial to nonzero Fraction."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: VariableSignature, terms=None):
        self.sig = sig
        self.terms: dict[SuperMonomial, Fraction] = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(sig: VariableSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig)

    @staticmethod
    def one(sig: VariableSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig, {mono_one(sig): Fraction(1)})

    @staticmethod
    def from_monomial(sig, mono: SuperMonomial, coeff=1) -> "SuperPolynomial":
        c = Fraction(coeff)
        if c == 0:
            return SuperPolynomial(sig)
        return SuperPolynomial(sig, {mono: c})

    @staticmethod
    def x(sig: VariableSignature, i: int) -> "SuperPolynomial":
        """The bosonic variable x_i (1-based)."""
        if not 1 <= i <= sig.num_bosonic:
            raise ValueError(f"x{i} outside signature {sig}")
        bos = tuple(1 if j == i - 1 else 0 for j in range(sig.num_bosonic))
        return SuperPolynomial(sig, {SuperMonomial(bos, 0): Fraction(1)})

    @staticmethod
    def theta(sig: VariableSignature, p: int) -> "SuperPolynomial":
        """The fermionic variable t_p (1-based)."""
        if not 1 <= p <= sig.num_fermionic:
            raise ValueError(f"t{p} outside signature {sig}")
        return SuperPolynomial(
            sig, {SuperMonomial((0,) * sig.num_bosonic, 1 << (p - 1)): Fraction(1)}
        )

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        """Largest total degree among terms; -1 for the zero polynomial."""
        return max((m.total_degree for m in self.terms), default=-1)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, SuperPolynomial)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    # -- arithmetic ----------------------------------------------------

    def _check_sig(self, other: "SuperPolynomial"):
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check_sig(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SuperPolynomial(self.sig, out)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial(self.sig, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-other)

    def scale(self, c) -> "SuperPolynomial":
        c = Fraction(c)
        if c == 0:
            return SuperPolynomial(self.sig)
        return SuperPolynomial(self.sig, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_sig(other)
        out: dict[SuperMonomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sm = mono_mul(ma, mb)
                if sm is None:
                    continue
                sign, m = sm
                s = out.get(m, 0) + sign * ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return SuperPolynomial(self.sig, out)

    def __pow__(self, e: int) -> "SuperPolynomial":
        if e < 0:
            raise ValueError("negative power")
        result = SuperPolynomial.one(self.sig)
        for _ in range(e):
            result = result * self
        return result

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"SuperPolynomial({format_poly(self)!r})"


class CodeLayout:
    """Packing of the monomials of total degree <= bound into one int each.

    Bit layout, from the highest bit: the total degree, which is not bounded
    by the layout, then one field of ``width`` = bound.bit_length() bits per
    bosonic exponent, x_1 most significant, then the fermionic mask in the
    low num_fermionic bits.  Codes therefore sort as the monomials'
    ``sort_key`` (total degree, exponents, mask) does, and every code of
    degree <= d is below (d + 1) << degree_shift.
    """

    __slots__ = (
        "num_bosonic", "num_fermionic", "bound", "width", "field_mask", "degree_shift", "shifts"
    )

    def __init__(self, sig: VariableSignature, bound: int):
        self.num_bosonic, self.num_fermionic = sig
        self.bound = bound
        self.width = bound.bit_length()
        self.field_mask = (1 << self.width) - 1
        self.degree_shift = self.num_fermionic + self.num_bosonic * self.width
        # the lowest bit of each field, x_1's first
        self.shifts = tuple(
            self.degree_shift - (i + 1) * self.width for i in range(self.num_bosonic)
        )

    def pack(self, mono: SuperMonomial) -> int:
        """The code of mono; a ValueError past the bound or the signature."""
        bos, mask = mono
        degree = sum(bos) + mask.bit_count()
        if degree > self.bound:
            raise ValueError(f"monomial {mono} past the code layout's degree bound {self.bound}")
        if len(bos) != self.num_bosonic or mask >> self.num_fermionic:
            raise ValueError(f"monomial {mono} outside the code layout's signature")
        code = degree
        for e in bos:
            code = code << self.width | e
        return code << self.num_fermionic | mask

    def unpack(self, code: int) -> SuperMonomial:
        fmask = self.field_mask
        bos = tuple(code >> shift & fmask for shift in self.shifts)
        return SuperMonomial(bos, code & ((1 << self.num_fermionic) - 1))


class ActionProgram(NamedTuple):
    """Integer atoms compiled for one ``CodeLayout`` (``compile_atoms``).

    ops holds one (coefficient, check mask, check value, sign mask, reads,
    delta) per atom that is not identically zero; a source code at or above
    limit would let an image pass the layout's bound.
    """

    layout: CodeLayout
    ops: tuple
    limit: int


def compile_atoms(atoms, layout: CodeLayout) -> ActionProgram:
    """Compile a * chain for a, chain in atoms (a an int or a Fraction).

    The chain is walked rightmost action first, tracking the exponent change
    per bosonic variable and the mask bits toggled so far.  A derivative by
    x_i becomes a read (shift of field i, change so far): its factor is the
    source exponent plus that change, and 0 kills the atom.  A fermionic
    action on t_q needs t_q absent (multiply) or present (left derivative)
    at that point, which fixes bit q of the source mask: the check mask and
    value collect those bits, and an atom that needs one bit both ways is
    dropped.  The sign rule: the action's sign is the parity of the mask
    bits below q at that point, i.e. of (source mask ^ toggled) & (bit - 1),
    so the chain's sign is the parity of source mask & (XOR of the
    bit - 1 masks), times a constant folded into the coefficient.
    """
    ops, rise = [], 0
    for a, chain in atoms:
        change = [0] * layout.num_bosonic
        toggled = check_mask = check_value = sign_mask = flip = 0
        reads = []
        for kind, i in reversed(chain):
            if kind == MUL_X:
                change[i] += 1
            elif kind == DER_X:
                reads.append((layout.shifts[i], change[i]))
                change[i] -= 1
            else:
                bit = 1 << i
                need = (bit if kind == DER_T else 0) ^ (toggled & bit)
                if check_mask & bit and check_value & bit != need:
                    break
                check_mask, check_value = check_mask | bit, check_value | need
                sign_mask ^= bit - 1
                flip ^= (toggled & (bit - 1)).bit_count() & 1
                toggled ^= bit
        else:
            gained, lost = toggled & ~check_value, toggled & check_value
            shift = sum(change) + gained.bit_count() - lost.bit_count()
            delta = gained - lost + (shift << layout.degree_shift)
            delta += sum(c << layout.shifts[v] for v, c in enumerate(change))
            ops.append((-a if flip else a, check_mask, check_value, sign_mask, tuple(reads), delta))
            rise = max(rise, shift)
    limit = max(0, layout.bound - rise + 1) << layout.degree_shift
    return ActionProgram(layout, tuple(ops), limit)


def act_on_terms(program: ActionProgram, terms) -> dict:
    """Image of sum(c * code for code, c in terms) under the program, as a
    sparse row {code: coefficient}; terms are (code, coefficient) pairs in
    the program's layout.

    Each (term, op) pair adds a multiple of one image code: the op's check
    must match the source mask, its sign is the parity of the masked source
    bits, each read multiplies by an exponent (0 kills the term), and the
    image is the source code plus the op's delta.  A source at or above the
    program's limit raises ValueError before any field can wrap.  Which
    image codes a caller keeps (a window, a slice) is the caller's test: the
    degree sits in a code's top bits.  Coefficients may be ints or
    Fractions; no zero entry is kept.
    """
    layout, ops, limit = program
    fmask = layout.field_mask
    out: dict = {}
    for code, c in terms:
        if code >= limit:
            raise ValueError(
                f"monomial {layout.unpack(code)} too close to the code layout's "
                f"degree bound {layout.bound} for this program"
            )
        for a, check_mask, check_value, sign_mask, reads, delta in ops:
            if code & check_mask != check_value:
                continue
            f = -a if (code & sign_mask).bit_count() & 1 else a
            for shift, change in reads:
                e = (code >> shift & fmask) + change
                if not e:
                    break
                f *= e
            else:
                image = code + delta
                s = out.get(image, 0) + c * f
                if s:
                    out[image] = s
                else:
                    del out[image]
    return out


@lru_cache(maxsize=1024)
def _program(atoms: tuple, sig: VariableSignature, degree: int) -> ActionProgram:
    """atoms compiled for sources of degree <= degree: the layout's bound
    adds the longest chain."""
    reach = max((len(chain) for _, chain in atoms), default=0)
    return compile_atoms(atoms, CodeLayout(sig, degree + reach))


def _act(atoms: tuple, p: SuperPolynomial) -> SuperPolynomial:
    """The atoms applied to p, through ``act_on_terms``; the program is
    compiled once per (atoms, signature, degree of p)."""
    if not p.terms:
        return SuperPolynomial(p.sig)
    program = _program(atoms, p.sig, p.max_degree())
    layout = program.layout
    image = act_on_terms(program, [(layout.pack(m), c) for m, c in p.terms.items()])
    return SuperPolynomial(p.sig, {layout.unpack(code): c for code, c in image.items()})


class SuperOperator:
    """Formal sum of signed atomic-action chains with a declared parity.

    atoms: list of (coefficient, chain) where chain is a tuple of atomic
    actions applied rightmost-first; a coefficient that is no int becomes a
    Fraction.  Parity 0 (even) or 1 (odd) must equal the number of fermionic
    actions mod 2 in every atom.
    """

    __slots__ = ("sig", "atoms", "parity")

    def __init__(self, sig: VariableSignature, atoms, parity: int):
        self.sig = sig
        self.atoms: list[tuple[int | Fraction, tuple]] = [
            (c if type(c) is int else Fraction(c), tuple(chain)) for c, chain in atoms if c != 0
        ]
        self.parity = parity & 1
        for _, chain in self.atoms:
            ferm = sum(1 for k, _ in chain if k in (MUL_T, DER_T))
            if ferm & 1 != self.parity:
                raise ValueError("atom parity disagrees with declared parity")

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        if self.sig != other.sig:
            raise ValueError("signature mismatch")
        if not self.atoms:
            return other
        if not other.atoms:
            return self
        if self.parity != other.parity:
            raise ValueError("cannot add operators of different parity")
        return SuperOperator(self.sig, self.atoms + other.atoms, self.parity)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return apply_operator(self, p)

    def __str__(self):
        if not self.atoms:
            return "0"
        parts = []
        for c, chain in self.atoms:
            ops = " ".join(f"{_ACTION_NAMES[k]}{i + 1}" for k, i in chain)
            parts.append(f"{c} * [{ops}]" if ops else f"{c} * [1]")
        return " + ".join(parts)

    def __repr__(self):
        return f"SuperOperator({self})"


def apply_operator(op: SuperOperator, p: SuperPolynomial) -> SuperPolynomial:
    """Apply op to p exactly.  Chains act rightmost-first; atoms are summed."""
    if op.sig != p.sig:
        raise ValueError(f"signature mismatch: {op.sig} vs {p.sig}")
    return _act(tuple(op.atoms), p)


# -- text format -------------------------------------------------------

def format_poly(p: SuperPolynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for mono, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(mono.bos):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        mask = mono.mask
        pbit = 1
        while mask:
            if mask & 1:
                factors.append(f"t{pbit}")
            mask >>= 1
            pbit += 1
        coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        parts.append(f"{coeff} * {' '.join(factors)}" if factors else coeff)
    return " + ".join(parts)


def theta_word(sig: VariableSignature, indices: Iterable[int]) -> SuperPolynomial:
    """Product t_{i1} ... t_{ik} of distinct fermionic variables, in order."""
    p = SuperPolynomial.one(sig)
    for i in indices:
        p = p * SuperPolynomial.theta(sig, i)
    return p
