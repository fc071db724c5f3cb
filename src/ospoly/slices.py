"""Finite-dimensional analysis of graded slices.

Everything infinite is cut down to the slice

    {monomials with grading k and total degree <= D}

which is finite for every configuration.  Operators never truncate: applying
one to a slice vector produces its exact image (possibly of degree D+1 or
D+2).  What *is* windowed is closure: when generating a submodule we skip an
operator application whose image would leave the degree-D window, so the
computed span is always a subspace of the true submodule ("from below").
The eta terms of a composition series are from below too: span . window of
eta^p applied to a harmonic space of bounded degree.
Comparisons between such spans are therefore made only on degrees
d <= D - margin and reported as from-below evidence; verdicts that could
flip with a larger window are labeled "inconclusive-window", never "pass".

Kernels are different: the lowering operator never raises degree, so its
kernel computed on a slice is exactly the harmonic space intersected with
the slice.  Mixed checks exploit this asymmetry (kernel side exact, image
side from below).

All linear algebra is exact over the rationals via fraction-free integer
elimination with the pivot rule "smallest monomial in graded-lex order";
degree levels are read from filtrations, which pivot on the largest.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import lcm
from operator import mul

from . import linalg
from .linalg import Echelon
from .osp import (
    RepConfig,
    Weight,
    aprime_normalize,
    delta_eta,
    element_root,
    markers,
    monomial_weight,
    osp_basis,
    rep_element,
    variable_k_weights,
    weight_code,
)
from .superpoly import (
    SuperMonomial,
    SuperOperator,
    SuperPolynomial,
    act_on_terms,
    theta_word,
)


@dataclass(frozen=True)
class SliceKey:
    """One finite window: fixed grading k, total degree <= max_degree."""

    cfg: RepConfig
    k: int
    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


class MonomialIndex:
    """One window: its key and its monomials in canonical order, with index
    lookup.

    ``MonomialIndex(key)`` enumerates ``slice_monomials(key)``.  A bigraded
    cell passes its own monomials with a key whose slice holds them.  The
    helpers that work on a window take the index alone and read ``key`` and
    ``cfg`` from it; it keeps what they build once per window: weight codes
    and element atoms.
    """

    def __init__(self, key: SliceKey, monomials=None):
        self.key, self.cfg = key, key.cfg
        if monomials is None:
            monomials = slice_monomials(key)
        self.monomials = sorted(monomials, key=lambda m: m.sort_key())
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self._weights = None
        self._atoms: dict = {}

    def __len__(self):
        return len(self.monomials)

    def weight_codes(self) -> tuple[list[int], int]:
        """Per position, the ``weight_code`` of its monomial's weight, and
        the code's base.  Computed once, from ``_weight_table``.

        The base exceeds 2 * top + 4, top the largest coordinate size of a
        slice weight, so codes sort as the weights do and stay one-to-one on
        the slice's weights and on every weight a root (coordinates at most
        2 in size) away.
        """
        if self._weights is None:
            cfg = self.cfg
            table, nf = _weight_table(cfg), cfg.signature.num_fermionic
            bits = [tuple(mask >> p & 1 for p in range(nf)) for mask in range(1 << nf)]
            weights = [
                tuple(c + sum(map(mul, bos + bits[mask], row)) for c, row in table)
                for bos, mask in self.monomials
            ]
            distinct = set(weights)
            top = max((abs(c) for w in distinct for c in w), default=0)
            base = 2 * top + 5
            codes = {w: weight_code(Weight(w[: cfg.m1], w[cfg.m1 :]), base) for w in distinct}
            self._weights = ([codes[w] for w in weights], base)
        return self._weights

    def element_atoms(self, part: str) -> tuple:
        """(element, ``_int_atoms`` of its operator) for each element of
        ``osp_basis(cfg, part)``, in that order.  Built once per part."""
        if part not in self._atoms:
            self._atoms[part] = tuple(
                (e, _int_atoms(rep_element(self.cfg, e))) for e in osp_basis(self.cfg, part)
            )
        return self._atoms[part]

    def vec(self, poly: SuperPolynomial) -> dict[int, int]:
        """Content-free integer row of poly; a monomial outside the index
        raises ValueError."""
        out = {}
        for m, c in poly.terms.items():
            i = self.index.get(m)
            if i is None:
                raise ValueError(f"monomial {m} outside the slice")
            out[i] = c
        return linalg.vec_from_fractions(out)

    def poly(self, row: dict[int, int]) -> SuperPolynomial:
        frac = linalg.row_to_fractions(row)
        return SuperPolynomial(
            self.cfg.signature, {self.monomials[i]: c for i, c in frac.items()}
        )


def _weight_table(cfg: RepConfig) -> list[tuple[int, tuple[int, ...]]]:
    """``monomial_weight`` as an affine table: one (constant, coefficients)
    pair per weight coordinate, eps_so then eps_sp.

    A weight is affine in the exponents and the mask bits, so coordinate k
    of a monomial's weight is constant + sum(coefficients[v] * exps[v]), with
    exps its bosonic exponents followed by its mask bits: the constant is
    the weight of 1, and coefficient v what one power of variable v adds.
    """
    nb, nf = cfg.signature
    zero = (0,) * nb
    monos = [SuperMonomial(zero, 0)]
    monos += [SuperMonomial(zero[:v] + (1,) + zero[v + 1 :], 0) for v in range(nb)]
    monos += [SuperMonomial(zero, 1 << p) for p in range(nf)]
    flat = [w.eps_so + w.eps_sp for w in (monomial_weight(cfg, m) for m in monos)]
    return [(c, tuple(w[k] - c for w in flat[1:])) for k, c in enumerate(flat[0])]


@dataclass
class VerificationReport:
    """Structured outcome of one claim check on one configuration."""

    claim_id: str
    cfg: RepConfig
    k: int
    max_degree: int
    margin: int
    seed: int | None
    status: str  # pass | fail | inconclusive-window
    dims: list[dict] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        # every verifier builds its report first, so this guards all three
        if not 0 <= self.margin <= self.max_degree:
            raise ValueError(f"margin must lie in 0..D={self.max_degree}, got {self.margin}")

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "cfg": self.cfg.to_dict(),
            "k": self.k,
            "D": self.max_degree,
            "margin": self.margin,
            "seed": self.seed,
            "status": self.status,
            "dims": self.dims,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def _combine(statuses) -> str:
    statuses = list(statuses)
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "inconclusive-window" for s in statuses):
        return "inconclusive-window"
    return "pass"


# ---------------------------------------------------------------------------
# slice enumeration


def slice_monomials(key: SliceKey) -> list[SuperMonomial]:
    """All monomials with grading k and total degree <= D, canonical order.

    A swapped bosonic variable counts -1 to the grading, every other
    variable +1.  So t fermions and swapped degree b leave unswapped degree
    k - t + b >= 0, and the total degree is k + 2b <= D.
    """
    cfg, k, D = key.cfg, key.k, key.max_degree
    weights, _ = variable_k_weights(cfg)
    groups = [[i for i, w in enumerate(weights) if w == sign] for sign in (1, -1)]
    nf = cfg.signature.num_fermionic
    out = []
    for t in range(nf + 1):
        masks = [mask for mask in range(1 << nf) if mask.bit_count() == t]
        for b in range(max(0, t - k), (D - k) // 2 + 1):
            bos_list = list(_exponents(groups, (k - t + b, b)))
            out += [(k + 2 * b, bos, mask) for mask in masks for bos in bos_list]
    return [SuperMonomial(bos, mask) for _, bos, mask in sorted(out)]


def _exponents(groups, degrees):
    """Exponent tuples whose entries on groups[i] sum to degrees[i]; the
    groups partition the positions."""
    e = [0] * sum(map(len, groups))
    for parts in product(*map(_exponents_with_sum, map(len, groups), degrees)):
        for g, part in zip(groups, parts):
            for i, x in zip(g, part):
                e[i] = x
        yield tuple(e)


def _exponents_with_sum(nvars, total):
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _exponents_with_sum(nvars - 1, total - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# harmonic kernels


def _lowering_kernel(idx: MonomialIndex) -> list[dict[int, int]]:
    """Exact kernel of the lowering operator on the span of idx's monomials.

    The operator becomes integer atoms once.  Each monomial's image is an
    integer row whose coordinates number the image monomials on first sight;
    the numbering does not matter, since the kernel comes back as its
    canonical echelon basis.  Returns integer rows over idx.
    """
    atoms = _int_atoms(delta_eta(idx.cfg)[0])
    seen: dict = {}
    return linalg.kernel(
        [act_on_terms(atoms, ((m, 1),), {}, seen, -1) for m in idx.monomials]
    )


def harmonic_space(key: SliceKey) -> list[SuperPolynomial]:
    """Exact kernel of the lowering operator on the slice."""
    idx = MonomialIndex(key)
    return [idx.poly(row) for row in _lowering_kernel(idx)]


# ---------------------------------------------------------------------------
# singular vectors


def singular_vectors(
    idx: MonomialIndex,
    part: str = "positive",
    within: str = "H",
    modulo: list[dict[int, int]] | None = None,
) -> list[dict[int, int]]:
    """Weight vectors annihilated by the chosen positive set on the slice.

    ``modulo`` and the returned vectors are integer rows over idx.  within
    "H" intersects with the kernel of the lowering operator; "A" does not.
    With ``modulo`` the annihilation conditions are relaxed to "image lies
    in the span of these rows" (quotient singular vectors; the span is used
    as given, so from-below inputs keep the result from-below sound: every
    reported vector genuinely maps into the provided span).

    Every returned vector is exactly annihilated (resp. mapped into the
    span): operator images are computed without truncation.

    A monomial's image is an integer row from ``act_on_terms``: over idx
    and a halo for the positive operators, which keep the grading, and over
    a halo of its own for the lowering operator, as in ``_lowering_kernel``.
    Positive images are taken modulo the span, echelonized once per call, by
    ``Echelon.remainder`` with one common multiple of its pivot entries, so
    the remainder stays linear in the image.  Each weight group of idx
    (``idx.weight_codes``) stacks its images under rows keyed by (operator,
    image index); its kernel is the canonical echelon basis over the group's
    positions, so neither row labels nor the per-operator and common scale
    factors affect the result.
    """
    cfg, D = idx.cfg, idx.key.max_degree
    halo: dict = {}
    # (atoms, index, halo, D); images of the first num_mod operators are
    # taken modulo the span, the lowering operator must annihilate outright
    ops = [(atoms, idx.index, halo, D) for _, atoms in idx.element_atoms(part)]
    num_mod = len(ops) if modulo else 0
    if within == "H":
        ops.append((_int_atoms(delta_eta(cfg)[0]), {}, {}, -1))
    elif within != "A":
        raise ValueError("within must be 'H' or 'A'")

    if modulo:
        mod_ech = linalg.span(modulo)
        pivots_lcm = lcm(*(row[q] for q, row in mod_ech.rows.items()))

    groups: dict = {}
    for i, w in enumerate(idx.weight_codes()[0]):
        groups.setdefault(w, []).append(i)

    out = []
    for w in sorted(groups):
        cols = groups[w]
        rows: dict = {}
        stacked: list[dict[int, int]] = [{} for _ in cols]
        for oi, (atoms, index, op_halo, top) in enumerate(ops):
            for col, i in zip(stacked, cols):
                image = act_on_terms(atoms, ((idx.monomials[i], 1),), index, op_halo, top)
                if oi < num_mod:
                    image = mod_ech.remainder(image, pivots_lcm)
                for j, c in image.items():
                    col[rows.setdefault((oi, j), len(rows))] = c
        for combo in linalg.kernel(stacked):
            out.append({cols[j]: c for j, c in combo.items()})
    return out


# ---------------------------------------------------------------------------
# windowed submodule generation


def _int_atoms(op: SuperOperator) -> list[tuple[int, tuple]]:
    """op's atoms with integer coefficients: op scaled by the lcm of its
    coefficients' denominators, a positive factor that leaves spans and the
    window test unchanged."""
    scale = lcm(*(c.denominator for c, _ in op.atoms))
    return [(int(c * scale), chain) for c, chain in op.atoms]


def generate_submodule(
    idx: MonomialIndex, gens: list[dict[int, int]]
) -> list[dict[int, int]]:
    """Breadth-first closure of gens under the action, capped at degree D.

    An operator application whose image would leave the window is skipped
    entirely (never truncated), so the span is a subspace of the true
    submodule; callers compare against it only on degrees <= D - margin.

    gens and the returned canonical echelon basis are integer rows over idx.
    Each osp operator becomes integer atoms once (``idx.element_atoms``),
    each accepted row is queued as ``Echelon.insert`` returns it, and a
    popped row's terms are built once for all its images, which
    ``act_on_terms`` builds over idx and a halo.  An image is skipped
    exactly when a coefficient on a monomial of degree > D (its halo) is
    nonzero after cancellation.

    An image is not built at all when weights alone show it cannot add a
    row.  Precondition: every generator is a weight vector (its positions
    share one ``MonomialIndex.weight_codes`` code).  Then every echelon row
    is a weight vector, with its pivot's weight, and a root element maps a
    row of weight w into weight w + ``element_root``.  room[u] counts the
    slice monomials of weight u less the rows whose pivot has weight u
    (weights by their codes); at 0 the rows span the slice's weight-u space,
    so an image of weight u is zero, leaves the window or lies in the span,
    and inserting it would change nothing.  The Cartan elements only
    rescale a weight vector and are left out ("roots").  Without the
    precondition the whole slice is one class under every element of "all":
    the closure stops building images once the span fills the slice.
    """
    if not gens:
        raise ValueError("empty generator list")
    cfg, D = idx.cfg, idx.key.max_degree
    n, monos = len(idx), idx.monomials
    codes, base = idx.weight_codes()
    if all(len({codes[i] for i in g}) <= 1 for g in gens):
        ops = [
            (atoms, weight_code(element_root(cfg, e), base))
            for e, atoms in idx.element_atoms("roots")
        ]
    else:
        codes = [0] * n
        ops = [(atoms, 0) for _, atoms in idx.element_atoms("all")]
    room = Counter(codes)
    halo: dict = {}
    ech = Echelon()
    queue = []
    for row in map(ech.insert, gens):
        if row is not None:
            room[codes[min(row)]] -= 1
            queue.append(row)
    while queue:
        v = queue.pop()
        w = codes[min(v)]
        terms = [(monos[i], c) for i, c in v.items()]
        for atoms, step in ops:
            u = w + step
            if not room.get(u):  # a weight outside the slice has no entry
                continue
            image = act_on_terms(atoms, terms, idx.index, halo, D)
            if not image or max(image) >= n:
                continue
            row = ech.insert(image)
            if row is not None:
                room[u] -= 1
                queue.append(row)
    return ech.basis()


# ---------------------------------------------------------------------------
# helpers shared by the verifiers


def _monos_up_to(idx: MonomialIndex, d: int) -> int:
    """Slice monomials of total degree <= d (the index sorts by degree first)."""
    return bisect_right(idx.monomials, d, key=lambda m: m.total_degree)


def _check_direct_sum(rep, idx, first, second, meet_note, level_dims):
    """Do span(first) and span(second) meet trivially and fill the slice?

    Both spans lie inside the true spaces they stand for, so a common vector
    is a genuine witness: it fails the check and is recorded with meet_note.
    The sum must fill the slice on each nonempty level d <= D - margin; a
    degree-d element may decompose through higher-degree pieces, so the sum
    is assembled on the whole window, as one filtration, and each level is
    read off it by ``_fill_levels``.  Sets rep.status; a report with no
    verified level is inconclusive.
    """
    statuses = []
    common = linalg.intersect(first, second)
    if common:
        statuses.append("fail")
        for wrow in common[:2]:
            rep.witnesses.append(str(idx.poly(wrow)))
        rep.notes.append(meet_note)
    statuses += _fill_levels(rep, idx, linalg.filtration(first + second), level_dims)
    rep.status = _combine(statuses) if statuses else "inconclusive-window"


def _fill_levels(rep, idx, rows, level_dims) -> list[str]:
    """Does span(rows) fill the slice on each nonempty level d <= D - margin?

    rows are filtration rows; a level's part is the prefix below dimA, the
    count of slice monomials of degree <= d.  Appends a dims entry per level,
    level_dims(dimA, filled) plus degree and status, and returns the statuses.
    """
    statuses = []
    for d in range(0, rep.max_degree - rep.margin + 1):
        dim_a = _monos_up_to(idx, d)
        if dim_a == 0:
            continue
        filled = len(linalg.restrict_to_zone(rows, dim_a))
        status = "pass" if filled == dim_a else "inconclusive-window"
        statuses.append(status)
        rep.dims.append({"d": d, **level_dims(dim_a, filled), "status": status})
    return statuses


def eta_image(idx: MonomialIndex, power: int) -> list[dict[int, int]]:
    """eta^power of the harmonic space H(k - 2*power), as span . window of
    idx, the slice (k, <= D).

    H is the exact kernel on its slice of degree <= D + 2*power (each eta
    step may lower degree by 2).  eta acts through integer atoms
    (``act_on_terms``), each middle step over a halo of its own, the last
    over idx plus a halo.  The filtration rows of span(images) . {degree <= D}
    keep in-window combinations whose high terms cancel.  Still from below: an H element of
    degree > D + 2*power whose high terms cancel is missed.

    Write eta as a degree-keeping part plus multiplication by q = eta(1).
    For family A with r < m1, q holds the bosonic term x_m1 x_2m1, so it is
    no zero divisor: the top-degree part of eta^p f is q^p times that of f,
    and eta^p f lies in the window exactly when deg f <= D - 2p.  There the
    term is eta^p H(k - 2p) on degree <= D - 2p, and the source degrees
    above it add no row.  Where q is nilpotent (family A') they do.
    """
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    src = MonomialIndex(SliceKey(cfg, k - 2 * power, D + 2 * power))
    atoms = _int_atoms(delta_eta(cfg)[1])
    rows, monos = _lowering_kernel(src), src.monomials
    for step in range(1, power + 1):
        index, top, halo = (idx.index, D, {}) if step == power else ({}, -1, {})
        terms = (zip(map(monos.__getitem__, row), row.values()) for row in rows)
        rows = [act_on_terms(atoms, t, index, halo, top) for t in terms]
        monos = list(halo)
    return linalg.restrict_to_zone(linalg.filtration(rows), len(idx))


def eta_span_of_slice(idx: MonomialIndex) -> list[dict]:
    """eta applied to every monomial of the slice (k - 2, <= D), as
    content-free integer rows over idx, the slice (k, <= D).

    An image is dropped, never truncated, when it is zero or when a halo
    index (a monomial of degree > D) survives cancellation, so the span lies
    inside the true raised space.
    """
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    atoms = _int_atoms(delta_eta(cfg)[1])
    n = len(idx)
    halo: dict = {}
    out = []
    for m in slice_monomials(SliceKey(cfg, k - 2, D)):
        image = act_on_terms(atoms, ((m, 1),), idx.index, halo, D)
        if image and max(image) < n:
            out.append(linalg.normalize(image))
    return out


# ---------------------------------------------------------------------------
# claim verifiers


def verify_direct_sum(
    cfg: RepConfig, k: int, max_degree: int, margin: int = 4, seed: int | None = None
) -> VerificationReport:
    """Windowed check that the slice splits as kernel + raised image.

    Per filtration level d <= D - margin: the kernel side is exact, the
    image side is generated from the margin-enlarged preimage slice; the
    check is trivial intersection plus additive dimensions.
    """
    D = max_degree
    rep = VerificationReport("direct-sum", cfg, k, D, margin, seed, "pass")
    idx = MonomialIndex(SliceKey(cfg, k, D))
    # the kernel side is exact and the image side from below
    h_vecs = _lowering_kernel(idx)
    img_vecs = eta_span_of_slice(idx)
    h_rows = linalg.filtration(h_vecs)
    _check_direct_sum(
        rep, idx, h_vecs, img_vecs, "kernel meets the raised space",
        lambda dim_a, filled: {
            "dimA": dim_a,
            "dimH": len(linalg.restrict_to_zone(h_rows, dim_a)),
            "dimSum": filled,
        },
    )
    if not rep.dims:
        rep.notes.append("slice empty on every verified level")
    return rep


def _stable_under_action(rows, ech, idx) -> tuple | None:
    """The first (element, position in rows) whose exact image leaves the
    span ech of rows while staying in the window, or None when the span is
    action-stable on the window."""
    n, monos, D = len(idx), idx.monomials, idx.key.max_degree
    halo: dict = {}
    terms = [[(monos[j], c) for j, c in row.items()] for row in rows]
    # a Cartan element keeps every weight space, so it never leaks
    for e, atoms in idx.element_atoms("roots"):
        for i, row_terms in enumerate(terms):
            image = act_on_terms(atoms, row_terms, idx.index, halo, D)
            if image and max(image) < n and not ech.contains(image):
                return e, i
    return None


def _generates_layer(seed_row, top_rows, bottom_rows, idx):
    """Does <seed> + bottom cover top on the verified window levels?

    seed_row and bottom_rows are integer rows over idx; top_rows are top's
    filtration rows on the verified window.  A row r of degree <= d lies in
    span(lhs . {deg <= d}) exactly when it lies in span(lhs), so the first
    row outside span(lhs) names the first failing level: the total degree
    of its pivot monomial.

    Returns (True, -1) or (False, first failing degree level).
    """
    lhs = linalg.span(generate_submodule(idx, [seed_row]) + bottom_rows)
    for r in top_rows:
        if not lhs.contains(r):
            return False, idx.monomials[max(r)].total_degree
    return True, -1


def verify_composition_series(
    cfg: RepConfig, k: int, max_degree: int, margin: int = 4, seed: int | None = None
) -> VerificationReport:
    """Check the claimed chain of submodules inside the harmonic slice.

    Dispatches on the swap range:
      r = 0, window (n-m1+1) < k <= 2(n-m1+1): chain H > eta^j H' > 0;
      0 < r < m1 - 1, k > n-m1+r+1:            chain H > eta^j H' > 0;
      r = m1 - 1,     k > n:                   chain H > <x_m1^k> > eta^{k-n} H' > 0;
      r = m1 >= 1:                             rejected (x_m1 is swapped);
      m1 = 0:                                  rejected (no bosonic variable).
    Checks: membership of each term in the next one up, action stability,
    strictness on the window, and that every singular vector of each layer
    generates it (windowed sufficient criterion for layer irreducibility).
    Terms are integer rows over the slice index, printed through it; the
    eta term is span . window from below (``eta_image``).
    """
    D = max_degree
    m1, n, r = cfg.m1, cfg.n, cfg.r
    rep = VerificationReport("composition-series", cfg, k, D, margin, seed, "pass")
    if cfg.family != "A" or cfg.m_parity != "even":
        raise ValueError("composition series checks apply to even family A")
    if m1 == 0:
        raise ValueError(
            "m1 = 0: with no bosonic variable H is zero at every k > n, "
            "so the window (n+1, 2(n+1)] holds no chain to check"
        )
    if r == 0:
        lo, hi = n - m1 + 1, 2 * (n - m1 + 1)
        if not lo < k <= hi:
            raise ValueError(f"k={k} outside the window ({lo}, {hi}]")
        power, k_inner = k - (n - m1 + 1), 2 * (n - m1 + 1) - k
    elif r < m1 - 1:
        if not k > n - m1 + r + 1:
            raise ValueError("k below the window")
        power, k_inner = k - n + m1 - r - 1, -k + 2 * (n - m1 + r + 1)
    elif r == m1:
        raise ValueError(
            f"r = m1 = {m1}: x{m1} is swapped, so x{m1}^k has grading -k and the "
            "chain H > <x_m1^k> > ... does not apply"
        )
    else:
        if not k > n:
            raise ValueError("k below the window")
        power, k_inner = k - n, -k + 2 * n

    idx = MonomialIndex(SliceKey(cfg, k, D))
    chain = [("eta^%d H(k=%d)" % (power, k_inner), eta_image(idx, power))]
    if r > 0 and r >= m1 - 1:  # the last branch: H > <x_m1^k> > eta^j H' > 0
        x_power = idx.vec(SuperPolynomial.x(cfg.signature, m1) ** k)
        chain.insert(0, ("<x%d^%d>" % (m1, k), generate_submodule(idx, [x_power])))

    # each term once as a span (membership) and once as its filtration rows
    # on the verified window; a window row lies in the window part of a span
    # exactly when it lies in the span
    top_level = D - margin
    bound = _monos_up_to(idx, top_level)
    terms = []
    for name, rows in [("H", _lowering_kernel(idx))] + chain + [("0", [])]:
        window_rows = linalg.restrict_to_zone(linalg.filtration(rows), bound)
        terms.append((name, rows, linalg.span(rows), window_rows))
    statuses = []

    # every chain term consists of exactly harmonic vectors of grading k;
    # H is the exact kernel on the slice, so that is membership in its span
    h_ech = terms[0][2]
    for name, rows in chain:
        for row in rows:
            if not h_ech.contains(row):
                rep.witnesses.append(str(idx.poly(row)))
                rep.notes.append(f"{name}: member not harmonic")
                statuses.append("fail")

    layers = list(zip(terms, terms[1:]))
    # inclusions and strictness on the verified window
    for (name_hi, _, ech_hi, rows_hi), (name_lo, _, _, rows_lo) in layers:
        included = all(ech_hi.contains(rr) for rr in rows_lo)
        strict = len(rows_lo) < len(rows_hi)
        if not included:
            # the larger term is itself from-below unless it is H
            statuses.append("fail" if name_hi == "H" else "inconclusive-window")
            rep.notes.append(f"{name_lo} not inside {name_hi} on the window")
        elif not strict:
            statuses.append("inconclusive-window")
            rep.notes.append(f"inclusion {name_hi} > {name_lo} not strict on window")
        else:
            statuses.append("pass")
        rep.dims.append(
            {
                "d": top_level,
                "term": f"{name_hi} > {name_lo}",
                "dim_outer": len(rows_hi),
                "dim_inner": len(rows_lo),
                "status": statuses[-1],
            }
        )

    # In the exact regime a failure below is a disproof (terms and closures
    # are true subspaces); otherwise it may be a window artifact.
    exact = slice_is_exact(cfg, k, D)
    miss = "fail" if exact else "inconclusive-window"

    # action stability of the middle terms; both are built from below, so a
    # leak outside the exact regime may be a missing in-window combination
    for name, rows, ech, _ in terms[1:-1]:
        leak = _stable_under_action(rows, ech, idx)
        if leak:
            e, i = leak
            statuses.append(miss)
            window = "" if exact else f" (term from below on the window D={D})"
            member = idx.poly(rows[i])
            rep.notes.append(f"{name}: action of {e} leaves the span on {member}{window}")

    # layer irreducibility evidence: every singular vector of each layer
    # generates the layer over the next term down
    for (name_hi, _, ech_hi, rows_hi), (name_lo, lo_rows, ech_lo, _) in layers:
        sing = singular_vectors(idx, "positive", "A", modulo=lo_rows)
        layer_sing = [s for s in sing if ech_hi.contains(s) and not ech_lo.contains(s)]
        if not layer_sing:
            # a layer that is zero on the slice holds no singular vector to find
            statuses.append("inconclusive-window" if ech_hi.dim == ech_lo.dim else miss)
            rep.notes.append(f"no singular vector found for layer {name_hi}/{name_lo}")
            continue
        for s in layer_sing:
            ok, bad_d = _generates_layer(s, rows_hi, lo_rows, idx)
            if not ok:
                statuses.append(miss)
                rep.notes.append(
                    f"singular vector {idx.poly(s)} does not reach layer "
                    f"{name_hi}/{name_lo} at d={bad_d}"
                )
            else:
                statuses.append("pass")
                rep.witnesses.append(str(idx.poly(s)))

    rep.status = _combine(statuses)
    return rep


def slice_is_exact(cfg: RepConfig, k: int, max_degree: int) -> bool:
    """True when the slice is the whole graded piece and closures are exact.

    Without swapped bosonic variables every variable counts +1 to the
    grading, so the graded piece is finite (total degree == k) and the
    action never leaves it; all windowed verdicts are then exact.
    """
    weights, _ = variable_k_weights(cfg)
    return all(w > 0 for w in weights) and max_degree >= k


def verify_aprime_structure(
    cfg: RepConfig,
    k: int,
    max_degree: int,
    margin: int = 4,
    seed: int = 0,
    num_seeds: int = 3,
) -> VerificationReport:
    """Windowed irreducibility / two-block split for the second family.

    If some pair of swap indices lies fully inside or fully outside the swap
    set (or m is odd), seeded closures must reach the full verified slice.
    Otherwise the configuration is normalized to T = {1..n}; away from
    k = m1 the same closure test applies (seeded by the known extreme
    vector); at k = m1 the two generated blocks must meet trivially and sum
    to the slice on each verified level.  num_seeds random slice monomials
    seed closures besides the extreme vector; a count that would build no
    seed is a ValueError.
    """
    if cfg.family != "Aprime":
        raise ValueError("expects an Aprime configuration")
    D = max_degree
    rep = VerificationReport("aprime-structure", cfg, k, D, margin, seed, "pass")
    work = cfg
    if cfg.m_parity == "even":
        mk = markers(cfg)
        split_case = not mk.S1 and not mk.T1
        if split_case and cfg.T != frozenset(range(1, cfg.n + 1)):
            work, _ = aprime_normalize(cfg)
            rep.notes.append(f"normalized to {work.describe()}")
    else:
        split_case = False
    least = 0 if split_case else 1  # the split case seeds its extreme vector
    if num_seeds < least:
        raise ValueError(f"num_seeds must be >= {least} here, got {num_seeds}")

    idx = MonomialIndex(SliceKey(work, k, D))
    sig = work.signature
    if len(idx) == 0:
        rep.status = "inconclusive-window"
        rep.notes.append("empty slice")
        return rep

    if not split_case or k != work.m1:
        rng = random.Random(seed)
        seeds = []
        if split_case:
            m1, n = work.m1, work.n
            word = theta_word(sig, range(1, m1 + 1))
            extreme = (
                SuperPolynomial.x(sig, n) ** (m1 - k)
                if k < m1
                else SuperPolynomial.x(sig, 2 * n) ** (k - m1)
            ) * word
            seeds.append(extreme)
        pool = list(idx.monomials)
        rng.shuffle(pool)
        for m in pool[:num_seeds]:
            seeds.append(SuperPolynomial.from_monomial(sig, m))
        statuses = []
        for s in seeds:
            reached = linalg.filtration(generate_submodule(idx, [idx.vec(s)]))
            statuses += _fill_levels(
                rep, idx, reached,
                lambda dim_a, got: {"seed": str(s), "dim_reached": got, "dimA": dim_a},
            )
        rep.status = _combine(statuses) if statuses else "inconclusive-window"
        return rep

    # two-block split at k = m1 in the normal form
    m1, n = work.m1, work.n
    word = theta_word(sig, range(1, m1 + 1))
    if n < 2:
        raise ValueError("the split generator needs n >= 2")
    pluecker = (
        SuperPolynomial.x(sig, n - 1) * SuperPolynomial.x(sig, 2 * n)
        - SuperPolynomial.x(sig, n) * SuperPolynomial.x(sig, 2 * n - 1)
    )
    gen1 = generate_submodule(idx, [idx.vec(word)])
    gen2 = generate_submodule(idx, [idx.vec(pluecker * word)])
    _check_direct_sum(
        rep, idx, gen1, gen2, "the two blocks meet nontrivially",
        lambda dim_a, filled: {
            "dim_block1": len(gen1), "dim_block2": len(gen2), "dimSum": filled, "dimA": dim_a
        },
    )
    return rep


# ---------------------------------------------------------------------------
# bigraded slices for the normal-form second family


def bigraded_monomials(cfg: RepConfig, s: int, t: int) -> list[SuperMonomial]:
    """Finite (s, t) cell of the normal-form second family.

    s = (upper fermionic count) - (swapped bosonic degree),
    t = (lower fermionic count) + (unswapped bosonic degree);
    the grading of every member is s + t.
    """
    if cfg.family != "Aprime" or cfg.T != frozenset(range(1, cfg.n + 1)):
        raise ValueError("bigrading is defined for the normal form T={1..n}")
    if cfg.m_parity == "odd":
        raise ValueError("bigrading is defined for even m only (odd m leaves t_m unpaired)")
    m1, n = cfg.m1, cfg.n
    # the unswapped x_n+1..x_2n have degree t - low, the swapped x_1..x_n up - s
    groups = (range(n, 2 * n), range(n))
    out = []
    for mask in range(1 << (2 * m1)):
        low = (mask & ((1 << m1) - 1)).bit_count()
        up = (mask >> m1).bit_count()
        out += [(t - s + 2 * up, bos, mask) for bos in _exponents(groups, (t - low, up - s))]
    return [SuperMonomial(bos, mask) for _, bos, mask in sorted(out)]


def _cell_index(cfg: RepConfig, s: int, t: int) -> MonomialIndex:
    """The (s, t) cell as a window: its key is the slice of grading s + t up
    to the cell's top degree, which holds every cell monomial."""
    cell = bigraded_monomials(cfg, s, t)
    top = max((m.total_degree for m in cell), default=0)
    return MonomialIndex(SliceKey(cfg, s + t, top), cell)


def bigraded_harmonic(cfg: RepConfig, s: int, t: int) -> list[SuperPolynomial]:
    """Exact kernel of the lowering operator on the finite (s, t) cell."""
    idx = _cell_index(cfg, s, t)
    return [idx.poly(row) for row in _lowering_kernel(idx)]
