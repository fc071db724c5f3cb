"""Finite-dimensional analysis of graded slices.

Everything infinite is cut down to the slice

    {monomials with grading k and total degree <= D}

which is finite for every configuration.  Operators never truncate: applying
one to a slice vector produces its exact image (possibly of degree D+1 or
D+2).  What *is* windowed is closure: when generating a submodule we skip an
operator application whose image would leave the degree-D window, so the
computed span is always a subspace of the true submodule ("from below").
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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .linalg import Echelon
from .osp import (
    RepConfig,
    aprime_normalize,
    delta_eta,
    k_degree,
    markers,
    monomial_weight,
    osp_basis,
    rep_element,
    variable_k_weights,
)
from .superpoly import (
    SuperMonomial,
    SuperOperator,
    SuperPolynomial,
    act_on_monomial,
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
    """Canonically ordered monomial list of a slice with index lookup."""

    def __init__(self, monomials):
        self.monomials = sorted(monomials, key=lambda m: m.sort_key())
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def vec(self, poly: SuperPolynomial) -> dict[int, int]:
        return linalg.vec_from_fractions(self.vec_fraction(poly))

    def vec_fraction(self, poly: SuperPolynomial) -> dict[int, Fraction]:
        out = {}
        for m, c in poly.terms.items():
            i = self.index.get(m)
            if i is None:
                raise KeyError(f"monomial {m} outside the slice")
            out[i] = c
        return out

    def poly(self, sig, row: dict[int, int]) -> SuperPolynomial:
        frac = linalg.row_to_fractions(row)
        return SuperPolynomial(
            sig, {self.monomials[i]: c for i, c in frac.items()}
        )


@dataclass
class SubspaceBasis:
    """Echelonized basis of a subspace of one slice."""

    key: SliceKey
    monomials: MonomialIndex
    vectors: list[SuperPolynomial]

    @property
    def dim(self) -> int:
        return len(self.vectors)


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
    """All monomials with grading k and total degree <= D, canonical order."""
    cfg, k, D = key.cfg, key.k, key.max_degree
    sig = cfg.signature
    weights, _ = variable_k_weights(cfg)
    nf = sig.num_fermionic
    out = []
    for mask in range(1 << nf):
        t = bin(mask).count("1")
        if t > D:
            continue
        target = k - t
        for bos in _weighted_exponents(weights, target, D - t):
            out.append(SuperMonomial(bos, mask))
    return sorted(out, key=lambda m: m.sort_key())


def _weighted_exponents(weights, target, max_total):
    """Exponent tuples e with sum(e) <= max_total and sum(w_i e_i) = target."""
    n = len(weights)

    def rec(i, remaining_total, remaining_target):
        if i == n:
            if remaining_target == 0:
                yield ()
            return
        w = weights[i]
        rest = weights[i + 1 :]
        pos_rest = any(x > 0 for x in rest)
        neg_rest = any(x < 0 for x in rest)
        for e in range(remaining_total + 1):
            new_target = remaining_target - w * e
            new_total = remaining_total - e
            # weights are +-1, so the tail can realize any value of the same
            # or smaller magnitude with the right sign availability
            if abs(new_target) > new_total:
                continue
            if new_target > 0 and not pos_rest:
                continue
            if new_target < 0 and not neg_rest:
                continue
            yield from ((e,) + tail for tail in rec(i + 1, new_total, new_target))

    yield from rec(0, max_total, target)


def slice_basis(key: SliceKey) -> SubspaceBasis:
    idx = MonomialIndex(slice_monomials(key))
    sig = key.cfg.signature
    vectors = [SuperPolynomial.from_monomial(sig, m) for m in idx.monomials]
    return SubspaceBasis(key, idx, vectors)


# ---------------------------------------------------------------------------
# harmonic kernels


def _lowering_kernel(cfg: RepConfig, idx: MonomialIndex) -> list[dict[int, int]]:
    """Exact kernel of the lowering operator on the span of idx's monomials.

    The operator becomes integer atoms once.  Each monomial's image is an
    integer row whose coordinates number the image monomials on first sight;
    the numbering does not matter, since the kernel comes back as its
    canonical echelon basis.  Returns integer rows over idx.
    """
    atoms = _int_atoms(delta_eta(cfg)[0])
    seen: dict = {}
    return linalg.kernel(
        [_image_of_terms(atoms, ((m, 1),), {}, seen, -1) for m in idx.monomials]
    )


def harmonic_space(key: SliceKey) -> SubspaceBasis:
    """Exact kernel of the lowering operator on the slice."""
    idx = MonomialIndex(slice_monomials(key))
    rows = _lowering_kernel(key.cfg, idx)
    return SubspaceBasis(key, idx, [idx.poly(key.cfg.signature, row) for row in rows])


# ---------------------------------------------------------------------------
# singular vectors


def singular_vectors(
    key: SliceKey,
    part: str = "positive",
    within: str = "H",
    modulo: list[SuperPolynomial] | None = None,
) -> list[SuperPolynomial]:
    """Weight vectors annihilated by the chosen positive set on the slice.

    within "H" intersects with the kernel of the lowering operator; "A"
    does not.  With ``modulo`` the annihilation conditions are relaxed to
    "image lies in the span of these polynomials" (quotient singular
    vectors; the span is used as given, so from-below inputs keep the
    result from-below sound: every reported vector genuinely maps into the
    provided span).

    Every returned vector is exactly annihilated (resp. mapped into the
    span): operator images are computed without truncation.

    The ``modulo`` span is echelonized once per call, indexed by its own
    monomials.  An image monomial outside that set is never a pivot, so it
    passes through the reduction unchanged, and the remainder of an image
    is its reduced-echelon remainder over all monomials involved (indices
    order by ``sort_key``).  Each weight group stacks its reduced images
    under rows keyed by (operator, monomial); the kernel is the canonical
    echelon basis over the group's monomials, so row labels do not affect
    the result.
    """
    cfg = key.cfg
    sig = cfg.signature
    ops = [rep_element(cfg, e) for e in osp_basis(cfg, part)]
    # images of the first num_mod operators are taken modulo the span; the
    # lowering operator appended for "H" must annihilate outright
    num_mod = len(ops) if modulo else 0
    if within == "H":
        ops.append(delta_eta(cfg)[0])
    elif within != "A":
        raise ValueError("within must be 'H' or 'A'")

    if modulo:
        mod_idx = MonomialIndex({m for p in modulo for m in p.terms})
        mod_ech = linalg.span([mod_idx.vec(p) for p in modulo])

    groups: dict = {}
    for m in slice_monomials(key):
        groups.setdefault(monomial_weight(cfg, m), []).append(m)

    out = []
    for w in sorted(groups, key=lambda w: (w.eps_so, w.eps_sp)):
        src_idx = MonomialIndex(groups[w])
        rows: dict = {}
        stacked: list[dict[int, Fraction]] = [{} for _ in src_idx.monomials]
        for oi, op in enumerate(ops):
            for col, m in enumerate(src_idx.monomials):
                terms = op(SuperPolynomial.from_monomial(sig, m)).terms
                if oi < num_mod:
                    terms = _reduce_modulo(terms, mod_idx, mod_ech)
                for mono, c in terms.items():
                    stacked[col][rows.setdefault((oi, mono), len(rows))] = c
        combos = linalg.kernel(linalg.exact_int_columns(stacked))
        for row in combos:
            out.append(src_idx.poly(sig, row))
    return out


def _reduce_modulo(terms, mod_idx: MonomialIndex, mod_ech: Echelon) -> dict:
    """Exact remainder of {monomial: coeff} modulo the echelonized span."""
    out = {}
    inside = {}
    for m, c in terms.items():
        i = mod_idx.index.get(m)
        if i is None:
            out[m] = c
        else:
            inside[i] = c
    for i, c in mod_ech.reduce_fraction(inside).items():
        out[mod_idx.monomials[i]] = c
    return out


# ---------------------------------------------------------------------------
# windowed submodule generation


def _int_atoms(op: SuperOperator) -> list[tuple[int, tuple]]:
    """op's atoms with integer coefficients: op scaled by the lcm of its
    coefficients' denominators, a positive factor that leaves spans and the
    window test unchanged."""
    lcm = 1
    for c, _ in op.atoms:
        lcm = lcm // gcd(lcm, c.denominator) * c.denominator
    return [(int(c * lcm), chain) for c, chain in op.atoms]


def _image_of_terms(atoms, terms, index: dict, halo: dict, D: int) -> dict[int, int]:
    """Exact image of sum(c * mono for mono, c in terms) under integer atoms.

    A monomial in index gets its index there.  One of degree > D gets a halo
    index >= len(index), numbered in halo on first sight; one of degree <= D
    outside index raises KeyError.  With an empty index and D = -1 every
    image monomial is numbered in halo.
    """
    base = len(index)
    out: dict[int, int] = {}
    for mono, c in terms:
        for a, chain in atoms:
            hit = act_on_monomial(chain, mono)
            if hit is None:
                continue
            factor, m = hit
            j = index.get(m)
            if j is None:
                if m.total_degree <= D:
                    raise KeyError(f"monomial {m} outside the slice")
                j = halo.setdefault(m, base + len(halo))
            s = out.get(j, 0) + c * a * factor
            if s:
                out[j] = s
            else:
                del out[j]
    return out


def _int_image(atoms, row, idx: MonomialIndex, halo: dict, D: int) -> dict[int, int]:
    """Exact image of an integer row over idx under integer atoms.

    A monomial of degree > D gets a halo index >= len(idx) (see
    ``_image_of_terms``).  The image leaves the window exactly when a halo
    index survives cancellation, i.e. when max(image) >= len(idx).
    """
    terms = zip(map(idx.monomials.__getitem__, row), row.values())
    return _image_of_terms(atoms, terms, idx.index, halo, D)


def generate_submodule(
    key: SliceKey, gens: list[SuperPolynomial], verify_margin: int = 4
) -> SubspaceBasis:
    """Breadth-first closure of gens under the action, capped at degree D.

    An operator application whose image would leave the window is skipped
    entirely (never truncated), so the span is a subspace of the true
    submodule.  Comparisons against it are sound from below on degrees
    <= D - verify_margin.

    The closure runs on integer rows over the slice index: each osp operator
    becomes integer atoms once (``_int_atoms``), each accepted row is queued
    as ``Echelon.insert`` returns it, and its images are built by
    ``_int_image``.  An image is skipped exactly when a coefficient on a
    monomial of degree > D (its halo) is nonzero after cancellation.
    """
    if not gens:
        raise ValueError("empty generator list")
    cfg, D = key.cfg, key.max_degree
    sig = cfg.signature
    idx = MonomialIndex(slice_monomials(key))
    n = len(idx)
    ops = [_int_atoms(rep_element(cfg, e)) for e in osp_basis(cfg, "all")]
    halo: dict = {}
    ech = Echelon()
    queue = []
    for g in gens:
        for m in g.terms:
            if k_degree(cfg, m) != key.k:
                raise ValueError(f"generator not inside the k={key.k} slice")
        row = ech.insert(idx.vec(g))
        if row is not None:
            queue.append(row)
    while queue:
        v = queue.pop()
        for atoms in ops:
            image = _int_image(atoms, v, idx, halo, D)
            if not image or max(image) >= n:
                continue
            row = ech.insert(image)
            if row is not None:
                queue.append(row)
    vectors = [idx.poly(sig, row) for row in ech.basis()]
    return SubspaceBasis(key, idx, vectors)


# ---------------------------------------------------------------------------
# helpers shared by the verifiers


def _monos_up_to(idx: MonomialIndex, d: int) -> int:
    """Slice monomials of total degree <= d (the index sorts by degree first)."""
    return bisect_right(idx.monomials, d, key=lambda m: m.total_degree)


def _check_direct_sum(rep, idx, first, second, margin, meet_note, level_dims):
    """Do span(first) and span(second) meet trivially and fill the slice?

    Both spans lie inside the true spaces they stand for, so a common vector
    is a genuine witness: it fails the check and is recorded with meet_note.
    The sum must fill the slice on each nonempty level d <= D - margin; a
    degree-d element may decompose through higher-degree pieces, so the sum
    is assembled on the whole window, as one filtration, and each level is
    read off it.  dimA, the count of slice monomials of degree <= d, is also
    the level's index bound.  level_dims(dimA, dimSum) gives the report
    entries of a level besides its degree and status.  Sets rep.status; a
    report with no verified level is inconclusive.
    """
    statuses = []
    common = linalg.intersect(first, second)
    if common:
        statuses.append("fail")
        for wrow in common[:2]:
            rep.witnesses.append(str(idx.poly(rep.cfg.signature, wrow)))
        rep.notes.append(meet_note)
    sum_rows = linalg.filtration(first + second)
    for d in range(0, rep.max_degree - margin + 1):
        dim_a = _monos_up_to(idx, d)
        if dim_a == 0:
            continue
        filled = len(linalg.restrict_to_zone(sum_rows, dim_a))
        status = "pass" if filled == dim_a else "inconclusive-window"
        statuses.append(status)
        rep.dims.append({"d": d, **level_dims(dim_a, filled), "status": status})
    rep.status = _combine(statuses) if statuses else "inconclusive-window"


def eta_image(cfg, k_source, source_degree, power=1, cap=None) -> list[SuperPolynomial]:
    """Exact eta^power images of the harmonic space of grading k_source.

    With a degree cap, images leaving the window are dropped entirely
    (never truncated), keeping the span inside the true raised space.
    """
    _, eta = delta_eta(cfg)
    base = harmonic_space(SliceKey(cfg, k_source, source_degree))
    out = []
    for v in base.vectors:
        w = v
        for _ in range(power):
            w = eta(w)
        if w.is_zero():
            continue
        if cap is not None and w.max_degree() > cap:
            continue
        out.append(w)
    return out


def eta_span_of_slice(cfg, k_source, source_degree, idx: MonomialIndex) -> list[dict]:
    """eta applied to every monomial of the (k_source, <= source_degree)
    slice, as content-free integer rows over idx, the slice of grading
    k_source + 2 and total degree <= source_degree.

    An image is dropped, never truncated, when it is zero or when a halo
    index (a monomial of degree > source_degree) survives cancellation, so
    the span lies inside the true raised space.
    """
    atoms = _int_atoms(delta_eta(cfg)[1])
    n = len(idx)
    halo: dict = {}
    out = []
    for m in slice_monomials(SliceKey(cfg, k_source, source_degree)):
        image = _image_of_terms(atoms, ((m, 1),), idx.index, halo, source_degree)
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
    key = SliceKey(cfg, k, D)
    idx = MonomialIndex(slice_monomials(key))
    # the kernel side is exact and the image side from below
    h_vecs = _lowering_kernel(cfg, idx)
    img_vecs = eta_span_of_slice(cfg, k - 2, D, idx)
    h_rows = linalg.filtration(h_vecs)
    _check_direct_sum(
        rep, idx, h_vecs, img_vecs, margin, "kernel meets the raised space",
        lambda dim_a, filled: {
            "dimA": dim_a,
            "dimH": len(linalg.restrict_to_zone(h_rows, dim_a)),
            "dimSum": filled,
        },
    )
    if not rep.dims:
        rep.notes.append("slice empty on every verified level")
    return rep


def _stable_under_action(cfg, vectors, ech, idx, D) -> tuple[bool, str | None]:
    """Check the span ech of vectors is action-stable on the window (exact
    images of in-window vectors that stay in-window must lie back in it)."""
    rows = [idx.vec(p) for p in vectors]
    n = len(idx)
    halo: dict = {}
    for e in osp_basis(cfg, "all"):
        atoms = _int_atoms(rep_element(cfg, e))
        for p, row in zip(vectors, rows):
            image = _int_image(atoms, row, idx, halo, D)
            if not image or max(image) >= n:
                continue
            if not ech.contains(image):
                return False, f"action of {e} leaves the span on {p}"
    return True, None


def _generates_layer(seed_vec, top_rows, bottom_vectors, key, idx, margin):
    """Does <seed> + bottom cover top on the verified window levels?

    top_rows are top's filtration rows on the verified window.  A row r of
    degree <= d lies in span(lhs . {deg <= d}) exactly when it lies in
    span(lhs), so the first row outside span(lhs) names the first failing
    level: the total degree of its pivot monomial.

    Returns (True, -1) or (False, first failing degree level).
    """
    gen = generate_submodule(key, [seed_vec], margin)
    lhs = linalg.span(idx.vec(p) for p in gen.vectors + bottom_vectors)
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
      r = m1 - 1,     k > n:                   chain H > <x_m1^k> > eta^{k-n} H' > 0.
    Checks: membership of each term in the next one up, action stability,
    strictness on the window, and that every singular vector of each layer
    generates it (windowed sufficient criterion for layer irreducibility).
    """
    D = max_degree
    m1, n, r = cfg.m1, cfg.n, cfg.r
    rep = VerificationReport("composition-series", cfg, k, D, margin, seed, "pass")
    if cfg.family != "A" or cfg.m_parity != "even":
        raise ValueError("composition series checks apply to even family A")
    if r == 0:
        lo, hi = n - m1 + 1, 2 * (n - m1 + 1)
        if not lo < k <= hi:
            raise ValueError(f"k={k} outside the window ({lo}, {hi}]")
        power = k - (n - m1 + 1)
        k_inner = 2 * (n - m1 + 1) - k
        chain = [
            ("eta^%d H(k=%d)" % (power, k_inner), eta_image(cfg, k_inner, D, power, cap=D))
        ]
    elif r < m1 - 1:
        if not k > n - m1 + r + 1:
            raise ValueError("k below the window")
        power = k - n + m1 - r - 1
        k_inner = -k + 2 * (n - m1 + r + 1)
        chain = [
            ("eta^%d H(k=%d)" % (power, k_inner), eta_image(cfg, k_inner, D, power, cap=D))
        ]
    else:
        if not k > n:
            raise ValueError("k below the window")
        key = SliceKey(cfg, k, D)
        sig = cfg.signature
        xk = SuperPolynomial.x(sig, m1) ** k
        mid = generate_submodule(key, [xk], margin)
        power, k_inner = k - n, -k + 2 * n
        chain = [
            ("<x%d^%d>" % (m1, k), mid.vectors),
            ("eta^%d H(k=%d)" % (power, k_inner), eta_image(cfg, k_inner, D, power, cap=D)),
        ]

    key = SliceKey(cfg, k, D)
    idx = MonomialIndex(slice_monomials(key))
    lower, _ = delta_eta(cfg)
    statuses = []

    # every chain term consists of exactly harmonic vectors of grading k
    for name, vectors in chain:
        for v in vectors:
            if not lower(v).is_zero():
                rep.witnesses.append(str(v))
                rep.notes.append(f"{name}: member not harmonic")
                statuses.append("fail")

    # each term once as a span (membership) and once as its filtration rows
    # on the verified window; a window row lies in the window part of a span
    # exactly when it lies in the span
    top_level = D - margin
    bound = _monos_up_to(idx, top_level)
    terms = []
    term_vecs = [("H", [], _lowering_kernel(cfg, idx))]
    term_vecs += [(name, vecs, [idx.vec(p) for p in vecs]) for name, vecs in chain]
    for name, vectors, vecs in term_vecs + [("0", [], [])]:
        rows = linalg.restrict_to_zone(linalg.filtration(vecs), bound)
        terms.append((name, vectors, linalg.span(vecs), rows))
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
    for name, vectors, ech, _ in terms[1:-1]:
        ok, note = _stable_under_action(cfg, vectors, ech, idx, D)
        if not ok:
            statuses.append(miss)
            window = "" if exact else f" (term from below on the window D={D})"
            rep.notes.append(f"{name}: {note}{window}")

    # layer irreducibility evidence: every singular vector of each layer
    # generates the layer over the next term down
    for (name_hi, _, ech_hi, rows_hi), (name_lo, lo_vecs, ech_lo, _) in layers:
        sing = singular_vectors(key, "positive", "A", modulo=lo_vecs or None)
        layer_sing = []
        for s in sing:
            v = idx.vec(s)
            if ech_hi.contains(v) and not ech_lo.contains(v):
                layer_sing.append(s)
        if not layer_sing:
            statuses.append(miss)
            rep.notes.append(f"no singular vector found for layer {name_hi}/{name_lo}")
            continue
        for s in layer_sing:
            ok, bad_d = _generates_layer(s, rows_hi, lo_vecs, key, idx, margin)
            if not ok:
                statuses.append(miss)
                rep.notes.append(
                    f"singular vector {s} does not reach layer {name_hi}/{name_lo} at d={bad_d}"
                )
            else:
                statuses.append("pass")
                rep.witnesses.append(str(s))

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
    to the slice on each verified level.
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

    key = SliceKey(work, k, D)
    idx = MonomialIndex(slice_monomials(key))
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
            gen = generate_submodule(key, [s], margin)
            reached = linalg.filtration(idx.vec(p) for p in gen.vectors)
            for d in range(0, D - margin + 1):
                dim_a = _monos_up_to(idx, d)
                if dim_a == 0:
                    continue
                got = len(linalg.restrict_to_zone(reached, dim_a))
                status = "pass" if got == dim_a else "inconclusive-window"
                statuses.append(status)
                rep.dims.append(
                    {"d": d, "seed": str(s), "dim_reached": got, "dimA": dim_a,
                     "status": status}
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
    gen1 = generate_submodule(key, [word], margin)
    gen2 = generate_submodule(key, [pluecker * word], margin)
    _check_direct_sum(
        rep, idx, [idx.vec(p) for p in gen1.vectors], [idx.vec(p) for p in gen2.vectors],
        margin, "the two blocks meet nontrivially",
        lambda dim_a, filled: {
            "dim_block1": gen1.dim, "dim_block2": gen2.dim, "dimSum": filled, "dimA": dim_a
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
    m1, n = cfg.m1, cfg.n
    out = []
    for mask in range(1 << (2 * m1)):
        low = sum(1 for j in range(m1) if mask >> j & 1)
        up = sum(1 for j in range(m1) if mask >> (m1 + j) & 1)
        # sum(alpha_first_n) = up - s ; sum(alpha_last_n) = t - low
        a_first = up - s
        a_last = t - low
        if a_first < 0 or a_last < 0:
            continue
        for bos1 in _exponents_with_sum(n, a_first):
            for bos2 in _exponents_with_sum(n, a_last):
                out.append(SuperMonomial(bos1 + bos2, mask))
    return sorted(out, key=lambda m: m.sort_key())


def _exponents_with_sum(nvars, total):
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _exponents_with_sum(nvars - 1, total - head):
            yield (head,) + tail


def bigraded_harmonic(cfg: RepConfig, s: int, t: int) -> list[SuperPolynomial]:
    """Exact kernel of the lowering operator on the finite (s, t) cell."""
    idx = MonomialIndex(bigraded_monomials(cfg, s, t))
    return [idx.poly(cfg.signature, row) for row in _lowering_kernel(cfg, idx)]
