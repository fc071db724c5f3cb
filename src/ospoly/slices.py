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
elimination with the pivot rule "smallest monomial in graded-lex order".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .linalg import Echelon, TrackedEchelon
from .osp import (
    RepConfig,
    aprime_normalize,
    delta_eta,
    eta_polynomial,
    k_degree,
    markers,
    monomial_weight,
    osp_basis,
    rep_element,
    variable_k_weights,
)
from .superpoly import SuperMonomial, SuperPolynomial, theta_word


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


def _image_index(polys) -> MonomialIndex:
    monos = set()
    for p in polys:
        monos.update(p.terms)
    return MonomialIndex(monos)


def harmonic_space(key: SliceKey) -> SubspaceBasis:
    """Exact kernel of the lowering operator on the slice."""
    lower, _ = delta_eta(key.cfg)
    idx = MonomialIndex(slice_monomials(key))
    sig = key.cfg.signature
    images = [lower(SuperPolynomial.from_monomial(sig, m)) for m in idx.monomials]
    img_idx = _image_index(images)
    img_vecs = linalg.exact_int_columns([img_idx.vec_fraction(p) for p in images])
    combos = linalg.kernel(img_vecs)
    vectors = [idx.poly(sig, row) for row in combos]
    return SubspaceBasis(key, idx, vectors)


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


def generate_submodule(
    key: SliceKey, gens: list[SuperPolynomial], verify_margin: int = 4
) -> SubspaceBasis:
    """Breadth-first closure of gens under the action, capped at degree D.

    An operator application whose image would leave the window is skipped
    entirely (never truncated), so the span is a subspace of the true
    submodule.  Comparisons against it are sound from below on degrees
    <= D - verify_margin.
    """
    if not gens:
        raise ValueError("empty generator list")
    cfg, D = key.cfg, key.max_degree
    sig = cfg.signature
    idx = MonomialIndex(slice_monomials(key))
    ops = [rep_element(cfg, e) for e in osp_basis(cfg, "all")]
    ech = Echelon()
    queue = []
    for g in gens:
        for m in g.terms:
            if k_degree(cfg, m) != key.k:
                raise ValueError(f"generator not inside the k={key.k} slice")
        row = ech.insert(idx.vec(g))
        if row is not None:
            queue.append(idx.poly(sig, row))
    while queue:
        v = queue.pop()
        for op in ops:
            image = op(v)
            if image.is_zero():
                continue
            if image.max_degree() > D:
                continue
            row = ech.insert(idx.vec(image))
            if row is not None:
                queue.append(idx.poly(sig, row))
    vectors = [idx.poly(sig, row) for row in ech.basis()]
    return SubspaceBasis(key, idx, vectors)


# ---------------------------------------------------------------------------
# helpers shared by the verifiers


def _degree_zone(idx: MonomialIndex, d: int):
    return lambda i: idx.monomials[i].total_degree <= d


def _dim_at_degree(idx: MonomialIndex, vectors, d: int) -> int:
    vecs = [idx.vec(p) for p in vectors]
    return len(linalg.restrict_to_zone(vecs, _degree_zone(idx, d)))


def _monos_up_to(idx: MonomialIndex, d: int) -> int:
    """Slice monomials of total degree <= d (the index sorts by degree first)."""
    return bisect_right(idx.monomials, d, key=lambda m: m.total_degree)


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


def eta_span_of_slice(cfg, k_source, source_degree) -> list[SuperPolynomial]:
    """eta applied to every monomial of the (k_source, <= source_degree) slice."""
    _, eta = delta_eta(cfg)
    sig = cfg.signature
    out = []
    for m in slice_monomials(SliceKey(cfg, k_source, source_degree)):
        w = eta(SuperPolynomial.from_monomial(sig, m))
        if not w.is_zero():
            out.append(w)
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
    harmonic = harmonic_space(key)
    image = eta_span_of_slice(cfg, k - 2, D)
    h_vecs = [idx.vec(p) for p in harmonic.vectors]
    img_vecs = [idx.vec(p) for p in image if p.max_degree() <= D]
    statuses = []
    # trivial intersection on the whole window: the kernel side is exact and
    # the image side sits inside the true raised space, so any common vector
    # is a genuine witness against directness.
    common = linalg.intersect(h_vecs, img_vecs)
    if common:
        statuses.append("fail")
        for wrow in common[:2]:
            rep.witnesses.append(str(idx.poly(cfg.signature, wrow)))
        rep.notes.append("kernel meets the raised space")
    # the sum must fill the slice level by level; a degree-d element may
    # decompose through higher-degree pieces, so the sum is restricted to
    # each level only after being assembled on the whole window.
    both = Echelon()
    for r in h_vecs + img_vecs:
        both.insert(r)
    sum_rows = [dict(r) for r in both.basis()]
    for d in range(0, D - margin + 1):
        dim_a = _monos_up_to(idx, d)
        if dim_a == 0:
            continue
        zone = _degree_zone(idx, d)
        filled = len(linalg.restrict_to_zone(sum_rows, zone))
        dim_h = len(linalg.restrict_to_zone(h_vecs, zone))
        status = "pass" if filled == dim_a else "inconclusive-window"
        statuses.append(status)
        rep.dims.append(
            {"d": d, "dimA": dim_a, "dimH": dim_h, "dimSum": filled, "status": status}
        )
    rep.status = _combine(statuses) if statuses else "inconclusive-window"
    if not rep.dims:
        rep.notes.append("slice empty on every verified level")
    return rep


def _stable_under_action(cfg, vectors, idx, D) -> tuple[bool, str | None]:
    """Check the span of vectors is action-stable on the window (exact images
    of in-window vectors that stay in-window must lie back in the span)."""
    ech = Echelon()
    for p in vectors:
        ech.insert(idx.vec(p))
    for e in osp_basis(cfg, "all"):
        op = rep_element(cfg, e)
        for p in vectors:
            image = op(p)
            if image.is_zero() or image.max_degree() > D:
                continue
            if not ech.contains(idx.vec(image)):
                return False, f"action of {e} leaves the span on {p}"
    return True, None


def _generates_layer(seed_vec, top_vectors, bottom_vectors, key, idx, margin):
    """Does <seed> + bottom cover top on the verified window levels?

    Returns (True, -1) or (False, first failing degree level).
    """
    gen = generate_submodule(key, [seed_vec], margin)
    lhs_vecs = [idx.vec(p) for p in gen.vectors + bottom_vectors]
    rhs_vecs = [idx.vec(p) for p in top_vectors]
    for d in range(0, key.max_degree - margin + 1):
        zone = _degree_zone(idx, d)
        lhs_ech = linalg.span(linalg.restrict_to_zone(lhs_vecs, zone))
        for r in linalg.restrict_to_zone(rhs_vecs, zone):
            if not lhs_ech.contains(r):
                return False, d
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
    top = harmonic_space(key)
    lower, _ = delta_eta(cfg)
    statuses = []

    # every chain term consists of exactly harmonic vectors of grading k
    for name, vectors in chain:
        for v in vectors:
            if not lower(v).is_zero():
                rep.witnesses.append(str(v))
                rep.notes.append(f"{name}: member not harmonic")
                statuses.append("fail")

    terms = [("H", top.vectors)] + chain + [("0", [])]
    # inclusions and strictness on the verified window
    top_level = D - margin
    zone = _degree_zone(idx, top_level)
    dims = []
    for name, vectors in terms:
        rows = linalg.restrict_to_zone(
            [idx.vec(p) for p in vectors if p.max_degree() <= D], zone
        )
        dims.append((name, rows))
    for (name_hi, rows_hi), (name_lo, rows_lo) in zip(dims, dims[1:]):
        hi_ech = Echelon()
        for rr in rows_hi:
            hi_ech.insert(rr)
        included = all(hi_ech.contains(rr) for rr in rows_lo)
        strict = len(rows_lo) < hi_ech.dim
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
                "dim_outer": hi_ech.dim,
                "dim_inner": len(rows_lo),
                "status": statuses[-1],
            }
        )

    # action stability of the middle terms
    for name, vectors in chain:
        ok, note = _stable_under_action(cfg, vectors, idx, D)
        if not ok:
            statuses.append("fail")
            rep.notes.append(f"{name}: {note}")

    # layer irreducibility evidence: every singular vector of each layer
    # generates the layer over the next term down.  In the exact regime a
    # failure is a disproof (the closure is a true invariant subspace);
    # otherwise it may be a window artifact.
    exact = slice_is_exact(cfg, k, D)
    miss = "fail" if exact else "inconclusive-window"
    for (name_hi, hi_vecs), (name_lo, lo_vecs) in zip(terms[:-1], terms[1:]):
        sing = singular_vectors(key, "positive", "A", modulo=lo_vecs or None)
        hi_ech = linalg.span([idx.vec(p) for p in hi_vecs])
        lo_ech = linalg.span([idx.vec(p) for p in lo_vecs])
        layer_sing = []
        for s in sing:
            v = idx.vec(s)
            if hi_ech.contains(v) and not lo_ech.contains(v):
                layer_sing.append(s)
        if not layer_sing:
            statuses.append(miss)
            rep.notes.append(f"no singular vector found for layer {name_hi}/{name_lo}")
            continue
        for s in layer_sing:
            ok, bad_d = _generates_layer(s, hi_vecs, lo_vecs, key, idx, margin)
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
    if cfg.family == "A":
        return cfg.r == 0 and max_degree >= k
    return not cfg.T and max_degree >= k


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
    import random as _random

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
        rng = _random.Random(seed)
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
            for d in range(0, D - margin + 1):
                dim_a = _monos_up_to(idx, d)
                if dim_a == 0:
                    continue
                got = _dim_at_degree(idx, gen.vectors, d)
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
    vecs1 = [idx.vec(p) for p in gen1.vectors]
    vecs2 = [idx.vec(p) for p in gen2.vectors]
    statuses = []
    common = linalg.intersect(vecs1, vecs2)
    if common:
        statuses.append("fail")
        for wrow in common[:2]:
            rep.witnesses.append(str(idx.poly(sig, wrow)))
        rep.notes.append("the two blocks meet nontrivially")
    both = Echelon()
    for rr in vecs1 + vecs2:
        both.insert(rr)
    sum_rows = [dict(r) for r in both.basis()]
    for d in range(0, D - margin + 1):
        dim_a = _monos_up_to(idx, d)
        if dim_a == 0:
            continue
        zone = _degree_zone(idx, d)
        filled = len(linalg.restrict_to_zone(sum_rows, zone))
        status = "pass" if filled == dim_a else "inconclusive-window"
        statuses.append(status)
        rep.dims.append(
            {"d": d, "dim_block1": gen1.dim, "dim_block2": gen2.dim,
             "dimSum": filled, "dimA": dim_a, "status": status}
        )
    rep.status = _combine(statuses) if statuses else "inconclusive-window"
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
    lower, _ = delta_eta(cfg)
    sig = cfg.signature
    monos = bigraded_monomials(cfg, s, t)
    if not monos:
        return []
    idx = MonomialIndex(monos)
    images = [lower(SuperPolynomial.from_monomial(sig, m)) for m in monos]
    img_idx = _image_index(images)
    combos = linalg.kernel(
        linalg.exact_int_columns([img_idx.vec_fraction(p) for p in images])
    )
    return [idx.poly(sig, row) for row in combos]
