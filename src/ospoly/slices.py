"""Finite-dimensional analysis of graded slices.

Everything infinite is cut down to the slice

    {monomials with grading k and total degree <= D}

which is finite for every configuration.  Operators never truncate: applying
one to a slice vector produces its exact image (possibly of degree D+1 or
D+2).  What *is* windowed is closure: when generating a submodule we skip an
operator application whose image would leave the degree-D window, so the
computed span is always a subspace of the true submodule ("from below").
The eta terms of a composition series are exact instead: eta^p raises degree
by exactly 2p there, so their window part is eta^p of a harmonic slice.
Comparisons between from-below spans are therefore made only on degrees
d <= D - margin and reported as from-below evidence; verdicts that could
flip with a larger window are labeled "inconclusive-window", never "pass".

Kernels are different: the lowering operator never raises degree, so its
kernel computed on a slice is exactly the harmonic space intersected with
the slice, and its kernel on the monomials of degree <= d is exactly the
harmonic part of degree <= d.  Mixed checks exploit this asymmetry (kernel
side exact, image side from below); the direct sum reads every dimension it
reports off ranks of lowering images and never builds a basis of H.

A window's vectors are sparse integer rows keyed by packed monomial code
(``superpoly.CodeLayout``): codes sort in canonical order (total degree,
exponents, mask), so the pivot rule "smallest code" is "smallest monomial
in graded-lex order", and the codes of degree <= d are exactly those below
``MonomialIndex.level_bound(d)``.  All linear algebra is exact over the
rationals via fraction-free integer elimination; degree levels are read
from filtrations and rank profiles, which pivot on the largest code.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import inf, lcm

from . import linalg
from .osp import (
    RepConfig,
    Weight,
    aprime_normalize,
    check_int,
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
    CodeLayout,
    SuperMonomial,
    SuperPolynomial,
    act_on_terms,
    compile_atoms,
    theta_word,
)

# Every atom of an osp element, of the lowering and of the raising operator
# is a chain of two actions, so an image lies at most 2 degrees past its source.
_CHAIN = 2


@dataclass(frozen=True)
class SliceKey:
    """One finite window: fixed grading k, total degree <= max_degree."""

    cfg: RepConfig
    k: int
    max_degree: int

    def __post_init__(self):
        check_int("k", self.k)
        check_int("max_degree", self.max_degree)
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


class MonomialIndex:
    """One window: its key and the packed codes of its monomials.

    The codes are in ``layout`` (bound D + 2, as every atom is a chain of
    two actions) and are the coordinates of every row over the window.
    They are ``slice_codes`` of the key, ascending, which is canonical
    order.  ``members`` is the set of the codes; a code's total degree is
    its top bits, so the codes of degree <= d are those below
    ``level_bound(d)``.  The helpers that work on a window take the index
    alone and read ``key`` and ``cfg`` from it.  What they need of the
    algebra is built once per window, on first use, from the weight codes:
    ``weight_codes``, the ``roots`` table, its ``positive`` programs and the
    compiled lowering and raising operators (``delta_eta``).
    """

    def __init__(self, key: SliceKey):
        self.key, self.cfg = key, key.cfg
        self.layout = CodeLayout(self.cfg.signature, key.max_degree + _CHAIN)
        self.codes = slice_codes(key, self.layout)
        self.members = set(self.codes)

    def __len__(self):
        return len(self.codes)

    def level_bound(self, d: int) -> int:
        """The least code of total degree d + 1: codes of degree <= d are
        exactly the codes below it."""
        return (d + 1) << self.layout.degree_shift

    def check(self, codes) -> None:
        """A KeyError for the first of codes that is not a slice member."""
        members = self.members
        for code in codes:
            if code not in members:
                raise KeyError(f"monomial {self.layout.unpack(code)} outside the slice")

    @cached_property
    def weight_codes(self) -> tuple[dict[int, int], int]:
        """Per monomial code, the ``weight_code`` of its monomial's weight,
        and the weight code's base.

        Every coordinate of a weight of degree <= the layout's bound lies in
        -wide..wide, and the base is 2 * wide + 5, so codes sort as the
        weights do and stay one-to-one on the slice's weights and on every
        weight a root (coordinates at most 2 in size) away.

        A weight is affine in the exponents and mask bits (``_weight_table``)
        and ``weight_code`` is linear, so a code's weight code is that of 1
        plus each field's value times the field's weight code.
        """
        layout, table = self.layout, _weight_table(self.cfg)
        nb, low = layout.num_bosonic, (1 << layout.num_fermionic) - 1
        wide = max((abs(c) + layout.bound * sum(map(abs, row)) for c, row in table), default=0)
        base = 2 * wide + 5

        def code(coords):
            return weight_code(Weight(tuple(coords), ()), base)

        deltas = [code(column) for column in zip(*(row for _, row in table))]
        one = code(c for c, _ in table)
        masks = [
            one + sum(d for p, d in enumerate(deltas[nb:]) if mask >> p & 1)
            for mask in range(low + 1)
        ]
        codes, fmask = self.codes, layout.field_mask
        weights = [masks[c & low] for c in codes]
        for shift, d in zip(layout.shifts, deltas):
            if d:
                weights = [w + (c >> shift & fmask) * d for w, c in zip(weights, codes)]
        return dict(zip(codes, weights)), base

    @cached_property
    def roots(self) -> tuple:
        """(element, program, root code) per element of ``osp_basis`` with a
        nonzero root code, the ``weight_code`` of its ``element_root``, in that
        order; the program is its ``rep_element`` atoms, which have int
        coefficients, compiled for ``layout``.  Root coordinates are at most
        2 < base / 2 in size, so the code is 0 exactly on the Cartan elements."""
        cfg, (_, base) = self.cfg, self.weight_codes
        steps = [(e, weight_code(element_root(cfg, e), base)) for e in osp_basis(cfg)]
        return tuple(
            (e, compile_atoms(rep_element(cfg, e).atoms, self.layout), step)
            for e, step in steps if step
        )

    @cached_property
    def positive(self) -> tuple:
        """The programs of ``roots`` with a positive root code, in order: the
        roots that are positive in the lexicographic order (``Weight``)."""
        return tuple(program for _, program, step in self.roots if step > 0)

    @cached_property
    def delta_eta(self) -> tuple:
        """The lowering and raising operators of ``osp.delta_eta``, whose
        atoms have int coefficients, compiled."""
        return tuple(compile_atoms(op.atoms, self.layout) for op in delta_eta(self.cfg))

    def vec(self, poly: SuperPolynomial) -> dict[int, int]:
        """Content-free integer row of poly; a monomial outside the window,
        ``layout`` able to pack it or not, raises ValueError."""
        out = {}
        for m, c in poly.terms.items():
            try:
                code = self.layout.pack(m)
            except ValueError:  # past the layout's degree bound or signature
                code = None
            if code not in self.members:
                raise ValueError(f"monomial {m} outside the slice")
            out[code] = c
        return linalg.vec_from_fractions(out)

    def poly(self, row: dict[int, int]) -> SuperPolynomial:
        unpack = self.layout.unpack
        frac = linalg.row_to_fractions(row)
        return SuperPolynomial(self.cfg.signature, {unpack(code): c for code, c in frac.items()})


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
        for name, value in [("k", self.k), ("D", self.max_degree), ("margin", self.margin)]:
            check_int(name, value)
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


def slice_codes(key: SliceKey, layout: CodeLayout) -> list[int]:
    """The codes in layout of all monomials with grading k and total degree
    <= D, ascending, which is canonical order; layout's bound is >= D.

    A swapped bosonic variable counts -1 to the grading, every other
    variable +1.  So on total degree k + 2b <= D the swapped exponents sum
    to b, and t fermions leave unswapped degree k - t + b >= 0.  A code is
    the degree field plus one code per variable group plus a mask, and no
    field carries, so each degree's codes are sums of parts, sorted as ints.
    """
    cfg, k, D = key.cfg, key.k, key.max_degree
    bs = range(max(0, -k), (D - k) // 2 + 1)
    if not bs:
        return []
    weights, _ = variable_k_weights(cfg)
    up = _part_codes([s for s, w in zip(layout.shifts, weights) if w > 0], k + bs[-1])
    down = _part_codes([s for s, w in zip(layout.shifts, weights) if w < 0], bs[-1])
    nf = layout.num_fermionic
    masks = [[m for m in range(1 << nf) if m.bit_count() == t] for t in range(nf + 1)]
    out = []
    for b in bs:
        degree, level = (k + 2 * b) << layout.degree_shift, []
        for t in range(min(nf, k + b) + 1):
            bos = [degree + u + v for u in up[k - t + b] for v in down[b]]
            level += [c + m for c in bos for m in masks[t]]
        level.sort()
        out += level
    return out


def _part_codes(shifts, top) -> list[list[int]]:
    """Per total s = 0..top, the codes sum(e_i << shifts[i]) of the exponent
    tuples e with entries summing to s."""
    parts = [[0]] + [[] for _ in range(top)]
    for shift in shifts:
        parts = [
            [c + (e << shift) for e in range(s + 1) for c in parts[s - e]] for s in range(top + 1)
        ]
    return parts


def slice_monomials(key: SliceKey) -> list[SuperMonomial]:
    """All monomials with grading k and total degree <= D, canonical order:
    ``slice_codes`` unpacked."""
    layout = CodeLayout(key.cfg.signature, key.max_degree)
    return list(map(layout.unpack, slice_codes(key, layout)))


# ---------------------------------------------------------------------------
# harmonic kernels


def _lowering_kernel(idx: MonomialIndex, codes) -> list[dict[int, int]]:
    """Exact kernel of the lowering operator on the span of the monomial
    codes, ascending and in idx's layout: ``linalg.kernel`` of e_i -> image
    of codes[i], as integer rows over the codes.

    The operator's program is compiled once per window.  Relabelling i to
    codes[i] keeps the order, so the kernel's basis stays canonical.
    """
    program = idx.delta_eta[0]
    combos = linalg.kernel([act_on_terms(program, ((code, 1),)) for code in codes])
    return [{codes[i]: c for i, c in combo.items()} for combo in combos]


def harmonic_space(key: SliceKey) -> list[SuperPolynomial]:
    """Exact kernel of the lowering operator on the slice."""
    idx = MonomialIndex(key)
    return [idx.poly(row) for row in _lowering_kernel(idx, idx.codes)]


# ---------------------------------------------------------------------------
# singular vectors


def singular_vectors(
    idx: MonomialIndex,
    within: str = "H",
    modulo: list[dict[int, int]] | None = None,
    weights=None,
) -> list[dict[int, int]]:
    """Weight vectors annihilated by the positive root elements
    (``idx.positive``) on the slice.

    ``modulo`` and the returned vectors are integer rows over idx.  within
    "H" intersects with the kernel of the lowering operator; "A" does not.
    The layer checks of ``verify_composition_series`` solve within "A".
    "H" gives the singular vectors of the harmonic space itself, which the
    planned check of H's irreducibility outside the chain window solves
    (ROADMAP item 2); no verifier calls it yet.
    With ``modulo`` the annihilation conditions are relaxed to "image lies
    in the span of these rows" (quotient singular vectors; the span is used
    as given, so from-below inputs keep the result from-below sound: every
    reported vector genuinely maps into the provided span).

    Every returned vector is exactly annihilated (resp. mapped into the
    span): operator images are computed without truncation.

    A monomial's image is an integer row over codes from ``act_on_terms``.
    The positive operators keep the grading, so an image code of degree
    <= D outside the slice raises KeyError, checked once per weight group.
    Positive images are taken modulo the span, echelonized once per call, by
    ``Echelon.remainder`` with one common multiple of its pivot entries, so
    the remainder stays linear in the image.  Each weight group of idx
    (``idx.weight_codes``) stacks its images under rows keyed by (operator,
    image code); its kernel is the canonical echelon basis over the group's
    codes, so neither row labels nor the per-operator and common scale
    factors affect the result.

    ``weights``, a set of weight codes, solves only those groups: each group
    is solved on its own, so the result is the unrestricted one filtered to
    them, in the same order.  A caller that keeps only the vectors in a
    span hi of weight vectors and outside a span lo may pass the weights of
    hi's echelon rows outside lo: those rows are weight vectors, so a weight
    whose rows all lie in lo holds no vector of hi outside lo.
    """
    top = idx.level_bound(idx.key.max_degree)
    # images of the first num_mod operators are taken modulo the span, the
    # lowering operator must annihilate outright
    ops = list(idx.positive)
    num_pos = len(ops)
    num_mod = num_pos if modulo else 0
    if within == "H":
        ops.append(idx.delta_eta[0])
    elif within != "A":
        raise ValueError("within must be 'H' or 'A'")

    groups: dict = {}
    for code, w in idx.weight_codes[0].items():
        if weights is None or w in weights:
            groups.setdefault(w, []).append(code)

    if modulo and groups:
        mod_ech = linalg.span(modulo)
        pivots_lcm = lcm(*(row[q] for q, row in mod_ech.rows.items()))

    out = []
    for w in sorted(groups):
        cols = groups[w]
        rows: dict = {}
        stacked: list[dict[int, int]] = [{} for _ in cols]
        for oi, program in enumerate(ops):
            for col, code in zip(stacked, cols):
                image = act_on_terms(program, ((code, 1),))
                if oi < num_mod:
                    image = mod_ech.remainder(image, pivots_lcm)
                for j, c in image.items():
                    col[rows.setdefault((oi, j), len(rows))] = c
        idx.check(j for oi, j in rows if oi < num_pos and j < top)
        for combo in linalg.kernel(stacked):
            out.append({cols[j]: c for j, c in combo.items()})
    return out


# ---------------------------------------------------------------------------
# windowed submodule generation


def generate_submodule(
    idx: MonomialIndex, gens: list[dict[int, int]], on_row=None
) -> list[dict[int, int]]:
    """Closure of gens under the action, capped at degree D.

    An operator application whose image would leave the window is skipped
    entirely (never truncated), so the span is a subspace of the true
    submodule; callers compare against it only on degrees <= D - margin.

    gens and the returned canonical echelon basis are integer rows over idx.
    The queue starts as the canonical basis of span(gens), so the result does
    not depend on the order of gens.  Each root element is compiled once per
    window (``idx.roots``), and ``act_on_terms`` builds a popped
    row's images straight from its (code, coefficient) items.  An image is
    skipped exactly when a coefficient on a monomial of degree > D (a code
    at or above ``idx.level_bound(D)``) is nonzero after cancellation.

    Most in-window images already lie in the span.  Each goes through one
    ``Echelon.remainder`` call, with no normalization; an image whose
    remainder is zero is rejected there, and only a nonzero remainder
    reaches ``Echelon.insert``, which stores it as a new row and queues it
    as it returns it.  A code outside the slice raises KeyError there: no
    stored row holds it, so it survives in the remainder.

    The queue is last-in first-out, and that order is part of the result:
    whether an image leaves the window depends on which representative of a
    class was queued, so another order can give another windowed span.
    First-in first-out moves A'(2,2,{1,3}) k1 D8 m3 from "pass" to
    "inconclusive-window".

    ``on_row``, when given, is called with each row the closure adds, first
    the rows of the generators' basis, and together these rows span the
    closure so far.  A true return stops the closure; the basis returned is
    then that of the span so far.

    Every generator must be a weight vector (its codes share one
    ``MonomialIndex.weight_codes`` code); one that is not is a ValueError.
    Then every echelon row is a weight vector, with its pivot's weight, and
    a root element maps a row of weight code w to w + its root code
    (``idx.roots``), so an image is not built at all when weights alone show
    it cannot add a row.  room[u] counts the slice monomials of weight code
    u less the rows whose pivot has weight code u; at 0 the rows span the
    slice's weight-u space, so an image of weight u is zero, leaves the
    window or lies in the span, and inserting it would change nothing.  A
    Cartan element only rescales a weight vector and is not in ``idx.roots``.
    """
    if not gens:
        raise ValueError("empty generator list")
    top = idx.level_bound(idx.key.max_degree)
    weights, _ = idx.weight_codes
    for g in gens:
        if len({weights[i] for i in g}) > 1:
            raise ValueError(f"generator {idx.poly(g)} is not a weight vector")
    room = Counter(weights.values())
    ech = linalg.span(gens)
    queue = ech.basis()
    for row in queue:
        room[weights[min(row)]] -= 1
    stop = on_row is not None and any(map(on_row, queue))
    while queue and not stop:
        v = queue.pop()
        w = weights[min(v)]
        for _, program, step in idx.roots:
            u = w + step
            if not room.get(u):  # a weight outside the slice has no entry
                continue
            image = act_on_terms(program, v.items())
            if not image or max(image) >= top:
                continue
            rest = ech.remainder(image)
            if not rest:
                continue
            idx.check(rest)
            row = ech.insert(rest)
            room[u] -= 1
            queue.append(row)
            if on_row is not None and (stop := on_row(row)):
                break
    return ech.basis()


# ---------------------------------------------------------------------------
# helpers shared by the verifiers


def _check_direct_sum(rep, idx, first, second, meet_note, level_dims):
    """Do span(first) and span(second) meet trivially and fill the slice?
    The A' two-block split's check; ``verify_direct_sum`` has its own.

    first must be linearly independent.  One ``rank_profile`` of the sum, with
    second counted first, gives Grassmann's formula dim(meet) = len(first) +
    rank(second) - rank(sum); only a nonzero meet runs ``intersect``, whose
    first two rows are genuine witnesses (both spans lie inside the true
    spaces), recorded with meet_note.  Each nonempty level d <= D - margin must
    be filled; ``_fill_levels`` counts it off the whole-window pivots, as a
    degree-d element may decompose through higher-degree pieces.  Sets rep.status.
    """
    statuses = []
    pivots, (rank_second, rank_sum) = linalg.rank_profile(second, first)
    if len(first) + rank_second > rank_sum:
        statuses.append("fail")
        _add_witnesses(rep, idx, linalg.intersect(first, second), meet_note)
    statuses += _fill_levels(rep, idx, _pivot_count(idx, pivots), level_dims)
    rep.status = _combine(statuses) if statuses else "inconclusive-window"


def _add_witnesses(rep, idx, meet, note) -> None:
    """Record the first two rows of a nonzero meet's canonical basis, which
    are genuine witnesses, and the note that names the meet."""
    for wrow in meet[:2]:
        rep.witnesses.append(str(idx.poly(wrow)))
    rep.notes.append(note)


def _pivot_count(idx, pivots):
    """filled for ``_fill_levels`` from a span's ``rank_profile`` pivots,
    ascending: its part on level d has one dimension per pivot below
    ``idx.level_bound(d)``."""
    return lambda d, _: bisect_left(pivots, idx.level_bound(d))


def _fill_levels(rep, idx, filled, level_dims) -> list[str]:
    """Does a span fill the slice on each nonempty level d <= D - margin?

    dimA counts the slice codes below ``idx.level_bound(d)``, and filled(d,
    dimA) is the dimension of the span's part on level d.  Appends a dims
    entry per level, level_dims(d, dimA, filled) plus degree and status, and
    returns the statuses.
    """
    statuses = []
    for d in range(0, rep.max_degree - rep.margin + 1):
        dim_a = bisect_left(idx.codes, idx.level_bound(d))
        if dim_a == 0:
            continue
        got = filled(d, dim_a)
        status = "pass" if got == dim_a else "inconclusive-window"
        statuses.append(status)
        rep.dims.append({"d": d, **level_dims(d, dim_a, got), "status": status})
    return statuses


def _q_is_regular(cfg: RepConfig) -> bool:
    """Does q = eta(1) hold a purely bosonic term: x_m1 x_2m1 (family A,
    r < m1) or x_m^2 (odd m)?  Then q is no zero divisor, and eta f has the
    degree of f plus 2 (eta keeps degree apart from multiplication by q)."""
    return cfg.family == "A" and not (cfg.m_parity == "even" and cfg.r == cfg.m1)


def eta_image(idx: MonomialIndex, power: int) -> list[dict[int, int]]:
    """eta^power of the harmonic space H(k - 2*power), exactly on the window
    idx, the slice (k, <= D), as filtration rows over idx.

    Write eta as a degree-keeping part plus multiplication by q = eta(1).
    Where q is regular (``_q_is_regular``) eta^p f has degree deg f + 2p, and
    the window part of span(eta^p H(k - 2p)) is eta^p of H(k - 2p) on degree
    <= D - 2p (none when D < 2p).  H(k - 2p) is solved on the source
    slice's codes in idx's layout, with idx's compiled programs, and each
    eta step maps code rows to code rows.  A final row with a monomial
    outside idx raises KeyError.  Where q is nilpotent (A', and even m with
    r = m1) eta can lower the degree of a combination: a ValueError.
    """
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    if not _q_is_regular(cfg):
        raise ValueError(f"{cfg.describe()}: q = eta(1) is nilpotent, so eta^p H is not exact")
    if D < 2 * power:
        return []
    source = SliceKey(cfg, k - 2 * power, D - 2 * power)
    rows = _lowering_kernel(idx, slice_codes(source, idx.layout))
    program = idx.delta_eta[1]
    for _ in range(power):
        rows = [act_on_terms(program, row.items()) for row in rows]
    for row in rows:
        idx.check(row)
    return linalg.filtration(rows)


def eta_span_of_slice(idx: MonomialIndex) -> list[dict]:
    """eta applied to every monomial of the slice (k - 2, <= D), as
    content-free integer rows over idx, the slice (k, <= D).

    An image is dropped, never truncated, when it is zero or when a code of
    degree > D survives cancellation, so the span lies inside the true
    raised space; a kept image with a monomial outside idx raises KeyError.
    Where q = eta(1) is regular the image of a monomial of degree > D - 2
    has degree > D and is always dropped, so the source stops at degree
    D - 2 (none when D < 2).
    """
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    source_top = D - 2 if _q_is_regular(cfg) else D
    if source_top < 0:
        return []
    program = idx.delta_eta[1]
    top = idx.level_bound(D)
    out = []
    for code in slice_codes(SliceKey(cfg, k - 2, source_top), idx.layout):
        image = act_on_terms(program, ((code, 1),))
        if image and max(image) < top:
            idx.check(image)
            out.append(linalg.normalize(image))
    return out


# ---------------------------------------------------------------------------
# claim verifiers


def verify_direct_sum(
    cfg: RepConfig, k: int, max_degree: int, margin: int = 4, seed: int | None = None
) -> VerificationReport:
    """Windowed check that the slice A splits as H + V, H = ker Delta the
    exact harmonic side and V the raised side from below: the span of
    ``eta_span_of_slice``, which lies inside A.  The meet must be zero, and
    H + V must fill each nonempty level d <= D - margin, A_<=d being the
    codes below ``idx.level_bound(d)``.

    No basis of H is built.  Every number is read off images under Delta,
    since H is its kernel on A:
      H . V = ker(Delta|V), so dim meet = rank V - rank Delta V;
      H + V = {x in A : Delta x in Delta V}, so dimSum(d) = #A_<=d -
        (rank(Delta V + Delta A_<=d) - rank Delta V);
      dimH(d) = #A_<=d - rank Delta A_<=d.
    The ranks come from two ``rank_profile`` calls over the Delta images of
    the codes of degree <= D - margin, one part per level, the first with
    Delta V counted first.  rank V is needed only when Delta V has rank
    below len(V); otherwise the meet is zero.  A nonzero meet's witnesses
    are the first two rows of its canonical basis, the combinations of V
    that ``linalg.kernel_basis`` of Delta V gives.
    """
    D = max_degree
    rep = VerificationReport("direct-sum", cfg, k, D, margin, seed, "pass")
    idx = MonomialIndex(SliceKey(cfg, k, D))
    lower = idx.delta_eta[0]
    raised = eta_span_of_slice(idx)
    low_raised = [act_on_terms(lower, row.items()) for row in raised]
    cuts = [bisect_left(idx.codes, idx.level_bound(d)) for d in range(D - margin + 1)]
    images = [act_on_terms(lower, ((code, 1),)) for code in idx.codes[: cuts[-1]]]
    levels = [images[a:b] for a, b in zip([0] + cuts, cuts)]
    _, (rank_low_raised, *sum_ranks) = linalg.rank_profile(low_raised, *levels)
    _, low_ranks = linalg.rank_profile(*levels)
    del images, levels  # a nonzero meet's witnesses need the memory
    statuses, dim_meet = [], 0
    if rank_low_raised < len(raised):  # else Delta is injective on V's rows
        _, (rank_raised,) = linalg.rank_profile(raised)
        dim_meet = rank_raised - rank_low_raised
    if dim_meet:
        statuses.append("fail")
        meet = linalg.combination_basis(raised, linalg.kernel_basis(low_raised))
        _add_witnesses(rep, idx, meet, "kernel meets the raised space")
    statuses += _fill_levels(
        rep, idx,
        lambda d, dim_a: dim_a - sum_ranks[d] + rank_low_raised,
        lambda d, dim_a, filled: {"dimA": dim_a, "dimH": dim_a - low_ranks[d], "dimSum": filled},
    )
    rep.status = _combine(statuses) if statuses else "inconclusive-window"
    if not rep.dims:
        rep.notes.append("slice empty on every verified level")
    return rep


def _stable_under_action(rows, ech, idx) -> tuple | None:
    """The first (element, position in rows) whose exact image leaves the
    span ech of rows while staying in the window, or None when the span is
    action-stable on the window; a leak with a monomial outside the slice
    raises KeyError."""
    top = idx.level_bound(idx.key.max_degree)
    # a Cartan element keeps every weight space, so it never leaks
    for e, program, _ in idx.roots:
        for i, row in enumerate(rows):
            image = act_on_terms(program, row.items())
            if image and max(image) < top and not ech.contains(image):
                idx.check(image)
                return e, i
    return None


def _generates_layer(seed_row, top_rows, bottom_rows, idx):
    """Does <seed> + bottom cover top on the verified window levels?

    seed_row and bottom_rows are integer rows over idx; top_rows are top's
    filtration rows on the verified window.  A row r of degree <= d lies in
    span(lhs . {deg <= d}) exactly when it lies in span(lhs), so the first
    row outside span(lhs) names the first failing level: the total degree
    of its pivot monomial, the pivot code's top bits.

    lhs grows from bottom by each row the closure of seed adds, and full
    from bottom + top alike.  Top lies in lhs exactly when the two have one
    dim, and stays there as rows are added, so the closure stops at the
    first row that covers top, and none is built when bottom does.  A
    closure that never covers top runs to its end: lhs is then the whole
    closure + bottom.

    Returns (True, -1) or (False, first failing degree level).
    """
    lhs, full = linalg.span(bottom_rows), linalg.span(bottom_rows + top_rows)

    def covered(row):
        if lhs.insert(row) is not None:
            full.insert(row)
        return lhs.dim == full.dim

    if lhs.dim < full.dim:
        generate_submodule(idx, [seed_row], covered)
    if lhs.dim == full.dim:
        return True, -1
    missed = next(r for r in top_rows if not lhs.contains(r))
    return False, max(missed) >> idx.layout.degree_shift


def verify_composition_series(
    cfg: RepConfig, k: int, max_degree: int, margin: int = 4, seed: int | None = None
) -> VerificationReport:
    """Check the claimed chain of submodules inside the harmonic slice.

    With c = n - m1 + r + 1 the eta term is eta^(k-c) H(k = 2c - k):
      r = 0,          c < k <= 2c: chain H > eta^(k-c) H' > 0;
      0 < r < m1 - 1, c < k:       the same chain;
      r = m1 - 1 > 0, c = n < k:   chain H > <x_m1^k> > eta^(k-c) H' > 0;
      r = m1 >= 1:                 rejected (x_m1 is swapped);
      m1 = 0:                      rejected (no bosonic variable).
    For r > 0, k > 2c gives k_inner < 0, which swapped variables allow
    (A(3,1,1) k2 builds eta^2 H(k=-2)).  For k > D the slice is empty, and
    every branch reports each term empty: "inconclusive-window".
    Checks: membership of each term in the next one up, action stability,
    strictness on the window, and that every singular vector of each layer
    generates it (windowed sufficient criterion for layer irreducibility).
    Terms are integer rows over the slice index, printed through it; the
    eta term is exact (``eta_image``), only <x_m1^k> is from below.
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
    if r == m1:
        raise ValueError(
            f"r = m1 = {m1}: x{m1} is swapped, so x{m1}^k has grading -k and the "
            "chain H > <x_m1^k> > ... does not apply"
        )
    c = n - m1 + r + 1
    top = 2 * c if r == 0 else inf
    if not c < k <= top:
        raise ValueError(f"k={k} outside the window ({c}, {top}]")
    power, k_inner = k - c, 2 * c - k

    idx = MonomialIndex(SliceKey(cfg, k, D))
    chain = [("eta^%d H(k=%d)" % (power, k_inner), eta_image(idx, power))]
    if 0 < r == m1 - 1:  # the last branch: H > <x_m1^k> > eta^j H' > 0
        x_rows = []
        if k <= D:  # x_m1^k has degree k; for k > D the slice is empty
            x_power = SuperPolynomial.x(cfg.signature, m1) ** k
            x_rows = generate_submodule(idx, [idx.vec(x_power)])
        chain.insert(0, ("<x%d^%d>" % (m1, k), x_rows))

    # each term once as a span (membership) and once as its filtration rows
    # on the verified window; a window row lies in the window part of a span
    # exactly when it lies in the span
    top_level = D - margin
    bound = idx.level_bound(top_level)
    terms = []
    for name, rows in [("H", _lowering_kernel(idx, idx.codes))] + chain + [("0", [])]:
        window_rows = linalg.restrict_to_zone(linalg.filtration(rows), bound)
        terms.append((name, rows, linalg.span(rows), window_rows))
    # Delta, eta and the action keep weights, so each term's echelon rows are
    # weight vectors: a layer's singular vectors are solved only on the
    # weights of its rows outside the next term down
    codes = idx.weight_codes[0]
    for name, _, ech, _ in terms:
        if any(len({codes[i] for i in row}) > 1 for row in ech.rows.values()):
            raise ValueError(f"{name}: an echelon row is no weight vector")
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

    # action stability of the middle terms; outside the exact regime a leak
    # is inconclusive, as <x_m1^k> is from below (the exact eta term alike)
    for name, rows, ech, _ in terms[1:-1]:
        leak = _stable_under_action(rows, ech, idx)
        if leak:
            e, i = leak
            statuses.append(miss)
            window = "" if exact else f" (term from below on the window D={D})"
            member = idx.poly(rows[i])
            rep.notes.append(f"{name}: action of {e} leaves the span on {member}{window}")

    # layer irreducibility evidence: every singular vector of each layer
    # generates the layer over the next term down; singular vectors are
    # solved only on the weights where the layer is nonzero
    for (name_hi, _, ech_hi, rows_hi), (name_lo, lo_rows, ech_lo, _) in layers:
        live = {codes[p] for p, row in ech_hi.rows.items() if not ech_lo.contains(row)}
        sing = singular_vectors(idx, "A", modulo=lo_rows, weights=live)
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
            work = aprime_normalize(cfg)
            rep.notes.append(f"normalized to {work.describe()}")
    else:
        split_case = False
    least = 0 if split_case else 1  # the split case seeds its extreme vector
    check_int("num_seeds", num_seeds)
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
        pool = list(idx.codes)
        rng.shuffle(pool)
        for code in pool[:num_seeds]:
            seeds.append(SuperPolynomial.from_monomial(sig, idx.layout.unpack(code)))
        statuses = []
        for s in seeds:
            reached, _ = linalg.rank_profile(generate_submodule(idx, [idx.vec(s)]))
            statuses += _fill_levels(
                rep, idx, _pivot_count(idx, reached),
                lambda _, dim_a, got: {"seed": str(s), "dim_reached": got, "dimA": dim_a},
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
        lambda _, dim_a, filled: {
            "dim_block1": len(gen1), "dim_block2": len(gen2), "dimSum": filled, "dimA": dim_a
        },
    )
    return rep
