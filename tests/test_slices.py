"""Slice enumeration, kernels, singular vectors, closures, verifiers.

Expected dimensions are frozen from the brute-force oracles in oracles.py
(independent enumeration + dense rational nullspace).
"""

import json
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from ospoly import linalg, slices, superpoly
from ospoly.linalg import Echelon, filtration, restrict_to_zone, span, vec_from_fractions
from ospoly.osp import (
    EVEN,
    Weight,
    config_a,
    config_aprime,
    delta_eta,
    element_root,
    monomial_weight,
    osp_basis,
    rep_element,
    variable_k_weights,
    weight_code,
)
from ospoly.slices import (
    MonomialIndex,
    SliceKey,
    _generates_layer,
    _lowering_kernel,
    _q_is_regular,
    _weight_table,
    eta_image,
    eta_span_of_slice,
    generate_submodule,
    harmonic_space,
    singular_vectors,
    slice_codes,
    slice_is_exact,
    slice_monomials,
    verify_aprime_structure,
    verify_composition_series,
    verify_direct_sum,
)
from ospoly.superpoly import (
    DER_T,
    DER_X,
    MUL_T,
    MUL_X,
    CodeLayout,
    SuperMonomial,
    SuperOperator,
    SuperPolynomial,
    act_on_terms,
    apply_operator,
    compile_atoms,
    theta_word,
)
from oracles import (
    dense_nullspace,
    enumerate_slice,
    eta_polynomial,
    exponents,
    k_degree,
    naive_apply,
    osp_part,
    reference_act_on_terms,
    reference_closure,
    reference_direct_sum,
    reference_slice_monomials,
    reference_weight_codes,
    weight_of,
)

A11_R0 = config_a(1, 1, 0)
A11_R1 = config_a(1, 1, 1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def singular_polys(key, within):
    """singular_vectors over the key's own slice index, as polynomials."""
    idx = MonomialIndex(key)
    rows = singular_vectors(idx, within)
    return [idx.poly(row) for row in rows]


def closure_polys(key, gens):
    """generate_submodule of polynomial generators over the key's own slice
    index, as polynomials."""
    idx = MonomialIndex(key)
    rows = generate_submodule(idx, [idx.vec(g) for g in gens])
    return [idx.poly(row) for row in rows]


def index_over(key, monomials):
    """A window over the given monomials of key's slice: key's index with
    its codes replaced by theirs, in canonical order."""
    idx = MonomialIndex(key)
    idx.codes = sorted(map(idx.layout.pack, monomials))
    idx.members = set(idx.codes)
    return idx


def index_monomials(idx):
    """The index's monomials: its codes unpacked, in canonical order."""
    return list(map(idx.layout.unpack, idx.codes))


def oracle_slice(cfg, k, D):
    """enumerate_slice's (bos, word) pairs as monomials; t_i is bit i - 1."""
    weights, fw = variable_k_weights(cfg)
    sig = cfg.signature
    pairs = enumerate_slice(sig.num_bosonic, sig.num_fermionic, weights, fw, k, D)
    return [SuperMonomial(bos, sum(1 << (i - 1) for i in word)) for bos, word in pairs]


# -- enumeration ---------------------------------------------------------


def test_slice_k1_is_all_four_variables():
    monos = slice_monomials(SliceKey(A11_R0, 1, 4))
    assert len(monos) == 4
    names = {str(SuperPolynomial.from_monomial(A11_R0.signature, m)) for m in monos}
    assert names == {"1 * x1", "1 * x2", "1 * t1", "1 * t2"}


def test_slice_k2_dimension_eight():
    assert len(slice_monomials(SliceKey(A11_R0, 2, 4))) == 8


def test_empty_slice():
    assert len(slice_monomials(SliceKey(A11_R0, -1, 6))) == 0


def test_slice_counts_match_oracle():
    """The full monomial lists, not only their lengths; swap sets that are
    not a prefix, odd m and the D = 0 window included."""
    for cfg in [A11_R0, A11_R1, config_a(2, 1, 1), config_aprime(1, 2, {1, 2}),
                config_aprime(1, 2, {2, 3}), config_aprime(1, 2, {1, 4}),
                config_a(1, 1, 1, "odd"), config_a(2, 1, 0, "odd"),
                config_aprime(1, 2, {2, 3}, "odd")]:
        for k in range(-2, 4):
            for D in (0, 3, 5):
                got = slice_monomials(SliceKey(cfg, k, D))
                assert sorted(got) == sorted(oracle_slice(cfg, k, D)), (cfg.describe(), k, D)


@pytest.mark.parametrize("m1, n", [(1, 2), (2, 2), (1, 3)])
def test_normal_form_cells_partition_the_slice(m1, n):
    """In the A' normal form the (s, t) cells with s + t = k, cut to degree
    <= D, together hold exactly the (k, D) slice."""
    cfg = config_aprime(m1, n, set(range(1, n + 1)))
    for k in range(-2, 4):
        for D in (0, 3, 5):
            cells = [
                m
                for s in range(-D, m1 + 1)
                for m in bigraded_monomials(cfg, s, k - s)
                if m.total_degree <= D
            ]
            assert sorted(cells) == sorted(slice_monomials(SliceKey(cfg, k, D))), (k, D)


def test_slice_is_sorted_canonically():
    monos = slice_monomials(SliceKey(config_a(2, 1, 1), 0, 5))
    keys = [m.sort_key() for m in monos]
    assert keys == sorted(keys)


def _grid_configs(family, parity):
    """Family A with m1 <= 3, n <= 2 and every r, or family A' with m1 <= 2,
    n <= 2 and every swap set T."""
    if family == "A":
        return [config_a(m1, n, r, parity) for m1 in range(4) for n in range(3)
                for r in range(m1 + 1)]
    return [config_aprime(m1, n, T, parity) for m1 in range(3) for n in range(3)
            for t in range(2 * n + 1) for T in combinations(range(1, 2 * n + 1), t)]


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("family", ["A", "Aprime"])
def test_slice_codes_are_the_packed_reference_in_canonical_order(family, parity):
    """slice_codes equals the tuple reference, sorted as (degree, exponents,
    mask) tuples and then packed, element for element on every window
    k -4..6, D 0..8: code order is canonical order.  The codes are in one
    layout of bound 8, above most windows' D as a window index's bound is;
    the reference at D = 8 cut below degree D + 1 is the reference at D."""
    windows = 0
    for cfg in _grid_configs(family, parity):
        layout = CodeLayout(cfg.signature, 8)
        for k in range(-4, 7):
            want = list(map(layout.pack, reference_slice_monomials(SliceKey(cfg, k, 8))))
            for D in range(9):
                got = slice_codes(SliceKey(cfg, k, D), layout)
                assert got == want[: bisect_left(want, (D + 1) << layout.degree_shift)], (
                    cfg.describe(), k, D,
                )
                windows += bool(got)
    assert windows > 100


# -- harmonic spaces ------------------------------------------------------


def oracle_harmonic_dim(cfg, k, D):
    """Dense-nullspace oracle for the kernel of the lowering operator."""
    lower, _ = delta_eta(cfg)
    sig = cfg.signature
    monos = slice_monomials(SliceKey(cfg, k, D))
    images = [lower(SuperPolynomial.from_monomial(sig, m)) for m in monos]
    target = sorted({mm for p in images for mm in p.terms}, key=lambda m: m.sort_key())
    pos = {m: i for i, m in enumerate(target)}
    rows = [
        [images[c].terms.get(m, Fraction(0)) for c in range(len(monos))]
        for m in target
    ]
    return len(dense_nullspace(rows, len(monos)))


def test_harmonic_k2_dim_seven():
    hs = harmonic_space(SliceKey(A11_R0, 2, 2))
    assert len(hs) == 7
    assert len(hs) == oracle_harmonic_dim(A11_R0, 2, 2)


def test_harmonic_vanishes_above_n_when_fully_swapped():
    # k = n+1 = 2 with r = m1: no harmonic vectors in any window
    for D in (4, 6):
        assert len(harmonic_space(SliceKey(A11_R1, 2, D))) == 0


def test_constants_are_harmonic():
    hs = harmonic_space(SliceKey(A11_R0, 0, 0))
    assert len(hs) == 1
    assert str(hs[0]) == "1"


def test_harmonic_dims_match_oracle_swapped():
    for k in (-1, 0, 1):
        for D in (3, 4):
            got = len(harmonic_space(SliceKey(A11_R1, k, D)))
            assert got == oracle_harmonic_dim(A11_R1, k, D), (k, D)


def test_harmonic_members_are_harmonic_and_graded():
    lower, _ = delta_eta(config_a(2, 1, 1))
    hs = harmonic_space(SliceKey(config_a(2, 1, 1), 2, 5))
    assert len(hs) > 0
    for v in hs:
        assert lower(v).is_zero()
        for m in v.terms:
            assert k_degree(config_a(2, 1, 1), m) == 2


def test_harmonic_action_invariance():
    cfg = config_a(2, 1, 1)
    lower, _ = delta_eta(cfg)
    hs = harmonic_space(SliceKey(cfg, 1, 4))
    for v in hs:
        for e in osp_basis(cfg):
            assert lower(rep_element(cfg, e)(v)).is_zero()


# name: (cfg, window index, public harmonic polynomials), one slice per
# family variant and one bigraded cell of the normal-form second family
LOWERING_CASES = {
    "A211-k2": (
        config_a(2, 1, 1),
        lambda cfg: MonomialIndex(SliceKey(cfg, 2, 5)),
        lambda cfg: harmonic_space(SliceKey(cfg, 2, 5)),
    ),
    "A111-odd": (
        config_a(1, 1, 1, "odd"),
        lambda cfg: MonomialIndex(SliceKey(cfg, 1, 4)),
        lambda cfg: harmonic_space(SliceKey(cfg, 1, 4)),
    ),
    "Aprime12-cell": (
        config_aprime(1, 2, {1, 2}),
        lambda cfg: _cell_index(cfg, -1, 2),
        lambda cfg: bigraded_harmonic(cfg, -1, 2),
    ),
}


@pytest.mark.parametrize("case", sorted(LOWERING_CASES))
def test_integer_lowering_kernel_matches_the_polynomial_action(case):
    """The integer-row kernel equals the dense nullspace of naive_apply's
    images, and the public polynomials span the same space."""
    cfg, index, public = LOWERING_CASES[case]
    idx = index(cfg)
    sig = cfg.signature
    lower, _ = delta_eta(cfg)
    images = [
        naive_apply(lower, SuperPolynomial.from_monomial(sig, m)) for m in index_monomials(idx)
    ]
    target = sorted({m for p in images for m in p.terms}, key=lambda m: m.sort_key())
    dense = [[p.terms.get(m, 0) for p in images] for m in target]
    oracle = [
        vec_from_fractions({idx.codes[i]: c for i, c in enumerate(v) if c})
        for v in dense_nullspace(dense, len(idx))
    ]
    want = span(oracle).basis()
    assert 0 < len(want) < len(idx)
    assert _lowering_kernel(idx, idx.codes) == want
    polys = public(cfg)
    assert len(polys) == len(want)
    assert span(idx.vec(p) for p in polys).basis() == want


@pytest.mark.parametrize(
    "cfg, k, D",
    [
        (config_a(2, 1, 1), 2, 5),
        (config_a(1, 1, 1, "odd"), 1, 4),
        (config_aprime(1, 2, {1, 2}), 1, 5),
    ],
    ids=["A211", "A111-odd", "Aprime12-T12"],
)
def test_eta_span_matches_the_polynomial_action(cfg, k, D):
    """One row per nonzero in-window eta image, spanning what the polynomial
    images with max_degree() <= D span; the window drops some image."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    sig = cfg.signature
    _, eta = delta_eta(cfg)
    want, dropped = [], 0
    for m in slice_monomials(SliceKey(cfg, k - 2, D)):
        image = naive_apply(eta, SuperPolynomial.from_monomial(sig, m))
        if image.is_zero():
            continue
        if image.max_degree() > D:
            dropped += 1
            continue
        want.append(idx.vec(image))
    rows = eta_span_of_slice(idx)
    assert dropped and want
    assert len(rows) == len(want)
    assert span(rows).basis() == span(want).basis()


def unbounded_eta_span(idx):
    """eta_span_of_slice with the source slice (k - 2) up to degree D, and
    how many kept rows come from a source monomial of degree > D - 2."""
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    program, top = idx.delta_eta[1], idx.level_bound(D)
    rows, late = [], 0
    for m in slice_monomials(SliceKey(cfg, k - 2, D)):
        image = act_on_terms(program, ((idx.layout.pack(m), 1),))
        if image and max(image) < top:
            rows.append(linalg.normalize(image))
            late += m.total_degree > D - 2
    return rows, late


@pytest.mark.parametrize(
    "cfg, k, D, regular",
    [
        (config_a(2, 1, 1), 2, 5, True),
        (config_a(1, 1, 1, "odd"), 1, 4, True),
        (config_a(2, 2, 1), 2, 8, True),
        (config_a(3, 1, 2), 2, 6, True),
        (config_a(2, 1, 1), 2, 1, True),
        (config_a(2, 2, 2), 2, 8, False),
        (config_aprime(1, 2, {1, 2}), 1, 5, False),
    ],
    ids=["A211", "A111-odd", "A221", "A312", "A211-D1", "A222", "Aprime12-T12"],
)
def test_eta_span_source_stops_at_D_minus_2_where_q_is_regular(
    monkeypatch, cfg, k, D, regular
):
    """Where q = eta(1) is regular an image from source degree > D - 2 never
    lands in the window, so the bounded source gives the unbounded rows,
    and none at all for D < 2; where q is nilpotent such images are kept,
    and the source runs to D."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    want, late = unbounded_eta_span(idx)
    tops = []
    real = slices.slice_codes
    monkeypatch.setattr(
        slices, "slice_codes", lambda key, layout: tops.append(key.max_degree) or real(key, layout)
    )
    assert eta_span_of_slice(idx) == want
    assert (late == 0) == regular
    if regular and D < 2:
        assert (tops, want) == ([], [])
    else:
        assert tops == [D - 2 if regular else D]


# -- singular vectors ------------------------------------------------------


def test_unique_highest_weight_vector_outside_window():
    # m1=2, n=1, k=3 > 2(n-m1+1) = 0: only x1^3 up to scale
    sing = singular_polys(SliceKey(config_a(2, 1, 0), 3, 3), "H")
    assert len(sing) == 1
    assert str(sing[0]) == "1 * x1^3"


def test_highest_weight_vectors_k1():
    sing = singular_polys(SliceKey(A11_R0, 1, 1), "H")
    assert len(sing) == 1
    assert str(sing[0]) == "1 * x1"


def test_window_slice_has_two_highest_weight_lines():
    # k = 2 inside the window: x1^2 and the quadratic invariant
    sing = singular_polys(SliceKey(A11_R0, 2, 2), "H")
    reprs = {str(s) for s in sing}
    assert "1 * x1^2" in reprs
    assert "1 * t1 t2 + 1 * x1 x2" in reprs
    assert len(sing) == 2


def test_even_singular_family_count(monkeypatch):
    # within H, even positive part, m1=2, n=1, k=2: three ladder lines
    even_positive = property(
        lambda idx: tuple(p for e, p, step in idx.roots if step > 0 and e.parity == EVEN)
    )
    monkeypatch.setattr(MonomialIndex, "positive", even_positive)
    sing = singular_polys(SliceKey(config_a(2, 1, 0), 2, 2), "H")
    assert len(sing) == 3


def test_abelian_orthogonal_factor_boundary_split():
    """m1=1 edge: the rank-one orthogonal factor has no raising operators,
    so the harmonic slice at m1=n=1, k=3 carries a second singular line
    that generates a complementary proper invariant subspace.  Verified
    exactly; the uniqueness claims hold from m1=2 on (previous tests)."""
    key = SliceKey(A11_R0, 3, 3)
    hs = harmonic_space(key)
    assert len(hs) == 8
    idx = MonomialIndex(key)
    sing = singular_vectors(idx, "H")
    assert len(sing) == 2
    gens = [generate_submodule(idx, [s]) for s in sing]
    dims = sorted(len(g) for g in gens)
    assert dims == [4, 4]
    # the two closures are disjoint complements inside the kernel space
    ech = Echelon()
    for g in gens:
        for v in g:
            ech.insert(v)
    assert ech.dim == 8


def test_singular_vectors_are_weight_vectors_and_annihilated():
    cfg = config_a(1, 2, 0)
    key = SliceKey(cfg, 2, 2)
    sing = singular_polys(key, "H")
    pos_ops = [rep_element(cfg, e) for e in osp_part(cfg, "positive")]
    lower, _ = delta_eta(cfg)
    assert sing
    for s in sing:
        assert weight_of(cfg, s) is not None
        assert lower(s).is_zero()
        for op in pos_ops:
            assert op(s).is_zero()


def test_aprime_highest_weight_vector():
    # normal form, k < m1 needs m1 >= 1; use m1=2, n=2, k=1: x_n^{m1-k} t1 t2
    cfg = config_aprime(2, 2, {1, 2})
    sing = singular_polys(SliceKey(cfg, 1, 3), "A")
    reprs = {str(s) for s in sing}
    assert "1 * x2 t1 t2" in reprs


@pytest.mark.parametrize(
    "cfg, k, D, within",
    [
        pytest.param(config_a(2, 1, 1), 2, 6, "A", id="A"),
        pytest.param(config_a(2, 1, 1), 2, 6, "H", id="H"),
        pytest.param(config_a(1, 1, 1, "odd"), 2, 5, "A", id="A111-odd-A"),
        pytest.param(config_a(1, 1, 1, "odd"), 2, 5, "H", id="A111-odd-H"),
        pytest.param(config_aprime(1, 2, {1, 2}), 2, 4, "A", id="Aprime12-T12-A"),
    ],
)
def test_quotient_singular_vectors_match_dense_oracle(cfg, k, D, within):
    """singular_vectors(..., modulo=...) against a dense rational oracle.

    v lies in span(modulo) exactly when every vector of the dense nullspace
    of the modulo matrix (its annihilator) vanishes on v; per weight group
    the quotient singular space is the nullspace of those conditions on the
    positive-operator images (plus lowering-operator annihilation for H).
    The span is eta of the harmonic slice two gradings down; for A', whose
    q = eta(1) is nilpotent, it is the widened span . window.
    """
    sig = cfg.signature
    key = SliceKey(cfg, k, D)
    idx = MonomialIndex(key)
    mod_rows = eta_image(idx, 1) if cfg.family == "A" else widened_eta_rows(idx, 1)
    modulo = [idx.poly(row) for row in mod_rows]
    rows = singular_vectors(idx, within, modulo=mod_rows)
    assert modulo and rows
    assert singular_vectors(idx, within, modulo=mod_rows[::-1]) == rows
    # a set of weight codes solves only those groups: the same rows, filtered
    codes, _ = idx.weight_codes
    some = set(sorted(set(codes.values()))[::2])
    assert some < set(codes.values())
    kept = [row for row in rows if codes[min(row)] in some]
    assert singular_vectors(idx, within, modulo=mod_rows, weights=some) == kept
    assert singular_vectors(idx, within, modulo=mod_rows, weights=set()) == []
    sing = [idx.poly(row) for row in rows]

    pos_ops = [rep_element(cfg, e) for e in osp_part(cfg, "positive")]
    lower, _ = delta_eta(cfg)
    monos = slice_monomials(key)
    images = {
        (op, m): op(SuperPolynomial.from_monomial(sig, m))
        for op in pos_ops
        for m in monos
    }
    coords = sorted(
        {t for p in list(images.values()) + modulo for t in p.terms},
        key=lambda m: m.sort_key(),
    )
    annihilator = [
        dict(zip(coords, x))
        for x in dense_nullspace(
            [[p.terms.get(t, 0) for t in coords] for p in modulo], len(coords)
        )
    ]

    def conditions(p):
        return [sum(c * x[t] for t, c in p.terms.items()) for x in annihilator]

    for s in sing:
        for op in pos_ops:
            assert not any(conditions(op(s))), (str(s), str(op))
        if within == "H":
            assert lower(s).is_zero()

    groups = {}
    for m in monos:
        groups.setdefault(monomial_weight(cfg, m), []).append(m)
    found = {}
    for s in sing:
        w = monomial_weight(cfg, next(iter(s.terms)))
        found[w] = found.get(w, 0) + 1
    for w, group in groups.items():
        cols = [
            sum((conditions(images[op, m]) for op in pos_ops), [])
            for m in group
        ]
        if within == "H":
            lows = [lower(SuperPolynomial.from_monomial(sig, m)) for m in group]
            targets = {t for p in lows for t in p.terms}
            for col, p in zip(cols, lows):
                col.extend(p.terms.get(t, 0) for t in targets)
        rows = [list(r) for r in zip(*cols)]
        assert found.get(w, 0) == len(dense_nullspace(rows, len(group))), w


def widened_eta_rows(idx, power):
    """span(eta^p H) . window of idx, with eta^p acting as a polynomial
    operator on every harmonic_space vector of grading k - 2p and degree
    <= D + 2p: eta_image's result computed from a widened source, which
    needs no regular q = eta(1).  The window part is the filtration prefix
    of degree <= D over a wider index, whose monomials of degree <= D are
    the slice's; its rows are relabelled to idx's codes."""
    cfg, k, D = idx.cfg, idx.key.k, idx.key.max_degree
    _, eta = delta_eta(cfg)
    images = []
    for p in harmonic_space(SliceKey(cfg, k - 2 * power, D + 2 * power)):
        for _ in range(power):
            p = eta(p)
        images.append(p)
    # H has degree <= D + 2p and eta^p raises degree by at most 2p
    monos = index_monomials(idx)
    wide_monos = {m for p in images for m in p.terms} | set(monos)
    wide = index_over(SliceKey(cfg, k, D + 4 * power), wide_monos)
    assert index_monomials(wide)[: len(idx)] == monos
    to_idx = dict(zip(wide.codes, idx.codes))
    rows = restrict_to_zone(filtration([wide.vec(p) for p in images]), wide.level_bound(D))
    return [{to_idx[c]: v for c, v in row.items()} for row in rows]


@pytest.mark.parametrize(
    "cfg, k, D, power",
    [
        pytest.param(config_a(3, 1, 2), 2, 4, 1, id="A312-eta1"),
        pytest.param(config_a(3, 1, 1), 2, 8, 2, id="A311-eta2"),
        pytest.param(config_a(2, 1, 1, "odd"), 3, 7, 2, id="A211-odd-eta2"),
    ],
)
def test_eta_image_is_the_window_part_of_the_polynomial_span(cfg, k, D, power):
    """eta_image, built from the source degrees <= D - 2p alone, spans the
    window part of the span from the widened source (``widened_eta_rows``)."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    want = widened_eta_rows(idx, power)
    got = eta_image(idx, power)
    assert want and span(got).basis() == span(want).basis()


@pytest.mark.parametrize(
    "cfg", [config_aprime(1, 2, {1, 2}), config_a(2, 1, 2)], ids=["Aprime12-T12", "A212"]
)
def test_eta_image_rejects_a_nilpotent_q(cfg):
    """Where q = eta(1) is nilpotent eta can lower the degree of a
    combination, so eta^p of a bounded-degree source is no exact window term:
    eta_image raises instead of computing it."""
    idx = MonomialIndex(SliceKey(cfg, 2, 4))
    assert len(idx)
    with pytest.raises(ValueError, match=r"q = eta\(1\) is nilpotent"):
        eta_image(idx, 1)


def test_eta_image_is_empty_below_degree_2p():
    """eta^p raises degree by exactly 2p, so a window of D < 2p holds none
    of its images, also where the window itself is not empty (k <= D)."""
    cfg = config_a(2, 1, 1)
    for k, D, power in [(2, 1, 1), (1, 1, 1), (2, 3, 2)]:
        assert eta_image(MonomialIndex(SliceKey(cfg, k, D)), power) == []
    assert len(MonomialIndex(SliceKey(cfg, 1, 1))) and len(MonomialIndex(SliceKey(cfg, 2, 3)))


def test_eta_image_precondition_is_a_bosonic_term_in_q():
    """eta_image accepts a configuration exactly when eta_polynomial, q, has
    a term of mask 0, which makes q no zero divisor."""
    cfgs = [config_a(m1, n, r, parity) for m1 in range(4) for n in range(3)
            for r in range(m1 + 1) for parity in ("even", "odd")]
    cfgs += [config_aprime(m1, n, range(1, n + 1)) for m1 in range(1, 4) for n in range(1, 3)]
    accepted = 0
    for cfg in cfgs:
        idx = MonomialIndex(SliceKey(cfg, 2, 2))
        if any(m.mask == 0 for m in eta_polynomial(cfg).terms):
            eta_image(idx, 1)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="nilpotent"):
                eta_image(idx, 1)
    assert 0 < accepted < len(cfgs)


def test_eta_image_keeps_an_in_window_combination():
    """In eta H(k=0) of A(3,1,2) on the D=4 window, t1 t2 + x3 x6 and its
    image under E(4,2)-E(5,1) both lie in span(eta_image).  The in-window
    eta images of H(k=0) of degree <= 4, taken one by one, miss the image,
    so the term would look unstable under the action."""
    cfg = config_a(3, 1, 2)
    sig = cfg.signature
    key = SliceKey(cfg, 2, 4)
    idx = MonomialIndex(key)
    x = lambda i: SuperPolynomial.x(sig, i)
    member = SuperPolynomial.theta(sig, 1) * SuperPolynomial.theta(sig, 2) + x(3) * x(6)
    e = next(e for e in osp_basis(cfg) if str(e) == "E(4,2)-E(5,1)")
    moved = rep_element(cfg, e)(member)
    term = span(eta_image(idx, 1))
    assert term.contains(idx.vec(member)) and term.contains(idx.vec(moved))
    _, eta = delta_eta(cfg)
    low = [eta(p) for p in harmonic_space(SliceKey(cfg, 0, 4))]
    assert not span(idx.vec(p) for p in low if p.max_degree() <= 4).contains(idx.vec(moved))


@pytest.mark.parametrize(
    "cfg, k, D, power",
    [
        pytest.param(config_a(3, 1, 2), 2, 4, 1, id="A312-eta1"),
        pytest.param(config_a(3, 1, 1), 2, 8, 2, id="A311-eta2"),
        pytest.param(config_a(2, 1, 1), 2, 10, 1, id="A211-eta1"),
        pytest.param(config_a(3, 2, 2), 3, 6, 1, id="A322-eta1"),
    ],
)
def test_eta_image_needs_source_degree_at_most_D_minus_2p(cfg, k, D, power):
    """Family A with r < m1: q = eta(1) holds x_m1 x_2m1 and is no zero
    divisor, so eta^p f has degree deg f + 2p.  eta^p of H(k - 2p) on degree
    <= D - 2p lands in the window (idx.vec raises otherwise) and spans what
    eta_image spans."""
    _, eta = delta_eta(cfg)
    idx = MonomialIndex(SliceKey(cfg, k, D))
    want = []
    for p in harmonic_space(SliceKey(cfg, k - 2 * power, D - 2 * power)):
        for _ in range(power):
            p = eta(p)
        want.append(idx.vec(p))
    got = eta_image(idx, power)
    assert want and span(got).basis() == span(want).basis()


# -- closures --------------------------------------------------------------


def test_closure_of_one_contains_swapped_products():
    key = SliceKey(A11_R1, 0, 4)
    gen = closure_polys(key, [SuperPolynomial.one(A11_R1.signature)])
    # E(2,1) acts as -x2 x1, so x1 x2 must be reached
    target = SuperPolynomial.x(A11_R1.signature, 1) * SuperPolynomial.x(
        A11_R1.signature, 2
    )
    ech_reprs = {str(v) for v in gen}
    assert any("x1 x2" in s for s in ech_reprs)
    assert len(gen) >= 2


def test_invariant_line_is_closed():
    key = SliceKey(A11_R0, 2, 8)
    eta = eta_polynomial(A11_R0)
    gen = closure_polys(key, [eta])
    assert len(gen) == 1


def test_extreme_vector_generates_harmonics():
    key = SliceKey(A11_R0, 1, 4)
    x1 = SuperPolynomial.x(A11_R0.signature, 1)
    gen = closure_polys(key, [x1])
    hs = harmonic_space(SliceKey(A11_R0, 1, 4))
    assert len(gen) == len(hs) == 4


def test_generator_outside_slice_rejected():
    key = SliceKey(A11_R0, 1, 4)
    idx = MonomialIndex(key)
    with pytest.raises(ValueError):
        generate_submodule(idx, [idx.vec(SuperPolynomial.one(A11_R0.signature))])
    with pytest.raises(ValueError):
        generate_submodule(idx, [])


def test_generator_above_the_window_rejected():
    """x1^3 x2^3 has the slice's grading but degree 6 > D: a ValueError
    naming the monomial, not a KeyError.  vec says the same of a monomial
    past the layout's bound D + 2 and of one from another signature."""
    cfg = A11_R1
    sig = cfg.signature
    key = SliceKey(cfg, 0, 4)
    idx = MonomialIndex(key)
    p = SuperPolynomial.x(sig, 1) ** 3 * SuperPolynomial.x(sig, 2) ** 3
    assert k_degree(cfg, next(iter(p.terms))) == 0
    outside = r"SuperMonomial\(bos=\(3, 3\), mask=0\) outside the slice"
    with pytest.raises(ValueError, match=outside):
        generate_submodule(idx, [idx.vec(p)])
    far = SuperPolynomial.x(sig, 1) ** 7  # degree D + 3
    with pytest.raises(ValueError, match=r"bos=\(7, 0\), mask=0\) outside the slice"):
        idx.vec(far)
    alien = SuperPolynomial.x(config_a(1, 1, 1, "odd").signature, 3)
    with pytest.raises(ValueError, match=r"bos=\(0, 0, 1\), mask=0\) outside the slice"):
        idx.vec(alien)


def test_closure_monotone_in_window():
    cfg = A11_R1
    x2 = SuperPolynomial.x(cfg.signature, 2)
    dims, low = [], []
    for D in (4, 6, 8):
        key = SliceKey(cfg, 1, D)
        idx = MonomialIndex(key)
        gen = generate_submodule(idx, [idx.vec(x2)])
        dims.append(len(gen))
        # verified dimension at degree <= 2, read through the filtration
        rows = filtration(gen)
        low.append(len(restrict_to_zone(rows, idx.level_bound(2))))
    assert dims[0] <= dims[1] <= dims[2]
    assert low[0] <= low[1] <= low[2]


@pytest.mark.parametrize(
    "cfg, k, D",
    [
        (config_a(2, 1, 1), 2, 4),
        (config_a(1, 1, 1, "odd"), 1, 3),
        (config_aprime(1, 2, {3, 4}), 1, 3),
    ],
    ids=["A211", "A111-odd", "Aprime12-T34"],
)
def test_int_image_matches_the_polynomial_action(cfg, k, D):
    """Every basis element on every monomial of two windows (D and D+1, so
    images reach one and two degrees past the window): the integer image
    maps back to the polynomial image, a code at or above the window's
    level bound survives exactly when the image leaves the window, and every
    code below it is a slice member."""
    sig = cfg.signature
    past = set()
    for top in (D, D + 1):
        idx = MonomialIndex(SliceKey(cfg, k, top))
        unpack, bound = idx.layout.unpack, idx.level_bound(top)
        for e in osp_basis(cfg):
            op = rep_element(cfg, e)
            program = _compiled(idx, op)
            for code in idx.codes:
                m = unpack(code)
                image = act_on_terms(program, ((code, 1),))
                p = SuperPolynomial.from_monomial(sig, m)
                want = naive_apply(op, p)
                assert apply_operator(op, p) == want, (e, m)
                assert {unpack(j): c for j, c in image.items()} == want.terms, (e, m)
                leaves = bool(image) and max(image) >= bound
                assert leaves == (want.max_degree() > top), (e, m)
                assert all(j in idx.members for j in image if j < bound), (e, m)
                past.update(unpack(j).total_degree - top for j in image if j >= bound)
    assert past == {1, 2}


@pytest.mark.parametrize(
    "cfg, k, D, with_delta_eta",
    [
        (config_a(2, 1, 0), 2, 5, True),
        (config_a(2, 1, 1), 2, 5, True),
        (config_a(2, 2, 2), 1, 4, True),
        (config_a(1, 1, 1, "odd"), 1, 4, True),
        (config_aprime(2, 2, {1, 2}), 2, 4, True),
        (config_aprime(1, 2, {3, 4}), 1, 5, False),
        (config_aprime(1, 2, {1}, "odd"), 1, 4, False),
    ],
    ids=["A210", "A211", "A222-swapped", "A111-odd", "Aprime22-T12", "Aprime12-T34", "Aprime12-T1-odd"],
)
def test_packed_kernel_matches_the_tuple_reference(cfg, k, D, with_delta_eta):
    """Every element of "all" (Cartan included), and the lowering and raising
    operators where they are defined, on every monomial of a window, one at
    a time and all at once: the packed kernel's row, unpacked, is the tuple
    reference's, with its keys in the same order."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    ops = [rep_element(cfg, e) for e in osp_basis(cfg)]
    if with_delta_eta:
        ops += delta_eta(cfg)
    monos = index_monomials(idx)
    terms = [([(m, 1)], [(code, 1)]) for m, code in zip(monos, idx.codes)]
    coeffs = range(1, len(idx) + 1)
    terms.append((list(zip(monos, coeffs)), list(zip(idx.codes, coeffs))))
    unpack = idx.layout.unpack
    for op in ops:
        atoms = op.atoms
        program = compile_atoms(atoms, idx.layout)
        for ref_terms, new_terms in terms:
            want = reference_act_on_terms(atoms, ref_terms)
            got = act_on_terms(program, new_terms)
            assert [(unpack(j), c) for j, c in got.items()] == list(want.items()), (op, ref_terms)


def _slice_monomial(i):
    """Generator list: the i-th monomial of the slice."""
    return lambda cfg, idx: [
        SuperPolynomial.from_monomial(cfg.signature, idx.layout.unpack(idx.codes[i]))
    ]


def _x2_squared(cfg, idx):
    return [SuperPolynomial.x(cfg.signature, 2) ** 2]


def _eta(cfg, idx):
    return [eta_polynomial(cfg)]


def _word(cfg, idx):
    return [theta_word(cfg.signature, [1])]


def _pluecker_word(cfg, idx):
    """The second block's generator of the A'(1,2) split in normal form."""
    x = lambda i: SuperPolynomial.x(cfg.signature, i)
    return [(x(1) * x(4) - x(2) * x(3)) * theta_word(cfg.signature, [1])]


def _swapped_word(cfg, idx):
    """x3 t1 t2 on A'(2,2,{1,3}): the theta word times a swapped variable,
    as the split case's extreme vector is."""
    return [SuperPolynomial.x(cfg.signature, 3) * theta_word(cfg.signature, [1, 2])]


def _seeded_monomial(j):
    """Generator list: the j-th monomial verify_aprime_structure seeds with
    at seed 0."""

    def gens(cfg, idx):
        pool = list(idx.codes)
        random.Random(0).shuffle(pool)
        return [SuperPolynomial.from_monomial(cfg.signature, idx.layout.unpack(pool[j]))]

    return gens


# name: (cfg, k, D, generator list of the slice)
CLOSURE_CASES = {
    "A211-x2^2": (config_a(2, 1, 1), 2, 6, _x2_squared),
    "A111-monomial": (A11_R1, 1, 5, _slice_monomial(8)),
    "A110-eta": (A11_R0, 2, 6, _eta),
    "A111-odd": (config_a(1, 1, 1, "odd"), 1, 5, _slice_monomial(4)),
    "Aprime12-T34": (config_aprime(1, 2, {3, 4}), 1, 6, _slice_monomial(0)),
    "Aprime12-split-word": (config_aprime(1, 2, {1, 2}), 1, 6, _word),
    "Aprime12-split-pluecker": (config_aprime(1, 2, {1, 2}), 1, 6, _pluecker_word),
    # the three closures of A'(2,2,{1,3}) k1 D6 fill the slice, so they end
    # with every weight space full
    "Aprime22-T13-word": (config_aprime(2, 2, {1, 3}), 1, 6, _swapped_word),
    "Aprime22-T13-seed0": (config_aprime(2, 2, {1, 3}), 1, 6, _seeded_monomial(0)),
    "Aprime22-T13-seed1": (config_aprime(2, 2, {1, 3}), 1, 6, _seeded_monomial(1)),
}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
def test_closure_matches_reference_oracle(case):
    """The integer-row closure returns the basis of the polynomial one,
    which skips an image whose max_degree() exceeds D."""
    cfg, k, D, gens = CLOSURE_CASES[case]
    key = SliceKey(cfg, k, D)
    gens = gens(cfg, MonomialIndex(key))
    assert closure_polys(key, gens) == reference_closure(key, gens)


@pytest.mark.parametrize(
    "cfg, k, D",
    [
        (config_a(2, 1, 1), 2, 8),
        (config_a(1, 2, 1, "odd"), 1, 6),
        (config_aprime(2, 2, {1, 3}), 1, 8),
    ],
    ids=["A211", "A121-odd", "Aprime22-T13"],
)
def test_weight_codes_sort_and_separate_weights_a_root_apart(cfg, k, D):
    """The index's weight codes sort as the weights do, and the code of
    weight + root is one-to-one over every slice weight and root, and
    equals code(weight) + code(root)."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    codes, base = idx.weight_codes
    assert list(codes) == idx.codes
    weights = [monomial_weight(cfg, m) for m in index_monomials(idx)]
    assert len(set(weights)) > 1
    in_order = list(codes.values())
    assert sorted(range(len(idx)), key=in_order.__getitem__) == sorted(
        range(len(idx)), key=lambda i: (weights[i], i)
    )
    roots = [element_root(cfg, e) for e in osp_part(cfg, "roots")]
    shifted = {
        Weight(
            tuple(x + y for x, y in zip(w.eps_so, a.eps_so)),
            tuple(x + y for x, y in zip(w.eps_sp, a.eps_sp)),
        ): weight_code(w, base) + weight_code(a, base)
        for w in set(weights)
        for a in roots
    }
    reach = set(weights) | set(shifted)
    assert all(weight_code(v, base) == c for v, c in shifted.items())
    assert len({weight_code(v, base) for v in reach}) == len(reach)


@pytest.mark.parametrize(
    "cfg, k, D",
    [
        (config_a(2, 1, 1), 2, 6),
        (config_a(1, 2, 1, "odd"), 1, 5),
        (config_a(3, 1, 2), 2, 6),
        (config_aprime(2, 2, {1, 3}), 1, 6),
        (config_aprime(1, 2, {3, 4}), 1, 6),
        (config_aprime(1, 2, {2}, "odd"), 1, 5),
    ],
    ids=["A211", "A121-odd", "A312", "Aprime22-T13", "Aprime12-T34", "Aprime12-T2-odd"],
)
def test_weight_table_gives_monomial_weight(cfg, k, D):
    """The affine table evaluated on a monomial's exponents and mask bits is
    its monomial_weight, and weight_codes codes exactly that weight, on every
    monomial of a slice holding swapped variables to positive powers."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    table, nf = _weight_table(cfg), cfg.signature.num_fermionic
    codes, base = idx.weight_codes
    swapped = [i for i, w in enumerate(variable_k_weights(cfg)[0]) if w < 0]
    monos = index_monomials(idx)
    assert any(m.bos[i] for m in monos for i in swapped)
    for m, code in zip(monos, codes.values()):
        exps = m.bos + tuple(m.mask >> p & 1 for p in range(nf))
        w = monomial_weight(cfg, m)
        assert tuple(c + sum(a * e for a, e in zip(row, exps)) for c, row in table) == (
            w.eps_so + w.eps_sp
        ), m
        assert code == weight_code(w, base), m


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("family", ["A", "Aprime"])
def test_weight_codes_are_the_tuple_reference(family, parity):
    """weight_codes, summed from per-field deltas in a base fixed by the
    layout, gives the tuple reference's codes at that base, keys in slice
    order, on every window k -2..5, D 6 of the grid; the base exceeds twice
    the largest coordinate size of a slice weight by at least 5."""
    windows = 0
    for cfg in _grid_configs(family, parity):
        for k in range(-2, 6):
            idx = MonomialIndex(SliceKey(cfg, k, 6))
            got, base = idx.weight_codes
            want = reference_weight_codes(idx, base)
            assert list(got.items()) == list(want.items()), (cfg.describe(), k)
            weights = [monomial_weight(cfg, m) for m in index_monomials(idx)]
            top = max((abs(c) for w in weights for c in w.eps_so + w.eps_sp), default=0)
            assert base >= 2 * top + 5, (cfg.describe(), k)
            windows += bool(idx.codes)
    assert windows > 100


@pytest.mark.parametrize(
    "cfg, k, D",
    [
        (config_a(2, 1, 1), 2, 6),
        (config_a(1, 1, 1, "odd"), 1, 4),
        (config_aprime(1, 2, {3, 4}), 1, 5),
    ],
    ids=["A211", "A111-odd", "Aprime12-T34"],
)
def test_index_of_a_key_is_its_slice(cfg, k, D):
    key = SliceKey(cfg, k, D)
    idx = MonomialIndex(key)
    assert idx.key == key and idx.cfg == cfg
    assert index_monomials(idx) == slice_monomials(key)
    assert idx.codes == [idx.layout.pack(m) for m in slice_monomials(key)]
    assert idx.members == set(idx.codes) and len(idx) == len(idx.codes)


def test_a_cell_index_lies_inside_its_keys_slice():
    cfg = config_aprime(1, 2, {1, 2})
    for s, t in [(0, 1), (1, 1), (-1, 2), (0, 2), (1, 2)]:
        idx = _cell_index(cfg, s, t)
        assert idx.key.cfg == cfg and idx.key.k == s + t
        monos = index_monomials(idx)
        assert monos and set(monos) <= set(slice_monomials(idx.key)), (s, t)
        assert sorted(monos) == sorted(bigraded_monomials(cfg, s, t))


def test_index_builds_weight_codes_and_atoms_once(monkeypatch):
    idx = MonomialIndex(SliceKey(config_a(2, 1, 1), 2, 5))
    names = ("weight_codes", "roots", "positive", "delta_eta")
    built = [getattr(idx, name) for name in names]
    roots = {id(program) for _, program, _ in idx.roots}
    assert idx.positive and {id(program) for program in idx.positive} < roots
    for name in ("_weight_table", "osp_basis", "rep_element", "delta_eta"):
        monkeypatch.setattr(slices, name, None)
    assert all(getattr(idx, name) is got for name, got in zip(names, built))


def test_a_verifier_builds_each_element_operator_once(monkeypatch):
    """singular_vectors, generate_submodule and _stable_under_action take
    their atoms from the verifier's index: one composition-series check
    builds each root element's operator once, however many layers, closures
    and stability checks it runs; "positive" reuses the "roots" programs."""
    cfg = config_a(2, 1, 1)
    built = []
    real = slices.rep_element
    monkeypatch.setattr(slices, "rep_element", lambda cfg, e: built.append(e) or real(cfg, e))
    rep = verify_composition_series(cfg, 2, 6, 2)
    assert len(rep.dims) == 3 and len(rep.witnesses) == 3
    assert built == osp_part(cfg, "roots")


def test_closures_that_fill_the_slice():
    """The A'(2,2,{1,3}) k1 D6 closures reach the whole slice, where every
    image is skipped once its weight space is full."""
    for case in ("Aprime22-T13-word", "Aprime22-T13-seed0", "Aprime22-T13-seed1"):
        cfg, k, D, gens = CLOSURE_CASES[case]
        key = SliceKey(cfg, k, D)
        idx = MonomialIndex(key)
        rows = generate_submodule(idx, [idx.vec(g) for g in gens(cfg, idx)])
        assert len(rows) == len(idx) == 136, case


def test_closure_hook_sees_rows_that_span_the_closure():
    """on_row gets the generators' basis first, then each added row, and
    those rows span the closure; a true return stops the closure there."""
    cfg = config_a(2, 1, 1)
    idx = MonomialIndex(SliceKey(cfg, 2, 6))
    gens = [idx.vec(SuperPolynomial.x(cfg.signature, 2) ** 2)]
    seen = []
    rows = generate_submodule(idx, gens, seen.append)
    assert rows == generate_submodule(idx, gens) and len(rows) > 1
    assert seen[:1] == span(gens).basis() and span(seen).basis() == rows
    assert generate_submodule(idx, gens, lambda row: True) == span(gens).basis()
    two = []
    partial = generate_submodule(idx, gens, lambda row: two.append(row) or len(two) == 2)
    assert len(two) == 2 and partial == span(two).basis()


def test_closure_builds_no_image_into_a_full_weight_space(monkeypatch):
    """The closure of x2^2 on A(2,1,1) k2 D6 builds only images whose weight
    space still has room: fewer than one per (row, element) pair, and none
    for a Cartan element."""
    cfg = config_a(2, 1, 1)
    key = SliceKey(cfg, 2, 6)
    idx = MonomialIndex(key)
    built = []

    def counting(program, *args):
        built.append(program)
        return act_on_terms(program, *args)

    monkeypatch.setattr(slices, "act_on_terms", counting)
    rows = generate_submodule(idx, [idx.vec(SuperPolynomial.x(cfg.signature, 2) ** 2)])
    roots = {id(program) for _, program, _ in idx.roots}
    assert built and all(id(program) in roots for program in built)
    assert len(built) < len(rows) * len(roots)


def _compiled(idx, op):
    return compile_atoms(op.atoms, idx.layout)


def _stand_in_for_every_element(monkeypatch, op):
    """op's program stands in for every root and every positive root element,
    paired with a Cartan element and root code 0, and every slice monomial
    gets weight code 0: one weight class, so a closure builds op's image of
    each row until the span fills the slice, and op need not move weights by
    a root."""
    roots = lambda idx: ((osp_part(idx.cfg, "cartan")[0], _compiled(idx, op), 0),)
    monkeypatch.setattr(MonomialIndex, "roots", property(roots))
    monkeypatch.setattr(MonomialIndex, "positive", property(lambda idx: (_compiled(idx, op),)))
    monkeypatch.setattr(
        MonomialIndex, "weight_codes", property(lambda idx: (dict.fromkeys(idx.codes, 0), 1))
    )


def test_halo_is_read_after_cancellation(monkeypatch):
    """An image whose out-of-window terms cancel stays in the window.

    With q = x1 t1 + x1 t2 (q^2 = 0) and the operator q + x2 d/dt1, q maps to
    x1 x2 of degree 2 through the cancelling degree-4 terms of q^2; on the
    degree <= 2 window the closure of q is span{q, x1 x2}.  Testing the halo
    before cancellation would stop at span{q}.  q mixes the weights of t1
    and t2, so the slice is put in one weight class.
    """
    cfg = A11_R1
    sig = cfg.signature
    q_times = [(1, ((MUL_X, 0), (MUL_T, 0))), (1, ((MUL_X, 0), (MUL_T, 1)))]
    op = SuperOperator(sig, q_times + [(1, ((MUL_X, 1), (DER_T, 0)))], 1)
    _stand_in_for_every_element(monkeypatch, op)
    x1, x2 = SuperPolynomial.x(sig, 1), SuperPolynomial.x(sig, 2)
    q = x1 * (SuperPolynomial.theta(sig, 1) + SuperPolynomial.theta(sig, 2))
    assert op(q) == x1 * x2
    key = SliceKey(cfg, 0, 2)
    gen = closure_polys(key, [q])
    assert gen == reference_closure(key, [q], ops=[op])
    assert sorted(map(str, gen)) == ["1 * x1 t1 + 1 * x1 t2", "1 * x1 x2"]


def test_an_in_window_image_outside_the_slice_raises_on_every_kept_path(monkeypatch):
    """act_on_terms keeps every image code, so each path that keeps an image
    checks that its in-window codes lie in the slice.  The program of
    x1 d/dx2 (x1 swapped, x2 not: grading -2, degree kept) stands in for
    every element and for the raising operator: the closure's accepted
    remainder, a stability leak, a weight group's singular-vector images,
    a kept eta image and a final eta^p row each raise KeyError.  The slice
    is one weight class, so the closure builds every image."""
    cfg = config_a(2, 1, 1)
    sig = cfg.signature
    assert variable_k_weights(cfg)[0][:2] == [-1, 1]
    breaking = SuperOperator(sig, [(1, ((MUL_X, 0), (DER_X, 1)))], 0)
    lower, _ = delta_eta(cfg)
    _stand_in_for_every_element(monkeypatch, breaking)
    monkeypatch.setattr(
        MonomialIndex,
        "delta_eta",
        property(lambda idx: (_compiled(idx, lower), _compiled(idx, breaking))),
    )
    idx = MonomialIndex(SliceKey(cfg, 2, 6))
    row = idx.vec(SuperPolynomial.x(sig, 2) ** 2)
    outside = "outside the slice"
    with pytest.raises(KeyError, match=outside):
        generate_submodule(idx, [row])
    with pytest.raises(KeyError, match=outside):
        slices._stable_under_action([row], span([row]), idx)
    with pytest.raises(KeyError, match=outside):
        singular_vectors(idx, "A")
    with pytest.raises(KeyError, match=outside):
        eta_span_of_slice(idx)
    with pytest.raises(KeyError, match=outside):
        eta_image(idx, 1)


def test_row_paths_never_apply_a_polynomial_operator(monkeypatch):
    """singular_vectors, generate_submodule and the direct-sum and A'
    verifiers build every image as an integer row from integer atoms; none
    goes through the Fraction action of apply_operator."""

    def forbidden(op, p):
        raise AssertionError("apply_operator called")

    monkeypatch.setattr(superpoly, "apply_operator", forbidden)
    cfg = config_a(2, 1, 1)
    sig = cfg.signature
    with pytest.raises(AssertionError, match="apply_operator called"):
        rep_element(cfg, osp_basis(cfg)[0])(SuperPolynomial.one(sig))
    key = SliceKey(cfg, 2, 6)
    idx = MonomialIndex(key)
    raised = eta_span_of_slice(idx)
    assert singular_vectors(idx, "H")
    assert singular_vectors(idx, "A", modulo=raised)
    assert generate_submodule(idx, [idx.vec(SuperPolynomial.x(sig, 2) ** 2)])
    assert verify_direct_sum(cfg, 2, 8, 4).dims
    # the seeded closures, and the normalized two-block split
    assert verify_aprime_structure(config_aprime(1, 2, set()), 1, 6, 3).dims
    assert verify_aprime_structure(config_aprime(1, 2, {3, 4}), 1, 6, 3).dims
    # composition series with an eta^1 term and with an eta^2 term
    assert verify_composition_series(cfg, 2, 6, 2).dims[0]["term"] == "H > <x2^2>"
    rep = verify_composition_series(config_a(3, 1, 1), 2, 6, 2)
    assert rep.dims[0]["term"] == "H > eta^2 H(k=-2)"


# -- verifiers -------------------------------------------------------------


def test_direct_sum_unswapped_outside_window():
    # m1=2, n=1: window empty, finite slices; k up to 4 here (6 in acceptance)
    cfg = config_a(2, 1, 0)
    for k in range(0, 5):
        rep = verify_direct_sum(cfg, k, max_degree=max(k, 1), margin=0)
        assert rep.status == "pass", (k, rep.notes, rep.dims)


def test_direct_sum_fails_inside_window():
    rep = verify_direct_sum(A11_R0, 2, 4, margin=0)
    assert rep.status == "fail"
    assert any("x1 x2" in w for w in rep.witnesses)


def test_direct_sum_fully_swapped():
    rep = verify_direct_sum(A11_R1, 1, 7, margin=4)
    assert rep.status == "pass", rep.dims
    rep = verify_direct_sum(A11_R1, 2, 7, margin=4)
    assert rep.status == "pass", rep.dims


def test_direct_sum_eliminates_with_small_stored_rows(monkeypatch):
    """Every row the forward kernel, the rank profile and the meet eliminate
    against is content-free, so on A(3,2,2) k3 D10 (a Delta kernel on 3,984
    monomials) no stored entry passes 8 bits (the largest has 6); without
    dividing out the content after each step they reached 347,354 bits.
    Bit sizes, unlike times, repeat exactly."""
    bits = []
    real = linalg._eliminate

    def spy(vec, row, pivot):
        bits.append(max(abs(c).bit_length() for c in row.values()))
        return real(vec, row, pivot)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    rep = verify_direct_sum(config_a(3, 2, 2), 3, 10, 4)
    assert rep.status == "fail" and bits
    assert max(bits) <= 8


@pytest.mark.parametrize(
    "cfg, k, D, margin",
    [(config_a(2, 2, 2), 2, 8, 4), (config_a(2, 2, 1), 2, 12, 4)],
    ids=["A222", "A221"],
)
def test_direct_sum_with_a_zero_meet_builds_no_echelon(monkeypatch, cfg, k, D, margin):
    """A zero meet is found from pivot counts alone: the forward kernel and
    the rank profile build no Echelon and cut no filtration."""
    monkeypatch.setattr(linalg, "Echelon", None)
    monkeypatch.setattr(linalg, "restrict_to_zone", None)
    assert verify_direct_sum(cfg, k, D, margin).status != "fail"


def test_direct_sum_is_the_harmonic_basis_reference():
    """verify_direct_sum, which reads every number off Delta images, gives
    the report of the reference that builds a basis of H and intersects it
    with the raised span, field for field, on family A of both parities,
    m1 <= 3, n <= 2, every r <= m1 (so q nilpotent too), k -2..5, D 2/4/6
    and margin 0/2."""
    seen = Counter()
    for parity in ("even", "odd"):
        for cfg in _grid_configs("A", parity):
            for k in range(-2, 6):
                for D in (2, 4, 6):
                    for margin in (0, 2):
                        got = verify_direct_sum(cfg, k, D, margin).to_dict()
                        want = reference_direct_sum(cfg, k, D, margin).to_dict()
                        assert got == want, (cfg.describe(), k, D, margin)
                        seen[got["status"]] += 1
    assert seen["pass"] and seen["fail"] and seen["inconclusive-window"], seen


def test_direct_sum_verdicts_are_monotone_in_the_window():
    """Where q = eta(1) is regular both sides of the direct sum are exact on
    the window, so from D to D + 2 at margin 2 every level that passes still
    passes and a fail stays a fail.  Family A of both parities, m1 <= 3,
    n <= 2, every r with q regular, k -2..5 and D 2/4/6/8 (D 8 left out for
    m1 = 3, n = 2, the costliest windows)."""
    seen = Counter()
    for parity in ("even", "odd"):
        for cfg in filter(_q_is_regular, _grid_configs("A", parity)):
            for k in range(-2, 6):
                last = None
                for D in (2, 4, 6) if (cfg.m1, cfg.n) == (3, 2) else (2, 4, 6, 8):
                    rep = verify_direct_sum(cfg, k, D, 2)
                    seen[rep.status] += 1
                    case = (cfg.describe(), k, D)
                    if last is not None:
                        assert last.status != "fail" or rep.status == "fail", case
                        levels = {level["d"]: level["status"] for level in rep.dims}
                        for level in last.dims:
                            assert level["status"] != "pass" or levels[level["d"]] == "pass", (
                                case, level,
                            )
                    last = rep
    assert seen["fail"] and seen["pass"] and seen["inconclusive-window"], seen


def test_series_window_case():
    # healthy window instance: m1=2, n=2, window (1, 2], k=2
    rep = verify_composition_series(config_a(2, 2, 0), 2, 8, margin=4)
    assert rep.status == "pass", (rep.notes, rep.dims)
    # middle term is the invariant line
    assert any(
        d.get("dim_inner") == 1 for d in rep.dims if "eta^1" in str(d.get("term", ""))
    )


def test_series_window_boundary_anomaly():
    """At m1=1 the top layer splits (see the boundary-split test above): the
    claimed two-step chain is exactly refuted, with witnesses."""
    rep = verify_composition_series(A11_R0, 2, 8, margin=4)
    assert rep.status == "fail"
    assert any("x2 t1" in s for s in rep.notes)


def test_generates_layer_reports_the_degree_of_the_missed_row(monkeypatch):
    # on this window <x2> misses x1 x2^2, so x2 + x1 x2^2 is first missed at
    # d=3, the degree of its top monomial, not d=1
    cfg = A11_R1
    sig = cfg.signature
    key = SliceKey(cfg, 1, 5)
    idx = MonomialIndex(key)
    x1, x2 = SuperPolynomial.x(sig, 1), SuperPolynomial.x(sig, 2)
    top = filtration([idx.vec(x2 + x1 * x2**2)])
    seed = idx.vec(x2)
    assert _generates_layer(seed, top, [], idx) == (False, 3)
    assert _generates_layer(seed, filtration([seed]), [], idx) == (True, -1)
    # bottom alone covers top: no closure is built
    monkeypatch.setattr(slices, "generate_submodule", None)
    assert _generates_layer(seed, top, [seed, idx.vec(x1 * x2**2)], idx) == (True, -1)


def _whole_closure_layer_check(seed_row, top_rows, bottom_rows, idx, closure):
    """The layer check on the whole closure: span it with bottom, then name
    the degree of the first top row outside."""
    lhs = span(closure(idx, [seed_row]) + bottom_rows)
    for r in top_rows:
        if not lhs.contains(r):
            return False, idx.layout.unpack(max(r)).total_degree
    return True, -1


@pytest.mark.parametrize(
    "cfg, k, D, margin, want",
    [
        (config_a(1, 1, 0), 2, 4, 0, [(False, 2), (False, 2), (True, -1)]),
        # each closure stops once it covers the layer on the window
        (config_a(2, 2, 0), 2, 8, 4, [(True, -1)] * 2),
        (config_a(2, 1, 1), 2, 10, 4, [(True, -1)] * 3),
        # the verified window (degree <= 2) holds no row of any layer
        (config_a(1, 2, 0), 3, 4, 2, [(True, -1)] * 3),
    ],
    ids=["A110-fail", "A220", "A211", "A120-empty-window"],
)
def test_layer_check_stops_early_with_the_whole_closure_answer(
    monkeypatch, cfg, k, D, margin, want
):
    """_generates_layer stops its closure once top is covered, and builds
    none when bottom covers top; every answer is that of the whole closure."""
    real_layer, real_closure = slices._generates_layer, slices.generate_submodule
    closures, answers = [], []

    def counted_closure(*args):
        closures.append(args)
        return real_closure(*args)

    def checked_layer(seed_row, top_rows, bottom_rows, idx):
        before = len(closures)
        got = real_layer(seed_row, top_rows, bottom_rows, idx)
        assert got == _whole_closure_layer_check(seed_row, top_rows, bottom_rows, idx, real_closure)
        answers.append(got)
        if not top_rows:
            assert len(closures) == before
        return got

    monkeypatch.setattr(slices, "generate_submodule", counted_closure)
    monkeypatch.setattr(slices, "_generates_layer", checked_layer)
    verify_composition_series(cfg, k, D, margin)
    assert answers == want


def _record_solved_weights(monkeypatch):
    """The weights argument of every singular_vectors call, in order."""
    seen, real = [], slices.singular_vectors

    def recording(*args, weights=None, **kwargs):
        seen.append(weights)
        return real(*args, weights=weights, **kwargs)

    monkeypatch.setattr(slices, "singular_vectors", recording)
    return seen


# (golden, cfg, k, D, eta power, <x_m1^k> term)
SERIES_GOLDEN_TERMS = [
    ("series_A211_k2_D12_m4", config_a(2, 1, 1), 2, 12, 1, True),
    ("series_A311_k1_D6_m2", config_a(3, 1, 1), 1, 6, 1, False),
    ("series_A311_k2_D6_m2", config_a(3, 1, 1), 2, 6, 2, False),
    ("series_A110_k2_D8_m4", config_a(1, 1, 0), 2, 8, 1, False),
    ("series_A312_k2_D6_m2", config_a(3, 1, 2), 2, 6, 1, True),
    ("series_A322_k3_D6_m2", config_a(3, 2, 2), 3, 6, 1, True),
]


@pytest.mark.parametrize(
    "name, cfg, k, D, power, x_term", SERIES_GOLDEN_TERMS, ids=[g[0] for g in SERIES_GOLDEN_TERMS]
)
def test_series_terms_are_weight_graded(monkeypatch, name, cfg, k, D, power, x_term):
    """Every echelon row of H, eta^p H' and <x_m1^k> is a weight vector, the
    precondition of solving singular vectors on a layer's live weights only;
    the verifier then passes a set of weights for every layer."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    codes, _ = idx.weight_codes
    terms = {"H": _lowering_kernel(idx, idx.codes), f"eta^{power}": eta_image(idx, power)}
    if x_term:
        x_power = idx.vec(SuperPolynomial.x(cfg.signature, cfg.m1) ** k)
        terms[f"<x{cfg.m1}^{k}>"] = generate_submodule(idx, [x_power])
    golden = (GOLDEN / f"{name}.json").read_text()
    for term, rows in terms.items():
        assert term in golden and rows, term
        assert all(len({codes[i] for i in row}) == 1 for row in span(rows).rows.values()), term

    seen = _record_solved_weights(monkeypatch)
    verify_composition_series(cfg, k, D, json.loads(golden)["margin"])
    assert seen and all(w is not None for w in seen)


def test_series_rejects_a_term_that_is_no_weight_vector(monkeypatch):
    """A term whose echelon rows mix weights gives no live weights to read:
    a ValueError naming the term, before any singular vector is solved."""
    cfg = config_a(2, 2, 0)
    sig = cfg.signature
    x1, x3 = SuperPolynomial.x(sig, 1), SuperPolynomial.x(sig, 3)
    mixed = x1**2 + x1 * x3
    monkeypatch.setattr(slices, "eta_image", lambda idx, power: [idx.vec(mixed)])
    seen = _record_solved_weights(monkeypatch)
    with pytest.raises(ValueError, match=r"^eta\^1 H\(k=0\): an echelon row is no weight vector$"):
        verify_composition_series(cfg, 2, 6, margin=2)
    assert seen == []


def test_series_layer_checks_skip_dead_weights_and_covered_closures(monkeypatch):
    """On A(2,1,1) k2 D10 m4 the layer checks solve singular vectors on live
    weights only and stop each closure once the window is covered: kernels
    and operator images each at most half of what solving every weight and
    closing fully took (350 kernels, 8,565 images).  Counts, unlike times,
    repeat exactly from run to run."""
    calls = Counter()
    real_kernel, real_act = linalg.kernel, slices.act_on_terms
    monkeypatch.setattr(linalg, "kernel", lambda *a: calls.update(["kernel"]) or real_kernel(*a))
    monkeypatch.setattr(slices, "act_on_terms", lambda *a: calls.update(["act"]) or real_act(*a))
    rep = verify_composition_series(config_a(2, 1, 1), 2, 10, 4)
    assert rep.status == "pass"
    assert calls["kernel"] <= 350 // 2 and calls["act"] <= 8565 // 2, calls


def test_series_term_not_inside_the_next(monkeypatch):
    """A chain term outside the next term up fails under H, which is exact,
    and is inconclusive under a generated term, which is from below."""
    cfg = config_a(2, 2, 0)
    sig = cfg.signature
    stray = SuperPolynomial.x(sig, 1) * SuperPolynomial.x(sig, 3)  # not harmonic
    monkeypatch.setattr(slices, "eta_image", lambda idx, power: [idx.vec(stray)])
    rep = verify_composition_series(cfg, 2, 6, margin=2)
    assert rep.status == "fail"
    assert "eta^1 H(k=0) not inside H on the window" in rep.notes
    assert rep.dims[0]["term"] == "H > eta^1 H(k=0)"
    assert rep.dims[0]["status"] == "fail"

    # r = m1-1: eta^1 H(k=0) replaced by all of H, which <x2^2> does not hold
    cfg = config_a(2, 1, 1)
    monkeypatch.setattr(
        slices, "eta_image", lambda idx, power: _lowering_kernel(idx, idx.codes)
    )
    rep = verify_composition_series(cfg, 2, 6, margin=2)
    assert rep.status == "inconclusive-window"
    assert "eta^1 H(k=0) not inside <x2^2> on the window" in rep.notes
    assert rep.dims[1]["term"] == "<x2^2> > eta^1 H(k=0)"
    assert rep.dims[1]["status"] == "inconclusive-window"


def test_series_stability_leak_fails_only_on_an_exact_slice(monkeypatch):
    """A middle term that leaks under the action is a disproof only when the
    slice is exact; otherwise the term is from below and the leak may be an
    in-window combination the window missed."""
    # span . window of eta H(k=0) holds the image of its member t1 t2 + x3 x6
    # under E(4,2)-E(5,1) (test_eta_image_keeps_an_in_window_combination)
    cfg = config_a(3, 1, 2)
    assert not slice_is_exact(cfg, 2, 4)
    assert verify_composition_series(cfg, 2, 4, margin=0).status == "pass"

    # the H row t1, which the action leaves, stands in for eta^1 H(k=-1);
    # the layer check is stubbed, and t1 is no singular vector, so its own
    # layer over 0 is inconclusive as well
    cfg = config_a(3, 1, 1)
    assert not slice_is_exact(cfg, 1, 5)
    t1 = SuperPolynomial.theta(cfg.signature, 1)
    monkeypatch.setattr(slices, "eta_image", lambda idx, power: [idx.vec(t1)])
    monkeypatch.setattr(slices, "_generates_layer", lambda *args: (True, -1))
    rep = verify_composition_series(cfg, 1, 5, margin=2)
    assert rep.status == "inconclusive-window"
    assert rep.notes == [
        "eta^1 H(k=-1): action of E(2,1)-E(4,5) leaves the span on "
        "1 * t1 (term from below on the window D=5)",
        "no singular vector found for layer eta^1 H(k=-1)/0",
    ]
    assert all(d["status"] == "pass" for d in rep.dims)

    # exact slice: eta^1 H(k=0) replaced by the line of x1^2, which the
    # action leaves; the layer check is stubbed so only the leak can fail
    cfg = config_a(2, 2, 0)
    assert slice_is_exact(cfg, 2, 6)
    x1_squared = SuperPolynomial.x(cfg.signature, 1) ** 2
    monkeypatch.setattr(slices, "eta_image", lambda idx, power: [idx.vec(x1_squared)])
    rep = verify_composition_series(cfg, 2, 6, margin=2)
    assert rep.status == "fail"
    assert rep.notes == ["eta^1 H(k=0): action of E(2,1)-E(3,4) leaves the span on 1 * x1^2"]
    assert all(d["status"] == "pass" for d in rep.dims)


def test_series_zero_layer_is_inconclusive_not_fail(monkeypatch):
    """A layer whose two terms agree on the exact slice holds no singular
    vector to find: no fail without a witness.  H is replaced by the eta
    term, so the layer H/eta is zero while eta/0 is the true bottom layer."""
    cfg = A11_R0
    assert slice_is_exact(cfg, 2, 6)
    eta_rows = []
    real_eta, real_kernel = slices.eta_image, slices._lowering_kernel

    def eta_term(idx, power):
        eta_rows.extend(real_eta(idx, power))
        return eta_rows

    # the verifier builds the eta term (and its source kernel) before H
    monkeypatch.setattr(slices, "eta_image", eta_term)
    monkeypatch.setattr(
        slices, "_lowering_kernel", lambda idx, codes: list(eta_rows) or real_kernel(idx, codes)
    )
    rep = verify_composition_series(cfg, 2, 6, margin=0)
    assert rep.status == "inconclusive-window"
    assert eta_rows
    assert [(d["dim_outer"], d["dim_inner"]) for d in rep.dims] == [
        (len(eta_rows), len(eta_rows)), (len(eta_rows), 0)
    ]
    eta_term = "eta^1 H(k=0)"
    assert rep.notes == [
        f"inclusion H > {eta_term} not strict on window",
        f"no singular vector found for layer H/{eta_term}",
    ]
    assert rep.witnesses


@pytest.mark.parametrize(
    "params, k", [((1, 1, 1), 2), ((2, 1, 2), 2), ((1, 0, 1), 1)],
    ids=["A111-k2", "A212-k2", "A101-k1"],
)
def test_series_rejects_full_swap_range_up_front(monkeypatch, params, k):
    """r = m1 >= 1: x_m1 is swapped, so x_m1^k has grading -k; the dispatch
    raises before any term is built."""

    def no_work(*args):
        raise AssertionError("eta_image called")

    monkeypatch.setattr(slices, "eta_image", no_work)
    m1 = params[0]
    with pytest.raises(ValueError, match=rf"^r = m1 = {m1}: x{m1} is swapped"):
        verify_composition_series(config_a(*params), k, 6, margin=2)


@pytest.mark.parametrize(
    "n, k", [(0, 2), (1, 3), (1, 4), (2, 4)], ids=["A000-k2", "A010-k3", "A010-k4", "A020-k4"]
)
def test_series_rejects_no_bosonic_variable_up_front(monkeypatch, n, k):
    """m1 = 0: H is zero on the whole window, so the dispatch raises instead
    of reporting empty layers as inconclusive-window."""

    def no_work(*args):
        raise AssertionError("eta_image called")

    monkeypatch.setattr(slices, "eta_image", no_work)
    with pytest.raises(ValueError, match=r"^m1 = 0: with no bosonic variable"):
        verify_composition_series(config_a(0, n, 0), k, 6, margin=0)


def test_series_rejects_out_of_window():
    with pytest.raises(ValueError):
        verify_composition_series(A11_R0, 3, 6, margin=2)


def three_branch_dispatch(m1, n, r, k):
    """The chain dispatch as three branches on the swap range: (power,
    k_inner) of the eta term, or None where the verifier must raise."""
    if m1 == 0 or r == m1:
        return None
    if r == 0:
        lo, hi = n - m1 + 1, 2 * (n - m1 + 1)
        return (k - lo, hi - k) if lo < k <= hi else None
    if r < m1 - 1:
        c = n - m1 + r + 1
        return (k - n + m1 - r - 1, -k + 2 * c) if k > c else None
    return (k - n, -k + 2 * n) if k > n else None


def test_series_dispatch_is_one_formula():
    """With c = n - m1 + r + 1 the verifier's one formula, power k - c and
    k_inner 2c - k, agrees with the three branches: it raises exactly outside
    their windows, and inside them names the eta term and, for r = m1 - 1 > 0,
    the <x_m1^k> term above it.  The windows are D = 2, or D = k where the
    generator x_m1^k must lie in the slice."""
    rejection = r"^(m1 = 0|r = m1|k=-?\d+ outside the window)"
    inside = Counter()
    for m1 in range(4):
        for n in range(3):
            for r in range(m1 + 1):
                for k in range(-1, 9):
                    cfg, want = config_a(m1, n, r), three_branch_dispatch(m1, n, r, k)
                    x_term = 0 < r == m1 - 1
                    D = max(2, k) if x_term else 2
                    if want is None:
                        with pytest.raises(ValueError, match=rejection):
                            verify_composition_series(cfg, k, D, margin=0)
                        continue
                    inside[min(r, 1) + x_term] += 1
                    rep = verify_composition_series(cfg, k, D, margin=0)
                    terms = ["H", "eta^%d H(k=%d)" % want, "0"]
                    if x_term:
                        terms.insert(1, f"<x{m1}^{k}>")
                    assert [d["term"] for d in rep.dims] == [
                        f"{hi} > {lo}" for hi, lo in zip(terms, terms[1:])
                    ], (m1, n, r, k)
    assert set(inside) == {0, 1, 2}  # every branch is reached


@pytest.mark.parametrize(
    "cfg, k, D, terms",
    [
        (config_a(2, 2, 0), 2, 1, ["H", "eta^1 H(k=0)", "0"]),
        (config_a(3, 1, 1), 2, 1, ["H", "eta^2 H(k=-2)", "0"]),
        (config_a(2, 0, 1), 3, 2, ["H", "<x2^3>", "eta^3 H(k=-3)", "0"]),
    ],
    ids=["r0", "r-inner", "r-m1-minus-1"],
)
def test_series_above_the_window_reports_every_term_empty(cfg, k, D, terms):
    """For k > D the slice is empty: every branch, the <x_m1^k> one too,
    reports each inclusion as not strict, with no witness."""
    rep = verify_composition_series(cfg, k, D, margin=0)
    pairs = list(zip(terms, terms[1:]))
    assert rep.status == "inconclusive-window" and not rep.witnesses
    assert rep.dims == [
        {"d": D, "term": f"{hi} > {lo}", "dim_outer": 0, "dim_inner": 0,
         "status": "inconclusive-window"}
        for hi, lo in pairs
    ]
    assert rep.notes == [f"inclusion {hi} > {lo} not strict on window" for hi, lo in pairs] + [
        f"no singular vector found for layer {hi}/{lo}" for hi, lo in pairs
    ]


def test_series_verdicts_are_monotone_in_the_window():
    """Over m1 <= 3, n <= 2, r < m1, k 0..5 and D 4/6/8 at margin 2 (D 4/6
    alone for m1 = 3, n = 2, the costliest windows), a fail at D stays a
    fail at D + 2, and a pass never becomes a fail there.  A pass may turn
    inconclusive-window: the from-below <x_m1^k> closure can miss layer rows
    of the larger window (A(3,1,2) k2 D6 does)."""
    seen = Counter()
    for m1 in range(1, 4):
        for n in range(3):
            for r in range(m1):
                for k in range(6):
                    last = None
                    for D in (4, 6) if (m1, n) == (3, 2) else (4, 6, 8):
                        try:
                            status = verify_composition_series(config_a(m1, n, r), k, D, 2).status
                        except ValueError:  # k outside the chain's window
                            break
                        seen[status] += 1
                        case = (m1, n, r, k, D)
                        assert last != "fail" or status == "fail", case
                        assert last != "pass" or status != "fail", case
                        last = status
    assert seen["fail"] and seen["pass"] and seen["inconclusive-window"], seen


def test_series_fully_swapped_edge():
    cfg = config_a(2, 1, 1)  # r = m1-1 = 1: chain with the generated middle term
    rep = verify_composition_series(cfg, 2, 8, margin=4)
    assert rep.status == "pass", (rep.notes, rep.dims)


# a golden's name starts with the verifier that wrote it
GOLDEN_VERIFIERS = {
    "series": verify_composition_series,
    "direct_sum": verify_direct_sum,
    "aprime": verify_aprime_structure,
}
GOLDEN_OPTIONS = {"aprime_A12_k1_D6_m3_seed5": {"seed": 5, "num_seeds": 2}}


@pytest.mark.parametrize(
    "name, cfg, k, D, margin",
    [
        ("series_A211_k2_D12_m4", config_a(2, 1, 1), 2, 12, 4),
        ("series_A311_k1_D6_m2", config_a(3, 1, 1), 1, 6, 2),
        # inconclusive-window: the inclusion eta^2 H(k=-2) > 0 is not strict
        ("series_A311_k2_D6_m2", config_a(3, 1, 1), 2, 6, 2),
        # fail: singular vectors do not reach the top layer at d=2
        ("series_A110_k2_D8_m4", config_a(1, 1, 0), 2, 8, 4),
        # fail with every level inconclusive
        ("direct_sum_A211_k2_D10_m4", config_a(2, 1, 1), 2, 10, 4),
        ("direct_sum_A222_k2_D8_m4", config_a(2, 2, 2), 2, 8, 4),
        ("direct_sum_A110_k2_D4_m0", config_a(1, 1, 0), 2, 4, 0),
        ("aprime_A12_k1_D6_m3_seed5", config_aprime(1, 2, set()), 1, 6, 3),
        # normalized to T={1,2}, then the two-block split
        ("aprime_A12_T34_k1_D6_m3", config_aprime(1, 2, {3, 4}), 1, 6, 3),
        ("aprime_A22_T13_k1_D6_m3", config_aprime(2, 2, {1, 3}), 1, 6, 3),
        # pass: the eta^1 H(k=0) and eta^1 H(k=1) terms as span . window
        ("series_A312_k2_D6_m2", config_a(3, 1, 2), 2, 6, 2),
        ("series_A322_k3_D6_m2", config_a(3, 2, 2), 3, 6, 2),
        # a zero meet at D=20, found by rank count alone
        ("direct_sum_A221_k2_D20_m4", config_a(2, 2, 1), 2, 20, 4),
        # eta^p for p >= 2 under <x3^k>: eta^2 H(k=-1) passes, eta^5 H(k=-4)
        # is inconclusive-window
        ("series_A312_k3_D8_m2", config_a(3, 1, 2), 3, 8, 2),
        ("series_A312_k6_D8_m2", config_a(3, 1, 2), 6, 8, 2),
        # a fail on 19k monomials, frozen before the elimination kept rows
        # content-free
        ("direct_sum_A422_k2_D10_m4", config_a(4, 2, 2), 2, 10, 4),
        # odd m: seeded closures whatever the swap set
        ("aprime_A12_T12_odd_k1_D6_m3", config_aprime(1, 2, {1, 2}, "odd"), 1, 6, 3),
    ],
)
def test_series_report_matches_golden(name, cfg, k, D, margin):
    """Every verifier's report, byte for byte, against a frozen snapshot."""
    verify = next(f for p, f in GOLDEN_VERIFIERS.items() if name.startswith(p + "_"))
    rep = verify(cfg, k, D, margin, **GOLDEN_OPTIONS.get(name, {}))
    got = json.dumps(rep.to_dict(), indent=1, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "verify, cfg, k, D, margin, golden, builder, calls",
    [
        (verify_direct_sum, config_a(2, 2, 2), 2, 8, 4, "direct_sum_A222_k2_D8_m4",
         "kernel_basis", 0),
        # the normalized two-block split at k = m1
        (verify_aprime_structure, config_aprime(1, 2, {3, 4}), 1, 6, 3,
         "aprime_A12_T34_k1_D6_m3", "intersect", 0),
        (verify_direct_sum, config_a(1, 1, 0), 2, 4, 0, "direct_sum_A110_k2_D4_m0",
         "kernel_basis", 1),
    ],
    ids=["direct-sum-pass", "aprime-split-pass", "direct-sum-fail"],
)
def test_witnesses_are_built_only_on_a_nonzero_meet(
    monkeypatch, verify, cfg, k, D, margin, golden, builder, calls
):
    """The rank count finds a zero meet without building witnesses; a
    nonzero meet builds them once and names the golden's witnesses.  The
    direct sum builds them from ``kernel_basis`` of Delta V, which it calls
    for nothing else; the A' two-block split from ``intersect``."""
    seen = []
    real = getattr(linalg, builder)
    monkeypatch.setattr(linalg, builder, lambda *args: seen.append(1) or real(*args))
    rep = verify(cfg, k, D, margin)
    want = json.loads((GOLDEN / f"{golden}.json").read_text())
    assert (len(seen), rep.status, rep.witnesses) == (calls, want["status"], want["witnesses"])


@pytest.mark.parametrize(
    "cfg, k, D",
    [(config_aprime(1, 2, {1, 2}), 1, 6), (config_aprime(2, 2, {1, 3}), 1, 4),
     (config_a(2, 1, 1), 2, 6), (config_a(2, 2, 1), 2, 6)],
    ids=["Aprime12-T12", "Aprime22-T13", "A211", "A221"],
)
def test_closure_does_not_depend_on_generator_order(cfg, k, D):
    """generate_submodule starts from the canonical basis of span(gens), so
    shuffled and reversed generators give the identical basis.  The window
    drops images per queued row, so closures queued from two bases of one
    span can reach different spans."""
    idx = MonomialIndex(SliceKey(cfg, k, D))
    codes, _ = idx.weight_codes
    rng = random.Random(1)
    for trial in range(6):
        pos = rng.sample(idx.codes, 2 + trial % 3)
        gens = [{i: 1} for i in pos]
        # one two-term weight vector
        same = [j for j in idx.codes if codes[j] == codes[pos[0]] and j != pos[0]]
        if same:
            gens.append({pos[0]: 2, rng.choice(same): -3})
        want = generate_submodule(idx, gens)
        assert generate_submodule(idx, gens[::-1]) == want
        for _ in range(3):
            rng.shuffle(gens)
            assert generate_submodule(idx, gens) == want


def test_closure_rejects_a_generator_that_is_no_weight_vector():
    """A generator whose monomials have two weights is a ValueError naming
    it, wherever it stands in the list."""
    cfg = config_a(2, 1, 1)
    sig = cfg.signature
    idx = MonomialIndex(SliceKey(cfg, 2, 6))
    x2, x3 = SuperPolynomial.x(sig, 2), SuperPolynomial.x(sig, 3)
    codes, _ = idx.weight_codes
    assert codes[min(idx.vec(x2**2))] != codes[min(idx.vec(x3**2))]
    mixed = r"^generator 1 \* x3\^2 \+ 1 \* x2\^2 is not a weight vector$"
    for gens in ([x2**2 + x3**2], [x2**2, x2**2 + x3**2]):
        with pytest.raises(ValueError, match=mixed):
            generate_submodule(idx, [idx.vec(g) for g in gens])


@pytest.mark.parametrize(
    "verify, cfg, k, D, margin, options",
    [
        (verify_composition_series, config_a(2, 1, 1), 2, 8, 4, {}),
        (verify_composition_series, config_a(1, 1, 0), 2, 8, 4, {}),
        (verify_aprime_structure, config_aprime(1, 2, {3, 4}), 1, 6, 3, {}),
        # the seed-5 golden
        (verify_aprime_structure, config_aprime(1, 2, set()), 1, 6, 3,
         {"seed": 5, "num_seeds": 2}),
    ],
    ids=["series-A211", "series-A110", "aprime-A12-T34", "aprime-A12-seed5"],
)
def test_reports_do_not_depend_on_operator_order(
    monkeypatch, verify, cfg, k, D, margin, options
):
    """Spans come back as canonical echelon bases, so listing the osp basis
    in reverse leaves every report byte-identical."""

    def report():
        return json.dumps(verify(cfg, k, D, margin, **options).to_dict(), sort_keys=True)

    want = report()
    reversed_basis = lambda cfg: osp_basis(cfg)[::-1]
    monkeypatch.setattr(slices, "osp_basis", reversed_basis)
    assert report() == want


def test_aprime_irreducible_marked_case():
    cfg = config_aprime(1, 2, set())  # S1 = {1,2}
    rep = verify_aprime_structure(cfg, 1, 6, margin=3, seed=5, num_seeds=2)
    assert rep.status == "pass", (rep.notes, rep.dims)


def test_aprime_two_block_split():
    cfg = config_aprime(1, 2, {1, 2})
    rep = verify_aprime_structure(cfg, 1, 6, margin=3)
    assert rep.status == "pass", (rep.notes, rep.dims)


def test_aprime_normalizes_before_split():
    cfg = config_aprime(1, 2, {3, 4})  # both pairs flipped; S1 = T1 = empty
    rep = verify_aprime_structure(cfg, 1, 6, margin=3)
    assert rep.status == "pass", (rep.notes, rep.dims)
    assert any("normalized" in s for s in rep.notes)


VERIFIER_CASES = [
    pytest.param(verify_direct_sum, config_a(2, 1, 1), 2, 6, {}, id="direct-sum"),
    pytest.param(verify_composition_series, config_a(2, 1, 1), 2, 6, {}, id="series"),
    pytest.param(verify_aprime_structure, config_aprime(1, 2, ()), 1, 4, {"num_seeds": 1},
                 id="aprime"),
]


@pytest.mark.parametrize("verify, cfg, k, D, options", VERIFIER_CASES)
@pytest.mark.parametrize("margin", [-2, -1, "D+1", 9])
def test_verifiers_reject_a_margin_outside_0_to_D(verify, cfg, k, D, options, margin):
    """A negative margin would verify levels above D, where the window has
    no monomials to test; one above D verifies no level at all."""
    margin = D + 1 if margin == "D+1" else margin
    with pytest.raises(ValueError, match=rf"^margin must lie in 0\.\.D={D}, got {margin}$"):
        verify(cfg, k, D, margin=margin, **options)


@pytest.mark.parametrize("verify, cfg, k, D, options", VERIFIER_CASES)
def test_verifiers_accept_margin_D(verify, cfg, k, D, options):
    """margin = D verifies level 0 only, which these slices leave empty."""
    rep = verify(cfg, k, D, margin=D, **options)
    assert all(d["d"] <= 0 for d in rep.dims)


@pytest.mark.parametrize("verify, cfg, k, D, options", VERIFIER_CASES)
@pytest.mark.parametrize(
    "name, bad", [("k", 2.5), ("k", True), ("D", 4.0), ("D", False), ("margin", 0.0)]
)
def test_verifiers_reject_a_window_size_that_is_no_int(verify, cfg, k, D, options, name, bad):
    """Every verifier builds its report first, and the report takes k, D and
    margin only as ints; a bool is no size."""
    window = {"k": k, "D": D, "margin": 0, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got {bad}$"):
        verify(cfg, window["k"], window["D"], margin=window["margin"], **options)


@pytest.mark.parametrize("num_seeds", [1.5, True])
def test_aprime_rejects_a_seed_count_that_is_no_int(num_seeds):
    with pytest.raises(ValueError, match=rf"^num_seeds must be an int, got {num_seeds}$"):
        verify_aprime_structure(config_aprime(1, 2, ()), 1, 4, margin=0, num_seeds=num_seeds)


@pytest.mark.parametrize("num_seeds", [-1, 0])
def test_aprime_rejects_a_seed_count_that_builds_no_seed(num_seeds):
    """num_seeds=-1 would run all seeds but one (pool[:-1]); 0 would run none."""
    with pytest.raises(ValueError, match=rf"^num_seeds must be >= 1 here, got {num_seeds}$"):
        verify_aprime_structure(config_aprime(1, 2, ()), 1, 4, margin=0, num_seeds=num_seeds)


def test_aprime_split_case_seeds_its_extreme_vector_alone():
    """Away from k = m1 the split case seeds the extreme vector, so no
    random seed is needed; a negative count is still rejected."""
    cfg = config_aprime(1, 2, {1, 2})
    rep = verify_aprime_structure(cfg, 2, 4, margin=0, num_seeds=0)
    assert rep.dims and {d["seed"] for d in rep.dims} == {"1 * x4 t1"}
    with pytest.raises(ValueError, match=r"^num_seeds must be >= 0 here, got -1$"):
        verify_aprime_structure(cfg, 2, 4, margin=0, num_seeds=-1)


def test_aprime_split_needs_two_pairs():
    with pytest.raises(ValueError, match=r"the split generator needs n >= 2"):
        verify_aprime_structure(config_aprime(1, 1, {1}), 1, 4, margin=2)


def test_odd_aprime_windows_never_fail():
    """Odd m has no markers, so every swap set takes the seeded closures: on
    m1 <= 2, n <= 2, T in {}, {1..n}, {1}, k 0..2, D 4..6 (margin 2) no
    report fails; the three inconclusive ones are the empty k = 2 slices of
    A'(0,0), whose one variable is a fermion."""
    statuses = Counter()
    for m1, n in product(range(3), range(3)):
        swap_sets = {frozenset(), frozenset(range(1, n + 1))} | ({frozenset({1})} if n else set())
        for T, k, D in product(swap_sets, range(3), range(4, 7)):
            rep = verify_aprime_structure(config_aprime(m1, n, T, "odd"), k, D, 2)
            statuses[rep.status] += 1
    assert statuses == {"pass": 159, "inconclusive-window": 3}


def test_aprime_empty_slice_is_inconclusive():
    rep = verify_aprime_structure(config_aprime(1, 2, set()), -1, 4, margin=0)
    assert rep.status == "inconclusive-window" and rep.notes == ["empty slice"] and not rep.dims


@pytest.mark.parametrize("cfg", [config_aprime(1, 2, {1, 2}), config_a(1, 1, 0, "odd")])
def test_series_rejects_aprime_and_odd_m(cfg):
    with pytest.raises(ValueError, match=r"^composition series checks apply to even family A$"):
        verify_composition_series(cfg, 2, 6, margin=2)


def test_aprime_structure_rejects_family_a():
    with pytest.raises(ValueError, match=r"^expects an Aprime configuration$"):
        verify_aprime_structure(A11_R0, 1, 4, margin=0)


def test_slice_key_rejects_a_negative_degree():
    with pytest.raises(ValueError, match=r"^max_degree must be nonnegative$"):
        SliceKey(A11_R0, 1, -1)


@pytest.mark.parametrize(
    "k, D, message",
    [
        (2.5, 4, "k must be an int, got 2.5"),
        (2, 4.0, "max_degree must be an int, got 4.0"),
        (True, 4, "k must be an int, got True"),
        (2, True, "max_degree must be an int, got True"),
    ],
)
def test_slice_key_rejects_a_size_that_is_no_int(k, D, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        MonomialIndex(SliceKey(config_a(2, 1, 1), k, D))


def test_singular_vectors_reject_an_unknown_space():
    with pytest.raises(ValueError, match=r"^within must be 'H' or 'A'$"):
        singular_vectors(MonomialIndex(SliceKey(A11_R0, 1, 2)), "V")


# -- bigraded cells ---------------------------------------------------------


def bigraded_monomials(cfg, s: int, t: int) -> list[SuperMonomial]:
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
        out += [(t - s + 2 * up, bos, mask) for bos in exponents(groups, (t - low, up - s))]
    return [SuperMonomial(bos, mask) for _, bos, mask in sorted(out)]


def _cell_index(cfg, s: int, t: int) -> MonomialIndex:
    """The (s, t) cell as a window: its key is the slice of grading s + t up
    to the cell's top degree, which holds every cell monomial."""
    cell = bigraded_monomials(cfg, s, t)
    top = max((m.total_degree for m in cell), default=0)
    return index_over(SliceKey(cfg, s + t, top), cell)


def bigraded_harmonic(cfg, s: int, t: int) -> list[SuperPolynomial]:
    """Exact kernel of the lowering operator on the finite (s, t) cell."""
    idx = _cell_index(cfg, s, t)
    return [idx.poly(row) for row in _lowering_kernel(idx, idx.codes)]


def test_bigraded_cells_are_finite_and_graded():
    cfg = config_aprime(1, 2, {1, 2})
    for s in (-1, 0, 1):
        for t in (0, 1, 2):
            monos = bigraded_monomials(cfg, s, t)
            for m in monos:
                assert k_degree(cfg, m) == s + t


def test_bigraded_cells_reject_odd_m():
    """Odd m leaves the fermion t_m out of the pairs the cells are built on."""
    cfg = config_aprime(1, 2, {1, 2}, "odd")
    with pytest.raises(ValueError, match=r"even m only"):
        bigraded_monomials(cfg, 0, 1)
    with pytest.raises(ValueError, match=r"even m only"):
        bigraded_harmonic(cfg, 0, 1)


def test_bigraded_cell_splits():
    # finite exact check: cell = harmonic part + raised lower cell
    cfg = config_aprime(1, 2, {1, 2})
    _, eta = delta_eta(cfg)
    sig = cfg.signature
    for s, t in [(0, 1), (1, 1), (-1, 2), (0, 2)]:
        cell = bigraded_monomials(cfg, s, t)
        if not cell:
            continue
        harmonic = bigraded_harmonic(cfg, s, t)
        lower_cell = bigraded_monomials(cfg, s - 1, t - 1)
        raised = [eta(SuperPolynomial.from_monomial(sig, m)) for m in lower_cell]
        idx = _cell_index(cfg, s, t)
        ech = Echelon()
        for p in harmonic + raised:
            if not p.is_zero():
                ech.insert(idx.vec(p))
        assert ech.dim == len(cell), (s, t)
        # trivial intersection: dims add up (raised part may be dependent)
        raised_ech = Echelon()
        for p in raised:
            if not p.is_zero():
                raised_ech.insert(idx.vec(p))
        assert len(harmonic) + raised_ech.dim == len(cell), (s, t)
