"""Slice enumeration, kernels, singular vectors, closures, verifiers.

Expected dimensions are frozen from the brute-force oracles in oracles.py
(independent enumeration + dense rational nullspace).
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ospoly.osp import (
    config_a,
    config_aprime,
    delta_eta,
    eta_polynomial,
    k_degree,
    monomial_weight,
    osp_basis,
    rep_element,
    variable_k_weights,
    weight_of,
)
from ospoly.slices import (
    SliceKey,
    bigraded_harmonic,
    bigraded_monomials,
    eta_image,
    generate_submodule,
    harmonic_space,
    singular_vectors,
    slice_basis,
    slice_monomials,
    verify_aprime_structure,
    verify_composition_series,
    verify_direct_sum,
)
from ospoly.superpoly import SuperMonomial, SuperPolynomial, theta_word
from oracles import dense_nullspace, enumerate_slice

A11_R0 = config_a(1, 1, 0)
A11_R1 = config_a(1, 1, 1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def oracle_slice_count(cfg, k, D):
    weights, fw = variable_k_weights(cfg)
    sig = cfg.signature
    return len(
        enumerate_slice(sig.num_bosonic, sig.num_fermionic, weights, fw, k, D)
    )


# -- enumeration ---------------------------------------------------------


def test_slice_k1_is_all_four_variables():
    basis = slice_basis(SliceKey(A11_R0, 1, 4))
    assert basis.dim == 4
    names = {str(v) for v in basis.vectors}
    assert names == {"1 * x1", "1 * x2", "1 * t1", "1 * t2"}


def test_slice_k2_dimension_eight():
    assert slice_basis(SliceKey(A11_R0, 2, 4)).dim == 8


def test_empty_slice():
    assert slice_basis(SliceKey(A11_R0, -1, 6)).dim == 0


def test_slice_counts_match_oracle():
    for cfg in [A11_R0, A11_R1, config_a(2, 1, 1), config_aprime(1, 2, {1, 2}),
                config_a(1, 1, 1, "odd")]:
        for k in range(-2, 4):
            for D in (3, 5):
                got = len(slice_monomials(SliceKey(cfg, k, D)))
                assert got == oracle_slice_count(cfg, k, D), (cfg.describe(), k, D)


def test_slice_is_sorted_canonically():
    monos = slice_monomials(SliceKey(config_a(2, 1, 1), 0, 5))
    keys = [m.sort_key() for m in monos]
    assert keys == sorted(keys)


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
    assert hs.dim == 7
    assert hs.dim == oracle_harmonic_dim(A11_R0, 2, 2)


def test_harmonic_vanishes_above_n_when_fully_swapped():
    # k = n+1 = 2 with r = m1: no harmonic vectors in any window
    for D in (4, 6):
        assert harmonic_space(SliceKey(A11_R1, 2, D)).dim == 0


def test_constants_are_harmonic():
    hs = harmonic_space(SliceKey(A11_R0, 0, 0))
    assert hs.dim == 1
    assert str(hs.vectors[0]) == "1"


def test_harmonic_dims_match_oracle_swapped():
    for k in (-1, 0, 1):
        for D in (3, 4):
            got = harmonic_space(SliceKey(A11_R1, k, D)).dim
            assert got == oracle_harmonic_dim(A11_R1, k, D), (k, D)


def test_harmonic_members_are_harmonic_and_graded():
    lower, _ = delta_eta(config_a(2, 1, 1))
    hs = harmonic_space(SliceKey(config_a(2, 1, 1), 2, 5))
    assert hs.dim > 0
    for v in hs.vectors:
        assert lower(v).is_zero()
        for m in v.terms:
            assert k_degree(config_a(2, 1, 1), m) == 2


def test_harmonic_action_invariance():
    cfg = config_a(2, 1, 1)
    lower, _ = delta_eta(cfg)
    hs = harmonic_space(SliceKey(cfg, 1, 4))
    for v in hs.vectors:
        for e in osp_basis(cfg, "all"):
            assert lower(rep_element(cfg, e)(v)).is_zero()


# -- singular vectors ------------------------------------------------------


def test_unique_highest_weight_vector_outside_window():
    # m1=2, n=1, k=3 > 2(n-m1+1) = 0: only x1^3 up to scale
    sing = singular_vectors(SliceKey(config_a(2, 1, 0), 3, 3), "positive", "H")
    assert len(sing) == 1
    assert str(sing[0]) == "1 * x1^3"


def test_highest_weight_vectors_k1():
    sing = singular_vectors(SliceKey(A11_R0, 1, 1), "positive", "H")
    assert len(sing) == 1
    assert str(sing[0]) == "1 * x1"


def test_window_slice_has_two_highest_weight_lines():
    # k = 2 inside the window: x1^2 and the quadratic invariant
    sing = singular_vectors(SliceKey(A11_R0, 2, 2), "positive", "H")
    reprs = {str(s) for s in sing}
    assert "1 * x1^2" in reprs
    assert "1 * t1 t2 + 1 * x1 x2" in reprs
    assert len(sing) == 2


def test_even_singular_family_count():
    # within H, even positive part, m1=2, n=1, k=2: three ladder lines
    sing = singular_vectors(SliceKey(config_a(2, 1, 0), 2, 2), "positive_even", "H")
    assert len(sing) == 3


def test_abelian_orthogonal_factor_boundary_split():
    """m1=1 edge: the rank-one orthogonal factor has no raising operators,
    so the harmonic slice at m1=n=1, k=3 carries a second singular line
    that generates a complementary proper invariant subspace.  Verified
    exactly; the uniqueness claims hold from m1=2 on (previous tests)."""
    key = SliceKey(A11_R0, 3, 3)
    hs = harmonic_space(key)
    assert hs.dim == 8
    sing = singular_vectors(key, "positive", "H")
    assert len(sing) == 2
    gens = [generate_submodule(key, [s], 0) for s in sing]
    dims = sorted(g.dim for g in gens)
    assert dims == [4, 4]
    # the two closures are disjoint complements inside the kernel space
    from ospoly.slices import MonomialIndex
    import ospoly.linalg as la

    idx = MonomialIndex(slice_monomials(key))
    ech = la.Echelon()
    for g in gens:
        for v in g.vectors:
            ech.insert(idx.vec(v))
    assert ech.dim == 8


def test_singular_vectors_are_weight_vectors_and_annihilated():
    cfg = config_a(1, 2, 0)
    key = SliceKey(cfg, 2, 2)
    sing = singular_vectors(key, "positive", "H")
    pos_ops = [rep_element(cfg, e) for e in osp_basis(cfg, "positive")]
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
    sing = singular_vectors(SliceKey(cfg, 1, 3), "positive", "A")
    reprs = {str(s) for s in sing}
    assert "1 * x2 t1 t2" in reprs


@pytest.mark.parametrize("within", ["A", "H"])
def test_quotient_singular_vectors_match_dense_oracle(within):
    """singular_vectors(..., modulo=...) against a dense rational oracle.

    v lies in span(modulo) exactly when every vector of the dense nullspace
    of the modulo matrix (its annihilator) vanishes on v; per weight group
    the quotient singular space is the nullspace of those conditions on the
    positive-operator images (plus lowering-operator annihilation for H).
    """
    cfg = config_a(2, 1, 1)
    sig = cfg.signature
    key = SliceKey(cfg, 2, 6)
    modulo = eta_image(cfg, 0, 6, 1, cap=6)
    sing = singular_vectors(key, "positive", within, modulo=modulo)
    assert sing
    assert singular_vectors(key, "positive", within, modulo=modulo[::-1]) == sing

    pos_ops = [rep_element(cfg, e) for e in osp_basis(cfg, "positive")]
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


# -- closures --------------------------------------------------------------


def test_closure_of_one_contains_swapped_products():
    key = SliceKey(A11_R1, 0, 4)
    gen = generate_submodule(key, [SuperPolynomial.one(A11_R1.signature)], 2)
    # E(2,1) acts as -x2 x1, so x1 x2 must be reached
    target = SuperPolynomial.x(A11_R1.signature, 1) * SuperPolynomial.x(
        A11_R1.signature, 2
    )
    ech_reprs = {str(v) for v in gen.vectors}
    assert any("x1 x2" in s for s in ech_reprs)
    assert gen.dim >= 2


def test_invariant_line_is_closed():
    key = SliceKey(A11_R0, 2, 8)
    eta = eta_polynomial(A11_R0)
    gen = generate_submodule(key, [eta], 4)
    assert gen.dim == 1


def test_extreme_vector_generates_harmonics():
    key = SliceKey(A11_R0, 1, 4)
    x1 = SuperPolynomial.x(A11_R0.signature, 1)
    gen = generate_submodule(key, [x1], 2)
    hs = harmonic_space(SliceKey(A11_R0, 1, 4))
    assert gen.dim == hs.dim == 4


def test_generator_outside_slice_rejected():
    key = SliceKey(A11_R0, 1, 4)
    with pytest.raises(ValueError):
        generate_submodule(key, [SuperPolynomial.one(A11_R0.signature)], 2)
    with pytest.raises(ValueError):
        generate_submodule(key, [], 2)


def test_closure_monotone_in_window():
    cfg = A11_R1
    x2 = SuperPolynomial.x(cfg.signature, 2)
    dims = []
    for D in (4, 6, 8):
        gen = generate_submodule(SliceKey(cfg, 1, D), [x2], 2)
        # verified dimension at degree <= 2
        count = sum(
            1 for v in gen.vectors if v.max_degree() <= 2
        )
        dims.append(gen.dim)
    assert dims[0] <= dims[1] <= dims[2]


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


def test_series_rejects_out_of_window():
    with pytest.raises(ValueError):
        verify_composition_series(A11_R0, 3, 6, margin=2)


def test_series_fully_swapped_edge():
    cfg = config_a(2, 1, 1)  # r = m1-1 = 1: chain with the generated middle term
    rep = verify_composition_series(cfg, 2, 8, margin=4)
    assert rep.status == "pass", (rep.notes, rep.dims)


@pytest.mark.parametrize(
    "name, cfg, k, D, margin",
    [
        ("series_A211_k2_D12_m4", config_a(2, 1, 1), 2, 12, 4),
        ("series_A311_k1_D6_m2", config_a(3, 1, 1), 1, 6, 2),
    ],
)
def test_series_report_matches_golden(name, cfg, k, D, margin):
    rep = verify_composition_series(cfg, k, D, margin)
    got = json.dumps(rep.to_dict(), indent=1, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


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


# -- bigraded cells ---------------------------------------------------------


def test_bigraded_cells_are_finite_and_graded():
    cfg = config_aprime(1, 2, {1, 2})
    for s in (-1, 0, 1):
        for t in (0, 1, 2):
            monos = bigraded_monomials(cfg, s, t)
            for m in monos:
                assert k_degree(cfg, m) == s + t


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
        from ospoly.slices import MonomialIndex
        from ospoly import linalg as _unused  # noqa: F401
        import ospoly.linalg as la

        idx = MonomialIndex(cell)
        ech = la.Echelon()
        for p in harmonic + raised:
            if not p.is_zero():
                ech.insert(idx.vec(p))
        assert ech.dim == len(cell), (s, t)
        inter = len(harmonic) + sum(1 for p in raised if not p.is_zero())
        # trivial intersection: dims add up (raised part may be dependent)
        raised_ech = la.Echelon()
        for p in raised:
            if not p.is_zero():
                raised_ech.insert(idx.vec(p))
        assert len(harmonic) + raised_ech.dim == len(cell), (s, t)
