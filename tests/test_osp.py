"""Algebra structure data, swapped actions, gradings and weights."""

import random
from fractions import Fraction
from itertools import product

import pytest

from ospoly.osp import (
    MatrixElement,
    RepConfig,
    aprime_normalize,
    config_a,
    config_aprime,
    delta_eta,
    element_root,
    markers,
    monomial_weight,
    osp_basis,
    rep_element,
    rep_matrix_unit,
    unit,
    weight_code,
)
from ospoly.linalg import span, vec_from_fractions
from ospoly.slices import MonomialIndex, SliceKey, slice_monomials
from ospoly.superpoly import SuperMonomial, SuperPolynomial, compile_atoms, theta_word
from oracles import (
    aprime_transport,
    eta_polynomial,
    k_degree,
    low_degree_monomials,
    osp_part,
    superbracket,
    weight_of,
)

A11_R0 = config_a(1, 1, 0)
A11_R1 = config_a(1, 1, 1)


def mono(sig, bos, *ferm):
    mask = 0
    for p in ferm:
        mask |= 1 << (p - 1)
    return SuperPolynomial.from_monomial(sig, SuperMonomial(tuple(bos), mask))


# -- configurations --------------------------------------------------------


@pytest.mark.parametrize(
    "args, message",
    [
        (("mixed", 1, 1, "A", 0), "m_parity must be 'even' or 'odd'"),
        (("even", 1.5, 1, "A", 0), "m1 must be an int, got 1.5"),
        (("even", 1, True, "A", 0), "n must be an int, got True"),
        (("even", -1, 1, "A", 0), "m1 and n must be nonnegative"),
        (("even", 1, -1, "A", 0), "m1 and n must be nonnegative"),
        (("even", 1, 1, "A", 0.0), "r must be an int, got 0.0"),
        (("even", 1, 1, "A"), "family A needs 0 <= r <= m1"),
        (("even", 1, 1, "A", 2), "family A needs 0 <= r <= m1"),
        (("even", 1, 1, "A", 0, frozenset()), "family A takes no swap set T"),
        (("even", 1, 1, "Aprime", 0), "family Aprime takes no swap range r"),
        (("even", 1, 2, "Aprime", None, {"1"}), "a T entry must be an int, got '1'"),
        (("even", 1, 2, "Aprime", None, {True}), "a T entry must be an int, got True"),
        (("even", 1, 2, "Aprime", None, {0, 5}), "T entries outside 1..2n: [0, 5]"),
        (("even", 1, 1, "B", 0), "family must be 'A' or 'Aprime'"),
    ],
)
def test_rep_config_rejects_bad_input(args, message):
    with pytest.raises(ValueError) as err:
        RepConfig(*args)
    assert str(err.value) == message


def test_aprime_swap_set_defaults_to_empty():
    cfg = RepConfig("even", 1, 2, "Aprime")
    assert cfg.T == frozenset() and cfg == config_aprime(1, 2, ())


# -- matrix units under the action --------------------------------------


def test_unswapped_diagonal_is_euler():
    op = rep_matrix_unit(A11_R0, 1, 1)
    sig = A11_R0.signature
    assert op(mono(sig, (3, 0))) == mono(sig, (3, 0)).scale(3)
    assert op(SuperPolynomial.one(sig)).is_zero()


def test_swapped_diagonal_has_constant_shift():
    op = rep_matrix_unit(A11_R1, 1, 1)
    sig = A11_R1.signature
    # -x1 d/dx1 - 1 on x1^2 gives -3 x1^2
    assert op(mono(sig, (2, 0))) == mono(sig, (2, 0)).scale(-3)
    assert op(SuperPolynomial.one(sig)) == SuperPolynomial.one(sig).scale(-1)


def test_odd_unit_theta_times_derivative():
    # E(m+p, j) with j unswapped acts as t_p d/dx_j
    op = rep_matrix_unit(A11_R0, 3, 1)  # m=2, p=1, j=1
    sig = A11_R0.signature
    assert op(mono(sig, (1, 0))) == theta_word(sig, [1])


def test_swapped_offdiagonal_double_derivative():
    cfg = config_a(1, 1, 1)  # r=1, m=2: E(1,2) = d/dx1 d/dx2
    op = rep_matrix_unit(cfg, 1, 2)
    sig = cfg.signature
    assert op(mono(sig, (1, 1))) == SuperPolynomial.one(sig)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        rep_matrix_unit(A11_R0, 0, 1)
    with pytest.raises(ValueError):
        rep_matrix_unit(A11_R0, 1, 5)
    with pytest.raises(ValueError, match=r"^index \(5,1\) outside 1\.\.4$"):
        unit(A11_R0, 5, 1)


def test_operators_print_their_int_coefficients():
    """A unit's and a two-term element's operator print each int
    coefficient as an integer, the sign included."""
    assert str(rep_matrix_unit(A11_R1, 1, 2)) == "1 * [dx1 dx2]"
    e = unit(A11_R1, 1, 3) - unit(A11_R1, 4, 2)
    assert str(e) == "E(1,3)-E(4,2)"
    assert str(rep_element(A11_R1, e)) == "1 * [dx1 dt1] + -1 * [t2 dx2]"
    assert repr(rep_matrix_unit(A11_R1, 1, 1)) == "SuperOperator(-1 * [dx1 x1])"


# -- integer coefficients ------------------------------------------------


def _golden_grid():
    """Both families on the golden's range: both parities, m1 <= 3, n <= 2,
    every r, and T empty, {1..n} and {1}."""
    for parity, m1, n in product(("even", "odd"), range(4), range(3)):
        for r in range(m1 + 1):
            yield config_a(m1, n, r, parity)
        for T in {frozenset(), frozenset(range(1, n + 1)), frozenset({1} if n else ())}:
            yield config_aprime(m1, n, T, parity)


def test_operators_keep_int_coefficients():
    """Every spanning-set element's operator, and the lowering and raising
    operators where they are defined, has int coefficients; odd m's pair
    carries w = 2."""
    pairs = 0
    for cfg in _golden_grid():
        ops = [rep_element(cfg, e) for e in osp_basis(cfg)]
        try:
            pair = delta_eta(cfg)
        except ValueError:  # odd or non-normal-form Aprime
            pair = ()
        pairs += len(pair)
        for op in ops + list(pair):
            assert all(type(c) is int for c, _ in op.atoms), (cfg.describe(), str(op))
    assert pairs
    lower, raise_ = delta_eta(config_a(1, 1, 0, "odd"))
    assert [c for c, _ in lower.atoms] == [c for c, _ in raise_.atoms] == [2, 1, 2]


def test_window_programs_keep_int_coefficients():
    """Every op of a window's root programs and of its compiled lowering and
    raising operators has an int coefficient."""
    for cfg in _golden_grid():
        idx = MonomialIndex(SliceKey(cfg, 1, 2))
        programs = [program for _, program, _ in idx.roots]
        try:
            programs += idx.delta_eta
        except ValueError:  # odd or non-normal-form Aprime
            pass
        for program in programs:
            assert all(type(op[0]) is int for op in program.ops), cfg.describe()


def test_matrix_element_keeps_int_and_makes_fraction_of_other_coefficients():
    e = MatrixElement(4, 2, {(1, 1): 2, (1, 2): Fraction(1, 2), (2, 1): 0.5, (2, 2): 0})
    assert e.terms == {(1, 1): 2, (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
    assert [type(c) for c in e.terms.values()] == [int, Fraction, Fraction]
    assert type(unit(A11_R0, 1, 1).terms[(1, 1)]) is int


def test_matrix_element_rejects_mixed_parity_and_sizes():
    with pytest.raises(ValueError, match=r"^matrix element mixes parities$"):
        MatrixElement(4, 2, {(1, 1): 1, (1, 3): 1})
    with pytest.raises(ValueError, match=r"^size mismatch$"):
        unit(A11_R0, 1, 1) + unit(config_a(2, 1, 0), 1, 1)


def test_matrix_element_sum_drops_a_cancelled_term_and_prints_zero():
    e = unit(A11_R0, 1, 2) + unit(A11_R0, 2, 1)
    assert (e + unit(A11_R0, 1, 2).scale(-1)).terms == {(2, 1): 1}
    zero = e - e
    assert zero.is_zero()
    assert str(zero) == "0"
    assert repr(zero) == "MatrixElement(0)"
    assert repr(e) == "MatrixElement(E(1,2)+E(2,1))"


# -- superbracket --------------------------------------------------------


def test_bracket_even_even():
    cfg = config_a(2, 1, 0)
    e = superbracket(unit(cfg, 1, 2), unit(cfg, 2, 1))
    assert e == unit(cfg, 1, 1) - unit(cfg, 2, 2)


def test_bracket_odd_odd_anticommutator():
    cfg = config_a(2, 1, 0)  # m = 4
    e = superbracket(unit(cfg, 1, 5), unit(cfg, 5, 1))
    assert e == unit(cfg, 1, 1) + unit(cfg, 5, 5)


def test_bracket_disjoint_indices():
    cfg = config_a(2, 1, 0)
    assert superbracket(unit(cfg, 1, 2), unit(cfg, 3, 4)).is_zero()


def test_bracket_rejects_mixed_parity():
    cfg = config_a(2, 1, 0)
    mixed_ok = unit(cfg, 1, 2) + unit(cfg, 3, 4)  # both even: fine
    with pytest.raises(ValueError):
        unit(cfg, 1, 2) + unit(cfg, 1, 5)


# -- k grading -----------------------------------------------------------


def test_k_degree_unswapped():
    sig = A11_R0.signature
    m = SuperMonomial((1, 0), 0b01)  # x1 t1
    assert k_degree(A11_R0, m) == 2


def test_k_degree_swapped_counts_negative():
    m = SuperMonomial((2, 0), 0)
    assert k_degree(A11_R1, m) == -2


def test_k_degree_aprime():
    cfg = config_aprime(1, 1, {1})
    m = SuperMonomial((1, 0), 0b01)  # x1 t1 with 1 in the swap set
    assert k_degree(cfg, m) == 0


def test_action_preserves_k_degree():
    rng = random.Random(3)
    for cfg in [A11_R0, A11_R1, config_a(2, 1, 1), config_aprime(1, 2, {1, 4}),
                config_a(1, 1, 0, "odd"), config_a(1, 1, 1, "odd")]:
        sig = cfg.signature
        size = cfg.gl_size
        for _ in range(30):
            bos = tuple(rng.randint(0, 2) for _ in range(sig.num_bosonic))
            mask = rng.randrange(1 << sig.num_fermionic)
            m = SuperMonomial(bos, mask)
            k = k_degree(cfg, m)
            i, j = rng.randint(1, size), rng.randint(1, size)
            image = rep_matrix_unit(cfg, i, j)(
                SuperPolynomial.from_monomial(sig, m)
            )
            for mm in image.terms:
                assert k_degree(cfg, mm) == k


# -- representation property ---------------------------------------------


def check_rep_property(cfg):
    """[rho(u), rho(v)] = rho([u, v]) for every basis pair on every monomial
    of total degree <= 2."""
    sig = cfg.signature
    basis = osp_basis(cfg)
    reps = [rep_element(cfg, u) for u in basis]
    polys = [SuperPolynomial.from_monomial(sig, m) for m in low_degree_monomials(sig)]
    images = [[r(p) for p in polys] for r in reps]
    for (u, ru, u_imgs), (v, rv, v_imgs) in product(zip(basis, reps, images), repeat=2):
        rbr = rep_element(cfg, superbracket(u, v))
        sign = -1 if u.parity and v.parity else 1
        for p, u_p, v_p in zip(polys, u_imgs, v_imgs):
            lhs = ru(v_p) - rv(u_p).scale(sign)
            assert lhs == rbr(p), f"{cfg.describe()} fails on {u} , {v} at {p}"


def test_rep_property_even_a():
    check_rep_property(config_a(1, 1, 0))
    check_rep_property(config_a(1, 1, 1))
    check_rep_property(config_a(2, 1, 1))


def test_rep_property_even_aprime():
    check_rep_property(config_aprime(1, 1, set()))
    check_rep_property(config_aprime(1, 2, {1, 2}))
    check_rep_property(config_aprime(1, 2, {1, 4}))


def test_rep_property_odd():
    check_rep_property(config_a(1, 1, 0, "odd"))
    check_rep_property(config_a(1, 1, 1, "odd"))
    check_rep_property(config_aprime(1, 1, {1}, "odd"))


# -- spanning sets -------------------------------------------------------


def test_cartan_even_m1_1_n_1():
    h = osp_part(A11_R0, "cartan")
    assert h[0] == unit(A11_R0, 1, 1) - unit(A11_R0, 2, 2)
    assert h[1] == unit(A11_R0, 3, 3) - unit(A11_R0, 4, 4)


def test_positive_contains_odd_combination():
    cfg = config_a(2, 2, 0)  # m1=2, n=2, m=4
    pos = osp_part(cfg, "positive")
    target = unit(cfg, 1, 5) - unit(cfg, 7, 3)  # E(i,2m1+q) - E(2m1+n+q,m1+i)
    assert any(e == target for e in pos)


def test_odd_positive_contains_unpaired_row():
    cfg = config_a(1, 1, 0, "odd")  # m = 3
    pos = osp_part(cfg, "positive")
    target = unit(cfg, 3, 5) + unit(cfg, 4, 3)
    assert any(e == target for e in pos)


def test_even_part_dimensions():
    # so(2m1) + sp(2n) and the odd block of size m * 2n
    for m1, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        cfg = config_a(m1, n, 0)
        ev = osp_part(cfg, "even")
        od = osp_part(cfg, "odd")
        dim_so = m1 * (2 * m1 - 1)
        dim_sp = n * (2 * n + 1)
        assert len(ev) == dim_so + dim_sp
        assert len(od) == 2 * m1 * 2 * n


def test_odd_case_even_part_dimensions():
    for m1, n in [(1, 1), (2, 2)]:
        cfg = config_a(m1, n, 0, "odd")
        ev = osp_part(cfg, "even")
        od = osp_part(cfg, "odd")
        m = 2 * m1 + 1
        assert len(ev) == m1 * (2 * m1 + 1) + n * (2 * n + 1)
        assert len(od) == m * 2 * n


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_positive_is_the_lex_positive_roots(parity):
    """On the golden's range, a window's root table is the reference "roots"
    in order, each with its operator's compiled program and the weight code
    of its root, and its positive programs are those of the reference
    "positive" (positive first nonzero coordinate, eps_so then eps_sp); the
    roots come in pairs +-a, one element each, and one of each pair is
    positive."""
    for m1, n in product(range(4), range(3)):
        cfg = config_a(m1, n, 0, parity)
        idx = MonomialIndex(SliceKey(cfg, 1, 2))
        base = idx.weight_codes[1]
        roots, positive = osp_part(cfg, "roots"), osp_part(cfg, "positive")
        assert [e for e, _, _ in idx.roots] == roots, (m1, n)
        for e, program, step in idx.roots:
            assert step == weight_code(element_root(cfg, e), base), (m1, n, str(e))
            want = compile_atoms(rep_element(cfg, e).atoms, idx.layout)
            assert program.ops == want.ops, (m1, n, str(e))
        assert idx.positive == tuple(p for e, p, _ in idx.roots if e in positive), (m1, n)
        flat = [element_root(cfg, e).eps_so + element_root(cfg, e).eps_sp for e in roots]
        assert len(set(flat)) == len(flat)
        assert set(flat) == {tuple(-c for c in a) for a in flat}
        assert 2 * len(positive) == len(roots)


# -- weights -------------------------------------------------------------


def test_weight_of_power_of_x1():
    sig = A11_R0.signature
    for k in (1, 3):
        w = weight_of(A11_R0, mono(sig, (k, 0)))
        assert w is not None
        assert w.eps_so == (Fraction(k),)
        assert w.eps_sp == (Fraction(0),)


def test_weight_of_theta_word_r_equals_m1():
    cfg = config_a(2, 2, 2)
    sig = cfg.signature
    p = theta_word(sig, [1, 2])  # k = 2 <= n
    w = weight_of(cfg, p)
    assert w.eps_so == (Fraction(-1), Fraction(-1))
    assert w.eps_sp == (Fraction(1), Fraction(1))


def test_not_a_weight_vector():
    sig = A11_R0.signature
    p = mono(sig, (1, 0)) + theta_word(sig, [1])
    assert weight_of(A11_R0, p) is None


def test_weight_of_zero_rejected():
    with pytest.raises(ValueError):
        weight_of(A11_R0, SuperPolynomial.zero(A11_R0.signature))


def test_monomials_are_weight_vectors():
    rng = random.Random(17)
    for cfg in [A11_R0, config_a(2, 2, 1), config_aprime(1, 2, {1, 2}),
                config_a(1, 2, 1, "odd")]:
        sig = cfg.signature
        for _ in range(20):
            bos = tuple(rng.randint(0, 2) for _ in range(sig.num_bosonic))
            mask = rng.randrange(1 << sig.num_fermionic)
            m = SuperMonomial(bos, mask)
            w = weight_of(cfg, SuperPolynomial.from_monomial(sig, m))
            assert w is not None
            assert w == monomial_weight(cfg, m)


ROOT_CASES = {
    "A-even": (config_a(2, 2, 1), 1, 4),
    "A-odd": (config_a(1, 2, 1, "odd"), 1, 4),
    "Aprime": (config_aprime(2, 2, {1, 3}), 1, 4),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_root_elements_move_weights_by_their_root(case):
    """Every "roots" element maps a slice monomial into the weight space of
    its weight plus element_root, which is nonzero."""
    cfg, k, D = ROOT_CASES[case]
    monos = slice_monomials(SliceKey(cfg, k, D))
    sig = cfg.signature
    moved = 0
    for e in osp_part(cfg, "roots"):
        root = element_root(cfg, e)
        assert any(root.eps_so + root.eps_sp), str(e)
        op = rep_element(cfg, e)
        for m in monos:
            w = monomial_weight(cfg, m)
            want = (
                tuple(a + b for a, b in zip(w.eps_so, root.eps_so)),
                tuple(a + b for a, b in zip(w.eps_sp, root.eps_sp)),
            )
            image = op(SuperPolynomial.from_monomial(sig, m))
            for mono in image.terms:
                assert monomial_weight(cfg, mono) == want, (str(e), m, mono)
            moved += not image.is_zero()
    assert moved


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("m1, n", [(0, 2), (1, 1), (2, 2), (3, 1)])
def test_roots_are_all_without_the_cartan(parity, m1, n):
    """The reference "roots" is the spanning set with the Cartan elements
    taken out, in order, and element_root is zero exactly on those."""
    cfg = config_a(m1, n, 0, parity)
    everything = osp_basis(cfg)
    cartan = osp_part(cfg, "cartan")
    assert osp_part(cfg, "roots") == [e for e in everything if e not in cartan]
    assert all(e in everything for e in cartan)
    for e in everything:
        root = element_root(cfg, e)
        assert (not any(root.eps_so + root.eps_sp)) == (e in cartan), str(e)


# -- lowering/raising pair ----------------------------------------------


def test_lowering_kills_powers_of_x1():
    d, _ = delta_eta(A11_R0)
    sig = A11_R0.signature
    for k in range(5):
        assert d(mono(sig, (k, 0))).is_zero()


def test_lowering_kills_quadratic_invariant():
    d, e = delta_eta(A11_R0)
    sig = A11_R0.signature
    inv = mono(sig, (1, 1)) + theta_word(sig, [1, 2])
    assert eta_polynomial(A11_R0) == inv
    assert d(inv).is_zero()
    # sign pin: the bosonic part alone maps to 1
    assert d(mono(sig, (1, 1))) == SuperPolynomial.one(sig)


def test_odd_case_unpaired_square():
    cfg = config_a(1, 1, 0, "odd")
    d, _ = delta_eta(cfg)
    sig = cfg.signature
    assert d(mono(sig, (0, 0, 2))) == SuperPolynomial.one(sig).scale(2)


def test_degree_shift_of_pair():
    rng = random.Random(23)
    for cfg in [A11_R0, A11_R1, config_a(2, 2, 1), config_a(1, 1, 1, "odd")]:
        d, e = delta_eta(cfg)
        sig = cfg.signature
        for _ in range(25):
            bos = tuple(rng.randint(0, 2) for _ in range(sig.num_bosonic))
            mask = rng.randrange(1 << sig.num_fermionic)
            m = SuperMonomial(bos, mask)
            k = k_degree(cfg, m)
            p = SuperPolynomial.from_monomial(sig, m)
            for mm in d(p).terms:
                assert k_degree(cfg, mm) == k - 2
            for mm in e(p).terms:
                assert k_degree(cfg, mm) == k + 2


def test_kernel_invariance_smoke():
    # elements killed by the lowering operator stay so under the action
    cfg = A11_R0
    d, _ = delta_eta(cfg)
    sig = cfg.signature
    f = mono(sig, (1, 1)) + theta_word(sig, [1, 2])  # x1 x2 + t1 t2
    assert d(f).is_zero()
    for g in osp_basis(cfg):
        assert d(rep_element(cfg, g)(f)).is_zero()


def test_aprime_delta_requires_normal_form():
    cfg = config_aprime(1, 2, {1, 4})
    with pytest.raises(ValueError):
        delta_eta(cfg)


def test_aprime_normal_form_pair():
    cfg = config_aprime(1, 2, {1, 2})
    d, e = delta_eta(cfg)
    sig = cfg.signature
    # t1 is in the degree-m1 slice and killed by the lowering operator
    assert d(theta_word(sig, [1])).is_zero()
    # eta raises the grading by 2
    m = SuperMonomial((0, 0, 0, 0), 0)
    p = SuperPolynomial.from_monomial(sig, m)
    for mm in e(p).terms:
        assert k_degree(cfg, mm) == k_degree(cfg, m) + 2


# -- markers and normalization -------------------------------------------


def test_markers_empty_swap_set():
    cfg = config_aprime(1, 2, set())
    mk = markers(cfg)
    assert mk.S1 == frozenset({1, 2}) and mk.T1 == frozenset()


def test_markers_full_normal_form():
    cfg = config_aprime(1, 2, {1, 2})
    mk = markers(cfg)
    assert mk.S1 == frozenset() and mk.T1 == frozenset()


def test_markers_mixed():
    cfg = config_aprime(1, 2, {1, 3})
    mk = markers(cfg)
    assert mk.T1 == frozenset({1}) and mk.S1 == frozenset({2})


def test_markers_reject_family_a():
    with pytest.raises(ValueError, match=r"^markers are defined for the Aprime family$"):
        markers(A11_R0)


@pytest.mark.parametrize("T", [set(), {1, 3}], ids=["S1", "T1"])
def test_aprime_normalize_rejects_a_pair_outside_or_inside_the_swap_set(T):
    with pytest.raises(ValueError, match=r"^normal form applies only when S1 and T1 are empty$"):
        aprime_normalize(config_aprime(1, 2, T))


def test_aprime_normalize():
    cfg = config_aprime(1, 2, {1, 4})  # pair 2 flipped
    normal, transport = aprime_normalize(cfg), aprime_transport(cfg)
    assert normal.T == frozenset({1, 2})
    sig = cfg.signature
    # the grading of every monomial is preserved slice by slice
    rng = random.Random(31)
    for _ in range(25):
        bos = tuple(rng.randint(0, 2) for _ in range(4))
        mask = rng.randrange(4)
        m = SuperMonomial(bos, mask)
        k = k_degree(cfg, m)
        q = transport(SuperPolynomial.from_monomial(sig, m))
        assert not q.is_zero()
        for mm in q.terms:
            assert k_degree(normal, mm) == k
    # transport is invertible (an involution up to sign), so no collapse
    p = SuperPolynomial.x(sig, 2) * SuperPolynomial.x(sig, 4)
    assert not transport(p).is_zero()


@pytest.mark.parametrize(
    "cfg",
    [config_aprime(1, 2, {1, 4}), config_aprime(1, 2, {3, 4}), config_aprime(2, 2, {2, 3})],
    ids=["Aprime12-T14", "Aprime12-T34", "Aprime22-T23"],
)
def test_aprime_normalize_intertwines_the_actions(cfg):
    """transport(e . p) lies in span{e' . transport(p) : e' in the normal
    form's osp basis}, for every osp element e and 40 monomials p: the
    transport maps the action of cfg into that of the normal form, up to an
    automorphism of the algebra.  Coordinates number monomials on first
    sight, so a transported image off the span's monomials is outside it."""
    normal, transport = aprime_normalize(cfg), aprime_transport(cfg)
    sig = cfg.signature
    ops = [rep_element(cfg, e) for e in osp_basis(cfg)]
    normal_ops = [rep_element(normal, e) for e in osp_basis(normal)]
    for m in random.Random(3).sample(low_degree_monomials(sig, 3), 40):
        p = SuperPolynomial.from_monomial(sig, m)
        q = transport(p)
        coords = {}

        def vec(poly):
            return vec_from_fractions(
                {coords.setdefault(mono, len(coords)): c for mono, c in poly.terms.items()}
            )

        ech = span(vec(op(q)) for op in normal_ops)
        for e, op in zip(osp_basis(cfg), ops):
            assert ech.contains(vec(transport(op(p)))), (str(e), m)
