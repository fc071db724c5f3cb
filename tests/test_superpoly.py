"""Core supercommutative arithmetic, checked against the oracles and laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospoly.superpoly import (
    CodeLayout,
    SuperMonomial,
    SuperOperator,
    SuperPolynomial,
    VariableSignature,
    act_on_terms,
    apply_operator,
    compile_atoms,
    format_poly,
    mono_mul,
    theta_word,
    MUL_X,
    MUL_T,
    DER_X,
    DER_T,
    _act,
)
from oracles import (
    low_degree_monomials,
    naive_apply,
    naive_derive_ferm,
    naive_mono_mul,
    parse_poly,
)

SIG22 = VariableSignature(2, 2)


def mono(bos, *ferm):
    mask = 0
    for p in ferm:
        mask |= 1 << (p - 1)
    return SuperMonomial(tuple(bos), mask)


def poly_of(sig, bos, *ferm, coeff=1):
    return SuperPolynomial.from_monomial(sig, mono(bos, *ferm), coeff)


# -- mono_mul ----------------------------------------------------------


def test_theta_squares_to_zero():
    assert mono_mul(mono((0, 0), 1), mono((0, 0), 1)) is None


def test_theta_transposition_sign():
    sign, prod = mono_mul(mono((0, 0), 2), mono((0, 0), 1))
    assert sign == -1
    assert prod == mono((0, 0), 1, 2)


def test_sorted_product_keeps_sign():
    sign, prod = mono_mul(mono((2, 0), 1), mono((1, 0), 2))
    assert sign == 1
    assert prod == mono((3, 0), 1, 2)


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError):
        mono_mul(mono((0, 0), 1), mono((0,), 1))


def test_variables_outside_the_signature_rejected():
    with pytest.raises(ValueError, match=r"^x3 outside signature "):
        SuperPolynomial.x(SIG22, 3)
    with pytest.raises(ValueError, match=r"^t0 outside signature "):
        SuperPolynomial.theta(SIG22, 0)


def test_polynomial_and_operator_signature_mismatches_rejected():
    p, q = SuperPolynomial.one(SIG22), SuperPolynomial.one(SIG23)
    op = SuperOperator(SIG22, [(1, ((MUL_X, 0),))], 0)
    mismatch = r"^signature mismatch: VariableSignature\(num_bosonic=2, num_fermionic=2\) vs "
    with pytest.raises(ValueError, match=mismatch):
        p + q
    with pytest.raises(ValueError, match=mismatch):
        apply_operator(op, q)
    with pytest.raises(ValueError, match=r"^signature mismatch$"):
        op + SuperOperator(SIG23, [(1, ((MUL_X, 0),))], 0)


def test_negative_power_rejected():
    with pytest.raises(ValueError, match=r"^negative power$"):
        SuperPolynomial.x(SIG22, 1) ** -1


def test_polynomial_times_an_int_scales_it():
    p = poly_of(SIG22, (1, 0), 2, coeff=Fraction(1, 2))
    assert p * 3 == p.scale(3) == poly_of(SIG22, (1, 0), 2, coeff=Fraction(3, 2))
    assert repr(p) == "SuperPolynomial('1/2 * x1 t2')"


@given(
    st.integers(0, 15),
    st.integers(0, 15),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
)
def test_mono_mul_matches_oracle(mask_a, mask_b, bos_a, bos_b):
    a = SuperMonomial(tuple(bos_a), mask_a)
    b = SuperMonomial(tuple(bos_b), mask_b)
    word_a = tuple(p + 1 for p in range(4) if mask_a >> p & 1)
    word_b = tuple(p + 1 for p in range(4) if mask_b >> p & 1)
    got = mono_mul(a, b)
    expect = naive_mono_mul(tuple(bos_a), word_a, tuple(bos_b), word_b)
    if expect is None:
        assert got is None
    else:
        sign, bos, word = expect
        mask = 0
        for p in word:
            mask |= 1 << (p - 1)
        assert got == (sign, SuperMonomial(bos, mask))


@given(st.integers(0, 15), st.integers(0, 15))
def test_supercommutativity(mask_a, mask_b):
    a = SuperMonomial((0, 0), mask_a)
    b = SuperMonomial((0, 0), mask_b)
    ab = mono_mul(a, b)
    ba = mono_mul(b, a)
    if ab is None:
        assert ba is None
        return
    flip = -1 if (bin(mask_a).count("1") * bin(mask_b).count("1")) % 2 else 1
    assert ab[0] == flip * ba[0]
    assert ab[1] == ba[1]


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_mono_mul_associative(ma, mb, mc):
    a, b, c = (SuperMonomial((0,), m) for m in (ma, mb, mc))

    ab = mono_mul(a, b)
    left = None if ab is None else mono_mul(ab[1], c)
    if left is not None:
        left = (ab[0] * left[0], left[1])
    bc = mono_mul(b, c)
    right = None if bc is None else mono_mul(a, bc[1])
    if right is not None:
        right = (bc[0] * right[0], right[1])
    assert left == right


# -- derivatives -------------------------------------------------------


def derive(p: SuperPolynomial, var: tuple[str, int]) -> SuperPolynomial:
    """Left super-derivative by ("x", i) or ("t", q), 1-based indices."""
    kind, idx = var
    if kind == "x":
        if not 1 <= idx <= p.sig.num_bosonic:
            raise ValueError(f"x{idx} outside signature {p.sig}")
        chain = ((DER_X, idx - 1),)
    elif kind == "t":
        if not 1 <= idx <= p.sig.num_fermionic:
            raise ValueError(f"t{idx} outside signature {p.sig}")
        chain = ((DER_T, idx - 1),)
    else:
        raise ValueError(f"unknown variable kind {kind!r}")
    return _act(((1, chain),), p)


def test_left_derivative_first_position():
    p = theta_word(SIG22, [1, 2])
    assert derive(p, ("t", 1)) == SuperPolynomial.theta(SIG22, 2)


def test_left_derivative_second_position():
    p = theta_word(SIG22, [1, 2])
    assert derive(p, ("t", 2)) == -SuperPolynomial.theta(SIG22, 1)


def test_bosonic_derivative():
    p = poly_of(SIG22, (2, 0), 1)
    assert derive(p, ("x", 1)) == poly_of(SIG22, (1, 0), 1, coeff=2)


@given(st.integers(0, 31), st.integers(1, 5))
def test_fermionic_derivative_matches_oracle(mask, q):
    sig = VariableSignature(1, 5)
    p = SuperPolynomial.from_monomial(sig, SuperMonomial((0,), mask))
    word = tuple(i + 1 for i in range(5) if mask >> i & 1)
    got = derive(p, ("t", q))
    expect = naive_derive_ferm(word, q)
    if expect is None:
        assert got.is_zero()
    else:
        sign, new_word = expect
        assert got == theta_word(sig, new_word).scale(sign)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 4))
def test_graded_leibniz(mask_a, mask_b, q):
    """d(ab) = d(a) b + (-1)^{|a|} a d(b) for the left fermionic derivative."""
    sig = VariableSignature(1, 4)
    a = SuperPolynomial.from_monomial(sig, SuperMonomial((0,), mask_a))
    b = SuperPolynomial.from_monomial(sig, SuperMonomial((0,), mask_b))
    lhs = derive(a * b, ("t", q))
    sign = -1 if bin(mask_a).count("1") % 2 else 1
    rhs = derive(a, ("t", q)) * b + a.scale(sign) * derive(b, ("t", q))
    assert lhs == rhs


# -- operators ---------------------------------------------------------


def test_apply_theta_shift():
    op = SuperOperator(SIG22, [(Fraction(1), ((MUL_T, 0), (DER_T, 1)))], 0)
    assert op(SuperPolynomial.theta(SIG22, 2)) == SuperPolynomial.theta(SIG22, 1)


def test_double_fermionic_derivative_sign():
    # Pinned by requiring the lowering operator to kill x1 x2 + t1 t2.
    op = SuperOperator(SIG22, [(Fraction(1), ((DER_T, 0), (DER_T, 1)))], 0)
    assert op(theta_word(SIG22, [1, 2])) == SuperPolynomial.one(SIG22).scale(-1)


def test_multiplication_atom():
    op = SuperOperator(SIG22, [(Fraction(-1), ((MUL_X, 0), (MUL_X, 1)))], 0)
    assert op(SuperPolynomial.one(SIG22)) == -poly_of(SIG22, (1, 1))


def test_operator_linearity():
    rng = random.Random(11)
    op = SuperOperator(
        SIG22,
        [(Fraction(2), ((DER_X, 0), (MUL_X, 1))), (Fraction(-1), ((MUL_T, 0), (DER_T, 0)))],
        0,
    )
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert op(p + q.scale(c)) == op(p) + op(q).scale(c)


def test_chain_is_rightmost_first():
    # (x1 . d/dx1) and (d/dx1 . x1) differ by 1 on constants.
    left = SuperOperator(SIG22, [(Fraction(1), ((MUL_X, 0), (DER_X, 0)))], 0)
    right = SuperOperator(SIG22, [(Fraction(1), ((DER_X, 0), (MUL_X, 0)))], 0)
    one = SuperPolynomial.one(SIG22)
    assert left(one).is_zero()
    assert right(one) == one


def test_operator_parity_validation():
    with pytest.raises(ValueError):
        SuperOperator(SIG22, [(Fraction(1), ((DER_T, 0),))], 0)


def test_operator_keeps_int_and_makes_fraction_of_other_coefficients():
    chain = ((MUL_X, 0), (DER_X, 1))
    op = SuperOperator(SIG22, [(Fraction(1, 2), chain), (0.5, chain), (3, chain), (0, chain)], 0)
    assert op.atoms == [(Fraction(1, 2), chain), (Fraction(1, 2), chain), (3, chain)]
    assert [type(c) for c, _ in op.atoms] == [Fraction, Fraction, int]


def test_operator_sum():
    """An empty operand is the other one, whatever its parity; two nonempty
    operands of different parity are rejected."""
    even = SuperOperator(SIG22, [(1, ((MUL_X, 0), (DER_X, 1)))], 0)
    odd = SuperOperator(SIG22, [(-1, ((MUL_T, 0), (DER_X, 1)))], 1)
    assert even + SuperOperator(SIG22, [], 1) is even
    assert SuperOperator(SIG22, [], 0) + odd is odd
    assert (even + even).atoms == even.atoms * 2
    with pytest.raises(ValueError, match=r"^cannot add operators of different parity$"):
        even + odd


def test_operator_prints_its_atoms():
    zero = SuperOperator(SIG22, [], 0)
    assert (str(zero), repr(zero)) == ("0", "SuperOperator(0)")
    op = SuperOperator(
        SIG22, [(2, ((MUL_X, 0), (DER_T, 1), (MUL_T, 0))), (Fraction(-1, 2), ())], 0
    )
    assert str(op) == "2 * [x1 dt2 t1] + -1/2 * [1]"
    assert repr(op) == f"SuperOperator({op})"


SIG23 = VariableSignature(2, 3)


@st.composite
def chains(draw):
    """Chains of 1-3 atomic actions on SIG23; from length 2 on, two of them
    act on one variable (x_i d_i d_i, d_t t_q on the same q, ...), and the
    order is shuffled, so fermionic actions come in every order."""

    def variable():
        fermionic = draw(st.booleans())
        return fermionic, draw(st.integers(0, 2 if fermionic else 1))

    def action(var):
        fermionic, i = var
        return draw(st.sampled_from((MUL_T, DER_T) if fermionic else (MUL_X, DER_X))), i

    length = draw(st.integers(1, 3))
    twice = variable()
    chain = [action(twice) for _ in range(min(length, 2))]
    chain += [action(variable()) for _ in range(length - 2)]
    return tuple(draw(st.permutations(chain)))


monomials23 = st.builds(
    SuperMonomial, st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 7)
)


@settings(deadline=None)
@given(
    chains(),
    st.integers(-3, 3).filter(bool),
    st.lists(st.tuples(monomials23, st.integers(-3, 3).filter(bool)), min_size=1, max_size=4),
)
def test_kernel_matches_naive_action_on_random_chains(chain, a, terms):
    """apply_operator, and act_on_terms, whose row is keyed by image code,
    both give the oracle's image of a sum of terms; the codes are mapped
    back through the layout."""
    parity = sum(kind in (MUL_T, DER_T) for kind, _ in chain) & 1
    op = SuperOperator(SIG23, [(a, chain)], parity)
    p = SuperPolynomial.zero(SIG23)
    for m, c in terms:
        p = p + SuperPolynomial.from_monomial(SIG23, m, c)
    want = naive_apply(op, p)
    assert apply_operator(op, p) == want
    layout = CodeLayout(SIG23, 6 + 3 + len(chain))
    packed = [(layout.pack(m), c) for m, c in p.terms.items()]
    row = act_on_terms(compile_atoms([(a, chain)], layout), packed)
    assert {layout.unpack(code): c for code, c in row.items()} == want.terms
    assert all(c for c in row.values())


def random_poly(rng, sig=SIG22, terms=3, max_exp=3):
    p = SuperPolynomial.zero(sig)
    for _ in range(terms):
        bos = tuple(rng.randint(0, max_exp) for _ in range(sig.num_bosonic))
        mask = rng.randrange(1 << sig.num_fermionic)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + SuperPolynomial.from_monomial(sig, SuperMonomial(bos, mask), c)
    return p


# -- text format -------------------------------------------------------


def test_format_zero():
    assert format_poly(SuperPolynomial.zero(SIG22)) == "0"


def test_format_term():
    p = poly_of(SIG22, (3, 0), 1, 2, coeff=Fraction(-5, 3))
    assert format_poly(p) == "-5/3 * x1^3 t1 t2"


def test_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(rng)
        assert parse_poly(format_poly(p), SIG22) == p


def test_parse_accepts_bare_monomials():
    assert parse_poly("x1 t2", SIG22) == poly_of(SIG22, (1, 0), 2)
    assert parse_poly("7", SIG22) == SuperPolynomial.one(SIG22).scale(7)


def test_mul_preserves_no_zero_terms():
    p = poly_of(SIG22, (0, 0), 1) + poly_of(SIG22, (0, 0), 2)
    q = p * p
    assert all(c != 0 for c in q.terms.values())
    # (t1 + t2)^2 = t1 t2 + t2 t1 = 0
    assert q.is_zero()


@pytest.mark.parametrize(
    "sig, bound",
    [(SIG22, 4), (SIG23, 5), (VariableSignature(4, 4), 3), (VariableSignature(3, 0), 6),
     (VariableSignature(0, 3), 2), (SIG22, 0)],
)
def test_code_layout_round_trips_and_guards_its_bound(sig, bound):
    """Every monomial of degree <= bound packs to a distinct code that
    unpacks to it, codes sort as the monomials' canonical sort_key, and the
    top bits hold the degree; one past the bound raises ValueError and gives
    no code."""
    layout = CodeLayout(sig, bound)
    window = low_degree_monomials(sig, bound)
    codes = [layout.pack(m) for m in window]
    assert [layout.unpack(c) for c in codes] == window
    assert len(set(codes)) == len(codes)
    canonical = sorted(window, key=SuperMonomial.sort_key)
    assert sorted(codes) == [layout.pack(m) for m in canonical]
    assert [c >> layout.degree_shift for c in codes] == [m.total_degree for m in window]
    for m in low_degree_monomials(sig, bound + 1):
        if m.total_degree > bound:
            with pytest.raises(ValueError, match="degree bound"):
                layout.pack(m)


def test_kernel_refuses_a_source_whose_image_could_wrap_a_field():
    """x1^2 raises the degree by 2: a source of degree bound - 2 maps to its
    image, one of degree bound - 1 raises ValueError, and the field of x1
    never carries into x2's."""
    layout = CodeLayout(SIG22, 3)
    program = compile_atoms([(1, ((MUL_X, 0), (MUL_X, 0)))], layout)
    image = act_on_terms(program, [(layout.pack(SuperMonomial((1, 0), 0)), 1)])
    assert {layout.unpack(code): c for code, c in image.items()} == {SuperMonomial((3, 0), 0): 1}
    for near in (SuperMonomial((2, 0), 0), SuperMonomial((1, 0), 1), SuperMonomial((0, 0), 3)):
        with pytest.raises(ValueError, match="degree bound"):
            act_on_terms(program, [(layout.pack(near), 1)])
