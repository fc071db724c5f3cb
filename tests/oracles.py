"""Independent brute-force oracles and test-only references used to pin
expected values.

Most of this is deliberately naive and separate from the library code:
fermionic words are kept as explicit index lists and sorted by bubble sort
(counting swaps for the sign), derivatives walk those lists, and nullspaces
are computed by dense rational Gaussian elimination; library classes serve
only as containers.  The library must agree with these on every frozen
example.  These call library code, so they check only what they add to it:
``weight_of`` (``rep_element``), ``k_degree`` (``variable_k_weights``),
``eta_polynomial`` (``delta_eta``), ``parse_poly`` (polynomial products),
``reference_closure`` (``rep_element``, ``Echelon``, ``MonomialIndex``),
``scan_insert`` (``linalg.normalize``), ``reference_slice_monomials``
(``variable_k_weights``), ``reference_weight_codes`` (``_weight_table``,
``weight_code``), ``osp_part`` (``osp_basis``) and ``reference_direct_sum``
(``kernel_basis``, ``rank_profile``, ``eta_span_of_slice``,
``_check_direct_sum``).
"""

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from operator import mul

from ospoly.linalg import Echelon, kernel_basis, normalize, rank_profile
from ospoly.osp import (
    EVEN,
    ODD,
    MatrixElement,
    Weight,
    delta_eta,
    osp_basis,
    rep_element,
    variable_k_weights,
    weight_code,
)
from ospoly.slices import (
    MonomialIndex,
    SliceKey,
    VerificationReport,
    _check_direct_sum,
    _weight_table,
    eta_span_of_slice,
)
from ospoly.superpoly import (
    DER_T,
    DER_X,
    MUL_T,
    MUL_X,
    SuperMonomial,
    SuperPolynomial,
    act_on_terms,
    mono_one,
)


def sort_word(word):
    """Bubble-sort a fermionic index list; return (sign, sorted) or None."""
    word = list(word)
    sign = 1
    n = len(word)
    for i in range(n):
        for j in range(n - 1 - i):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
            elif word[j] == word[j + 1]:
                return None
    return sign, word


def naive_mono_mul(bos_a, word_a, bos_b, word_b):
    """Multiply x^a * word_a by x^b * word_b; None if it vanishes."""
    res = sort_word(list(word_a) + list(word_b))
    if res is None:
        return None
    sign, word = res
    return sign, tuple(x + y for x, y in zip(bos_a, bos_b)), tuple(word)


def naive_derive_ferm(word, q):
    """Left derivative d/dt_q on a sorted word; None if t_q absent."""
    word = list(word)
    if q not in word:
        return None
    pos = word.index(q)  # 0-based
    sign = -1 if pos % 2 else 1
    del word[pos]
    return sign, tuple(word)


def dense_nullspace(rows, ncols):
    """Nullspace basis of a rational matrix given as a list of rows."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, len(mat)):
            if mat[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for rr in range(len(mat)):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


def low_degree_monomials(sig, max_degree=2):
    """Every monomial of total degree <= max_degree, in graded-lex order."""
    out = []
    for mask in range(1 << sig.num_fermionic):
        t = bin(mask).count("1")
        for bos in product(range(max_degree + 1), repeat=sig.num_bosonic):
            if sum(bos) + t <= max_degree:
                out.append(SuperMonomial(bos, mask))
    return sorted(out, key=lambda m: m.sort_key())


def enumerate_bosonic(nvars, max_total):
    """All exponent tuples with sum <= max_total."""
    if nvars == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in enumerate_bosonic(nvars - 1, max_total - head):
            yield (head,) + tail


def enumerate_slice(nb, nf, weights, ferm_weight, k, max_degree):
    """All (bos, word) with the weighted degree k and total degree <= D.

    weights[i] is the grading contribution of one power of x_{i+1};
    ferm_weight that of each fermionic factor.
    """
    out = []
    for bits in product((0, 1), repeat=nf):
        word = tuple(i + 1 for i, b in enumerate(bits) if b)
        t = len(word)
        if t > max_degree:
            continue
        for bos in enumerate_bosonic(nb, max_degree - t):
            kk = ferm_weight * t + sum(w * e for w, e in zip(weights, bos))
            if kk == k:
                out.append((bos, word))
    return out


def _naive_step(kind, i, bos, word):
    """One atomic action on x^bos * word: (factor, bos, word) or None."""
    bos = list(bos)
    if kind == MUL_X:
        bos[i] += 1
        return 1, bos, word
    if kind == DER_X:
        e = bos[i]
        if not e:
            return None
        bos[i] -= 1
        return e, bos, word
    if kind == MUL_T:
        res = sort_word([i + 1] + list(word))
    else:
        res = naive_derive_ferm(word, i + 1)
    if res is None:
        return None
    return res[0], bos, tuple(res[1])


def naive_apply(op, p):
    """op applied to p one atomic action at a time, rightmost action first.

    Fermionic factors are kept as explicit index words: multiplying by t_q
    puts q in front and bubble-sorts the word, and d/dt_q is
    ``naive_derive_ferm``.  Returns the image as a SuperPolynomial.
    """
    out = {}
    for coeff, chain in op.atoms:
        for mono, c in p.terms.items():
            v = coeff * c
            bos = mono.bos
            word = tuple(q + 1 for q in range(mono.mask.bit_length()) if mono.mask >> q & 1)
            for kind, i in reversed(chain):
                res = _naive_step(kind, i, bos, word)
                if res is None:
                    break
                factor, bos, word = res
                v *= factor
            else:
                m = SuperMonomial(tuple(bos), sum(1 << (q - 1) for q in word))
                out[m] = out.get(m, 0) + v
    return SuperPolynomial(p.sig, {m: v for m, v in out.items() if v})


def reference_closure(key, gens, ops=None):
    """The windowed closure on polynomials: every queued vector is a
    SuperPolynomial, each image is ``naive_apply``'d, dropped when its
    max_degree() exceeds D and vectorized with ``MonomialIndex.vec``.
    ops defaults to the osp action.  Returns the basis polynomials in the
    order generate_submodule lists them.
    """
    cfg, D = key.cfg, key.max_degree
    sig = cfg.signature
    idx = MonomialIndex(key)
    if ops is None:
        ops = [rep_element(cfg, e) for e in osp_basis(cfg, "all")]
    ech = Echelon()
    queue = []
    for g in gens:
        row = ech.insert(idx.vec(g))
        if row is not None:
            queue.append(idx.poly(row))
    while queue:
        v = queue.pop()
        for op in ops:
            image = naive_apply(op, v)
            if image.is_zero() or image.max_degree() > D:
                continue
            row = ech.insert(idx.vec(image))
            if row is not None:
                queue.append(idx.poly(row))
    return [idx.poly(row) for row in ech.basis()]


def scan_insert(rows, vec):
    """Echelon insert that scans every stored row for the new pivot.

    rows maps pivot -> normalized integer row and is updated in place, with
    the pivot rule "smallest index wins" and rows kept fully reduced against
    each other.  Returns the new row, or None when vec is already in the span.
    """
    def eliminate(v, row, p):
        a, b = row[p], v[p]
        out = {k: a * c for k, c in v.items()}
        for k, c in row.items():
            out[k] = out.get(k, 0) - b * c
        return {k: c for k, c in out.items() if c}

    vec = {k: c for k, c in vec.items() if c}
    while True:
        hits = [k for k in vec if k in rows]
        if not hits:
            break
        vec = eliminate(vec, rows[min(hits)], min(hits))
    vec = normalize(vec)
    if not vec:
        return None
    p = min(vec)
    for q, row in list(rows.items()):
        if p in row:
            rows[q] = normalize(eliminate(row, vec, p))
    rows[p] = vec
    return vec


def reference_slice_monomials(key):
    """The tuple enumerator ``slices.slice_codes`` replaced, kept as its
    reference: all monomials with grading k and total degree <= D, as
    (degree, exponents, mask) tuples sorted, which is canonical order.

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
            bos_list = list(exponents(groups, (k - t + b, b)))
            out += [(k + 2 * b, bos, mask) for mask in masks for bos in bos_list]
    return [SuperMonomial(bos, mask) for _, bos, mask in sorted(out)]


def exponents(groups, degrees):
    """Exponent tuples whose entries on groups[i] sum to degrees[i]; the
    groups partition the positions."""
    e = [0] * sum(map(len, groups))
    for parts in product(*map(exponents_with_sum, map(len, groups), degrees)):
        for g, part in zip(groups, parts):
            for i, x in zip(g, part):
                e[i] = x
        yield tuple(e)


def exponents_with_sum(nvars, total):
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in exponents_with_sum(nvars - 1, total - head):
            yield (head,) + tail


def reference_act_on_terms(atoms, terms):
    """The tuple-based action kernel the packed one replaced, kept as its
    reference: terms are (SuperMonomial, coefficient) pairs and atoms are
    (integer coefficient, chain) pairs.  Same contract as
    ``superpoly.act_on_terms`` otherwise: the image as {monomial:
    coefficient}, keys in order of first sight, no zero entry kept.
    """
    out = {}
    for (bos0, mask0), c in terms:
        for a, chain in atoms:
            bos, mask, f = list(bos0), mask0, a
            for kind, i in reversed(chain):
                if kind == MUL_X:
                    bos[i] += 1
                elif kind == DER_X:
                    e = bos[i]
                    if not e:
                        break
                    f *= e
                    bos[i] = e - 1
                else:
                    bit = 1 << i
                    # MUL_T needs t_q absent, DER_T (a left derivative) present
                    if bool(mask & bit) != (kind == DER_T):
                        break
                    if (mask & (bit - 1)).bit_count() & 1:
                        f = -f
                    mask ^= bit
            else:
                m = SuperMonomial(tuple(bos), mask)
                s = out.get(m, 0) + c * f
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def superbracket(u, v):
    """[u, v] = uv - (-1)^{|u||v|} vu on parity-homogeneous elements."""
    if (u.size, u.m) != (v.size, v.m):
        raise ValueError("size mismatch")
    sign = -1 if (u.parity and v.parity) else 1
    out: dict = {}

    def add(i, j, c):
        s = out.get((i, j), 0) + c
        if s:
            out[(i, j)] = s
        else:
            out.pop((i, j), None)

    for (a, b), cu in u.terms.items():
        for (c, d), cv in v.terms.items():
            if b == c:
                add(a, d, cu * cv)
            if d == a:
                add(c, b, -sign * cu * cv)
    parity = (u.parity + v.parity) & 1 if out else None
    return MatrixElement(u.size, u.m, out, parity)


def k_degree(cfg, mono) -> int:
    """Integer grading preserved by the action: fermionic count plus the
    unswapped bosonic degrees minus the swapped ones."""
    weights, ferm = variable_k_weights(cfg)
    return ferm * bin(mono.mask).count("1") + sum(
        w * e for w, e in zip(weights, mono.bos)
    )


def osp_part(cfg, part):
    """A part of osp(m|2n) that only tests read, filtered from an
    ``osp_basis`` list in its order: "even" and "odd" from "all" by parity,
    "cartan" from "all" as the diagonal elements, and "positive_even" from
    "positive" by parity."""
    if part == "positive_even":
        return [e for e in osp_basis(cfg, "positive") if e.parity == EVEN]
    keep = {
        "even": lambda e: e.parity == EVEN,
        "odd": lambda e: e.parity == ODD,
        "cartan": lambda e: all(i == j for i, j in e.terms),
    }[part]
    return [e for e in osp_basis(cfg, "all") if keep(e)]


def weight_of(cfg, p):
    """Simultaneous Cartan eigenvalue vector of p, or None if p is not one."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no weight")
    eigs = []
    for h in osp_part(cfg, "cartan"):
        op = rep_element(cfg, h)
        image = op(p)
        # p is an eigenvector iff image == lam * p for one rational lam.
        mono, coeff = next(iter(p.terms.items()))
        lam = image.terms.get(mono, Fraction(0)) / coeff
        if image != p.scale(lam):
            return None
        eigs.append(lam)
    return Weight(tuple(eigs[: cfg.m1]), tuple(eigs[cfg.m1 :]))


def eta_polynomial(cfg):
    """The raising operator applied to 1 (its multiplication part)."""
    _, eta = delta_eta(cfg)
    return eta(SuperPolynomial.one(cfg.signature))


def aprime_transport(cfg):
    """The map that carries polynomials of an Aprime configuration with
    S1 = T1 = {} to its normal form ``aprime_normalize(cfg)``: for each pair
    with n+i in T the symplectic swap x_i -> x_{n+i}, x_{n+i} -> -x_i."""
    n = cfg.n
    flips = [i for i in range(1, n + 1) if n + i in cfg.T]
    sig = cfg.signature

    def transport(p):
        out = {}
        for mono, c in p.terms.items():
            bos = list(mono.bos)
            sign = 1
            for i in flips:
                a, b = bos[i - 1], bos[n + i - 1]
                bos[i - 1], bos[n + i - 1] = b, a
                if a & 1:
                    sign = -sign
            key = type(mono)(tuple(bos), mono.mask)
            out[key] = out.get(key, Fraction(0)) + sign * c
        return SuperPolynomial(sig, {k: v for k, v in out.items() if v})

    return transport


_FACTOR_RE = re.compile(r"([xt])(\d+)(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_poly(text, sig):
    """Parse the text format of ``superpoly.format_poly`` (and mild variants:
    the ``c *`` part may be omitted when c == 1)."""
    text = text.strip()
    if text in ("", "0"):
        return SuperPolynomial.zero(sig)
    total = SuperPolynomial.zero(sig)
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError("empty term in polynomial text")
        coeff = Fraction(1)
        if "*" in term:
            cpart, _, rest = term.partition("*")
            coeff = Fraction(cpart.strip())
            term = rest.strip()
        elif _COEFF_RE.match(term):
            coeff = Fraction(term)
            term = ""
        poly = SuperPolynomial.from_monomial(sig, mono_one(sig), coeff)
        for tok in term.split():
            m = _FACTOR_RE.match(tok)
            if not m:
                raise ValueError(f"cannot parse factor {tok!r}")
            kind, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if exp < 0:
                raise ValueError(f"negative exponent in {tok!r}")
            base = (
                SuperPolynomial.x(sig, idx)
                if kind == "x"
                else SuperPolynomial.theta(sig, idx)
            )
            poly = poly * base**exp
        total = total + poly
    return total


def reference_weight_codes(idx, base):
    """The tuple body ``MonomialIndex.weight_codes`` replaced, kept as its
    reference: each code unpacked and its weight summed coordinate by
    coordinate off ``_weight_table``, then the distinct weights coded in the
    given base.  Returns the weight codes keyed by monomial code."""
    cfg = idx.cfg
    table, nf = _weight_table(cfg), cfg.signature.num_fermionic
    bits = [tuple(mask >> p & 1 for p in range(nf)) for mask in range(1 << nf)]
    weights = [
        tuple(c + sum(map(mul, bos + bits[mask], row)) for c, row in table)
        for bos, mask in map(idx.layout.unpack, idx.codes)
    ]
    codes = {w: weight_code(Weight(w[: cfg.m1], w[cfg.m1 :]), base) for w in set(weights)}
    return dict(zip(idx.codes, map(codes.__getitem__, weights)))


def reference_direct_sum(cfg, k, max_degree, margin=4, seed=None):
    """The direct-sum check ``slices.verify_direct_sum`` replaced, kept as
    its reference: a basis of H by ``linalg.kernel_basis`` over the lowering
    images of every slice monomial, the ``rank_profile`` of H, then
    ``slices._check_direct_sum`` of H and the raised rows, which counts the
    meet by Grassmann's formula and runs ``intersect`` on a nonzero one.
    Returns the same report."""
    D = max_degree
    rep = VerificationReport("direct-sum", cfg, k, D, margin, seed, "pass")
    idx = MonomialIndex(SliceKey(cfg, k, D))
    program = idx.delta_eta_programs()[0]
    combos = kernel_basis([act_on_terms(program, ((code, 1),)) for code in idx.codes])
    h_vecs = [{idx.codes[i]: c for i, c in combo.items()} for combo in combos]
    h_pivots, _ = rank_profile(h_vecs)
    _check_direct_sum(
        rep, idx, h_vecs, eta_span_of_slice(idx), "kernel meets the raised space",
        lambda d, dim_a, filled: {
            "dimA": dim_a,
            "dimH": bisect_left(h_pivots, idx.level_bound(d)),
            "dimSum": filled,
        },
    )
    if not rep.dims:
        rep.notes.append("slice empty on every verified level")
    return rep
