"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and separate from the library code:
fermionic words are kept as explicit index lists and sorted by bubble sort
(counting swaps for the sign), derivatives walk those lists, and nullspaces
are computed by dense rational Gaussian elimination.  The library must agree
with these on every frozen example.
"""

from fractions import Fraction
from itertools import product


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
    from ospoly.superpoly import SuperMonomial

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
    from ospoly.superpoly import DER_X, MUL_T, MUL_X

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
    from ospoly.superpoly import SuperMonomial, SuperPolynomial

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
    from ospoly.linalg import Echelon
    from ospoly.osp import osp_basis, rep_element
    from ospoly.slices import MonomialIndex

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
    from ospoly.linalg import normalize

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
