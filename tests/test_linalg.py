"""Fraction-free elimination: canonical bases, kernels, zone restriction."""

import random
from fractions import Fraction
from math import lcm

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ospoly.linalg import (
    Echelon,
    _eliminate,
    combination_basis,
    intersect,
    kernel,
    kernel_basis,
    normalize,
    rank_profile,
    restrict_to_zone,
    row_to_fractions,
    span,
    vec_from_fractions,
)
from oracles import dense_nullspace, filtration, scan_insert


def test_normalize_content_and_sign():
    assert normalize({0: -4, 2: 6}) == {0: -2, 2: 3} or normalize({0: -4, 2: 6}) == {
        0: 2,
        2: -3,
    }
    v = normalize({0: -4, 2: 6})
    assert v[min(v)] > 0


def test_insert_and_membership():
    ech = Echelon()
    assert ech.insert({0: 1, 1: 2}) is not None
    assert ech.insert({0: 2, 1: 4}) is None
    assert ech.insert({1: 1}) is not None
    assert ech.dim == 2
    assert ech.contains({0: 5, 1: -7})
    assert not ech.contains({2: 1})


def _non_pivot_support(rows):
    cols = {}
    for q, row in rows.items():
        for c in row:
            if c != q:
                cols.setdefault(c, set()).add(q)
    return cols


def test_column_index_matches_scan_based_insert():
    """After every insert, cols is the non-pivot support of rows, and rows
    (and the returned row) equal those of the insert that scans every row."""
    rng = random.Random(23)
    for _ in range(12):
        ncols = rng.randint(4, 30)
        vecs = [
            {i: rng.randint(-4, 4) for i in rng.sample(range(ncols), rng.randint(1, 5))}
            for _ in range(rng.randint(3, 40))
        ]
        for _ in range(3):
            rng.shuffle(vecs)
            ech, ref = Echelon(), {}
            for v in vecs:
                assert ech.insert(v) == scan_insert(ref, v)
                assert ech.rows == ref
                assert ech.cols == _non_pivot_support(ech.rows)


sparse_rows = st.dictionaries(st.integers(0, 11), st.integers(-5, 5), min_size=1, max_size=5)


@settings(deadline=None)
@given(
    st.lists(sparse_rows, min_size=1, max_size=8),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.dictionaries(st.integers(0, 11), st.integers(-2, 2), max_size=4),
)
def test_one_pass_reduce_matches_sequential_elimination(vecs, combo, noise):
    """reduce clears every hit pivot in one pass scaled by the lcm of the
    hit pivot entries; after normalizing it equals eliminating the hits one
    at a time.  The reduced vector combines several stored rows, so it hits
    several pivots, plus noise that may hold zero entries."""
    ech = span(vecs)
    vec = dict(noise)
    for c, row in zip(combo, ech.basis()):
        for k, v in row.items():
            vec[k] = vec.get(k, 0) + c * v
    want = {k: v for k, v in vec.items() if v}
    for p in [k for k in want if k in ech.rows]:
        want = _eliminate(want, ech.rows[p], p)
    assert ech.reduce(vec) == normalize(want)
    assert ech.contains(vec) == (not want)


REMAINDER_SPANS = {
    # pivot entries 2, 3 and 1: the lcm path
    "non-unit": [{0: 2, 3: 1, 5: -1}, {1: 3, 3: 2}, {2: 1, 4: 1, 5: 2}],
    # every pivot entry 1: the unscaled path
    "unit": [{0: 1, 3: 2, 5: -1}, {1: 1, 4: -3}, {2: 1, 3: 1, 4: 1}],
}


@pytest.mark.parametrize("kind", sorted(REMAINDER_SPANS))
@pytest.mark.parametrize("zeros", [False, True], ids=["no-zeros", "zeros"])
@pytest.mark.parametrize("extra", [None, 1, 6], ids=["lcm", "scale1", "scale6"])
def test_remainder_insert_and_contains_agree_with_fractions(kind, zeros, extra):
    """remainder(vec, scale) is scale times the exact remainder that
    reduce_fraction gives, with scale the lcm of the hit pivot entries by
    default or a given multiple of every pivot entry, as singular_vectors
    passes it; contains reads zero off it and insert stores its normalized
    form.  Vectors mix stored rows with noise and may hold explicit zeros.
    remainder works in the vector it is handed and returns it; insert,
    contains and reduce leave theirs as it was."""
    ech = span(REMAINDER_SPANS[kind])
    leads = [row[q] for q, row in ech.rows.items()]
    assert (set(leads) == {1}) == (kind == "unit")
    rng = random.Random(5)
    rows = ech.basis()
    for _ in range(60):
        vec = {k: rng.randint(-2, 2) for k in rng.sample(range(7), rng.randint(0, 3))}
        for row in rows:
            c = rng.randint(-2, 2)
            for k, v in row.items():
                vec[k] = vec.get(k, 0) + c * v
        if zeros:
            vec.update({k: 0 for k in rng.sample(range(7), 2) if k not in vec})
        else:
            vec = {k: v for k, v in vec.items() if v}
        exact = ech.reduce_fraction(vec)
        hits = [ech.rows[q][q] for q in vec if vec[q] and q in ech.rows]
        scale = lcm(*hits) if extra is None else extra * lcm(*leads)
        handed = dict(vec)
        got = ech.remainder(handed, None if extra is None else scale)
        assert got is handed and got == {k: v * scale for k, v in exact.items()}
        assert all(type(v) is int for v in got.values()) and 0 not in got.values()
        before = dict(vec)
        assert ech.contains(vec) == (not exact)
        assert ech.reduce(vec) == (vec_from_fractions(exact) if exact else {})
        fresh = span(REMAINDER_SPANS[kind])
        assert fresh.insert(vec) == (vec_from_fractions(exact) if exact else None)
        assert vec == before


def test_reduced_echelon_is_canonical_under_shuffle():
    rng = random.Random(7)
    vecs = []
    for _ in range(8):
        vecs.append({i: rng.randint(-5, 5) for i in range(6) if rng.random() < 0.7})
    base = span(vecs).basis()
    for _ in range(5):
        rng.shuffle(vecs)
        assert span(vecs).basis() == base


def test_kernel_matches_dense_oracle():
    rng = random.Random(13)
    ncols = 7
    images = []
    for _ in range(9):
        images.append({i: rng.randint(-3, 3) for i in range(ncols) if rng.random() < 0.6})
    got = kernel(images)
    dense_rows = [[images[r].get(c, 0) for r in range(len(images))] for c in range(ncols)]
    # oracle: nullspace of the column-matrix (map e_r -> images[r])
    oracle = dense_nullspace(dense_rows, len(images))
    assert len(got) == len(oracle)
    # every oracle vector must lie in the span of the computed kernel
    ech = span(got)
    for vec in oracle:
        intified = vec_from_fractions({i: v for i, v in enumerate(vec) if v != 0})
        assert ech.contains(intified)


# sparse images over coordinates 0..5; explicit zero entries and {} included
sparse_vectors = st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4)


@st.composite
def dependent_lists(draw):
    """Vectors with repeats and dependent members: some are integer
    combinations of two earlier ones, then the list is shuffled."""
    vectors = draw(st.lists(sparse_vectors, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        vectors.append({k: s * a.get(k, 0) + t * b.get(k, 0) for k in set(a) | set(b)})
    return [vectors[i] for i in draw(st.permutations(range(len(vectors))))]


def _canonical(vectors):
    """span(vectors).basis() of rational dense vectors."""
    return span(
        vec_from_fractions({i: c for i, c in enumerate(v) if c}) for v in vectors
    ).basis()


def _dense_kernel(images):
    """dense_nullspace of the column matrix of e_i -> images[i], as dense
    rational combination vectors."""
    ncols = 1 + max((k for img in images for k in img), default=-1)
    dense = [[img.get(c, 0) for img in images] for c in range(ncols)]
    return dense_nullspace(dense, len(images))


@settings(max_examples=300, deadline=None)
@given(dependent_lists())
def test_kernel_is_the_canonical_basis_of_the_dense_nullspace(images):
    assert kernel(images) == _canonical(_dense_kernel(images))


@settings(max_examples=300, deadline=None)
@given(dependent_lists())
def test_forward_kernel_basis_is_independent_and_spans_the_kernel(images):
    """kernel_basis is a basis of the kernel: as many combinations as its
    span has dimensions, each annihilating, with kernel its canonical form."""
    raw = kernel_basis(images)
    assert span(raw).dim == len(raw)
    assert span(raw).basis() == kernel(images)
    for combo in raw:
        acc = {}
        for i, c in combo.items():
            for k, v in images[i].items():
                acc[k] = acc.get(k, 0) + c * v
        assert not any(acc.values())


def test_kernel_edge_cases():
    assert kernel([]) == []
    assert kernel([{}, {0: 0}]) == [{0: 1}, {1: 1}]
    assert kernel([{2: 3}, {2: 3}]) == [{0: 1, 1: -1}]
    assert kernel([{0: 1}, {}, {0: -2}]) == [{0: 2, 2: 1}, {1: 1}]


@settings(max_examples=200, deadline=None)
@given(dependent_lists(), dependent_lists(), st.data())
def test_intersect_is_the_canonical_basis_of_the_meet(u, v, data):
    """span(u) . span(v) is the u-part of the dense nullspace of [u | v];
    v also holds combinations of u, so the meet is often nonzero."""
    for _ in range(data.draw(st.integers(0, 2)) if u else 0):
        a, b = data.draw(st.sampled_from(u)), data.draw(st.sampled_from(u))
        v.append({k: a.get(k, 0) - 2 * b.get(k, 0) for k in set(a) | set(b)})
    nu, width = len(u), 1 + max((k for w in u + v for k in w), default=-1)
    meet = [
        [sum(c * u[i].get(k, 0) for i, c in enumerate(combo[:nu])) for k in range(width)]
        for combo in _dense_kernel(u + v)
    ]
    assert intersect(u, v) == _canonical(meet)


def test_intersect_edge_cases():
    assert intersect([], []) == []
    assert intersect([{0: 1}], []) == []
    assert intersect([{}, {0: 2}, {0: 1}], [{0: -3}]) == [{0: 1}]


def _meet_dim(first, second):
    """Grassmann's formula on the ranks rank_profile reads: first is
    independent, so dim(span first . span second) = len(first) + rank(second)
    - rank(second + first)."""
    rows, (rank_second, rank_sum) = rank_profile(second, first)
    assert list(map(max, rows)) == list(map(max, filtration(first + second)))
    return len(first) + rank_second - rank_sum


@settings(max_examples=300, deadline=None)
@given(dependent_lists(), dependent_lists(), st.data())
def test_rank_count_is_the_dimension_of_the_meet(u, v, data):
    """first is an echelon basis; second has repeats, dependent and zero rows,
    and rows inside span(first).  Either side may be empty."""
    first = span(u).basis()
    second = v + data.draw(st.lists(st.just({}), max_size=2))
    for _ in range(data.draw(st.integers(0, 2)) if first else 0):
        a, b = data.draw(st.sampled_from(first)), data.draw(st.sampled_from(first))
        second.append({k: 3 * a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)})
    second = [second[i] for i in data.draw(st.permutations(range(len(second))))]
    assert _meet_dim(first, second) == len(intersect(first, second))


def test_rank_count_edge_cases():
    assert _meet_dim([], []) == 0
    assert _meet_dim([], [{0: 1}, {}]) == 0
    assert _meet_dim([{0: 1}], []) == 0
    assert _meet_dim([{0: 1}], [{0: -2}, {0: 0}]) == 1
    assert _meet_dim([{0: 1, 1: 1}, {2: 1}], [{0: 1, 1: 1, 2: 2}, {0: 1}]) == 1


def test_rank_profile_after_each_part():
    parts = ([{0: 1}, {0: 2}], [], [{1: 1}, {0: 1, 1: 1}], [{2: 1}])
    rows, ranks = rank_profile(*parts)
    assert ranks == [1, 1, 2, 3]
    assert rows == [{0: 1}, {1: 1}, {2: 1}]
    assert rank_profile() == ([], [])


@settings(max_examples=300, deadline=None)
@given(dependent_lists(), st.data())
def test_rank_profile_is_the_pivot_set_of_the_filtration(vectors, data):
    """Forward elimination keeps the pivots of the reduced filtration, and
    the rank after each part is that of the parts so far; the cuts make
    empty parts too."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(vectors)), max_size=3)))
    bounds = [0, *cuts, len(vectors)]
    parts = [vectors[a:b] for a, b in zip(bounds, bounds[1:])]
    rows, ranks = rank_profile(*parts)
    assert list(map(max, rows)) == list(map(max, filtration(vectors)))
    assert ranks == [len(filtration(vectors[:b])) for b in bounds[1:]]


@settings(max_examples=300, deadline=None)
@given(dependent_lists())
def test_rank_profile_rows_below_every_bound_span_the_filtration_prefix(vectors):
    """For every bound b, the forward rows with pivot < b span what the
    reduced filtration's rows with pivot < b span, whatever the order of the
    vectors; the rows are sorted by pivot, and a row's pivot is its largest
    index."""
    rows, _ = rank_profile(vectors)
    assert [max(row) for row in rows] == sorted({max(row) for row in rows})
    reference = filtration(vectors)
    for b in range(2 + max((k for v in vectors for k in v), default=0)):
        got, want = restrict_to_zone(rows, b), restrict_to_zone(reference, b)
        assert span(got).basis() == span(want).basis(), b


def test_kernel_vectors_annihilate():
    images = [{0: 1}, {0: 2}, {1: 1}, {0: 1, 1: 1}]
    for combo in kernel(images):
        acc = {}
        for i, c in combo.items():
            for k, v in images[i].items():
                acc[k] = acc.get(k, 0) + c * v
        assert all(v == 0 for v in acc.values())


def test_combination_basis_is_the_canonical_basis_of_the_combined_rows():
    rows = [{0: 1, 1: 1}, {2: 1}, {0: 2, 1: 2}]
    # the first combination cancels; index 5 lies past the rows and is skipped
    combos = [{0: 2, 2: -1}, {1: -2, 5: 3}, {0: 3, 1: 6}]
    assert combination_basis(rows, combos) == [{0: 1, 1: 1}, {2: 1}]
    assert combination_basis(rows, []) == []


def test_intersect():
    u = [{0: 1, 1: 1}, {2: 1}]
    v = [{0: 1, 1: 1, 2: 2}, {0: 1}]
    got = intersect(u, v)
    ech = span(got)
    assert ech.dim == 1
    assert ech.contains({0: 1, 1: 1, 2: 2})


def test_restrict_to_zone():
    vecs = [{0: 1, 5: 1}, {1: 1, 5: 2}, {2: 1}]
    inside = restrict_to_zone(rank_profile(vecs)[0], 5)
    ech = span(inside)
    assert ech.dim == 2
    assert ech.contains({2: 1})
    # the combination (v1 - 2*v0) = {1:1, 0:-2} cancels coordinate 5
    assert ech.contains({0: -2, 1: 1})
    assert not ech.contains({0: 1})


def _rank(vecs, cols):
    rows = [[v.get(c, 0) for c in cols] for v in vecs]
    return len(cols) - len(dense_nullspace(rows, len(cols)))


def test_filtration_prefixes_match_dense_rank():
    """dim span . {index < b} = rank(span) - rank of its columns >= b, read
    as the prefix of ``rank_profile``'s rows below b."""
    rng = random.Random(11)
    ncols = 8
    for _ in range(20):
        vecs = [
            {i: rng.randint(-3, 3) for i in range(ncols) if rng.random() < 0.4}
            for _ in range(rng.randint(1, 7))
        ]
        vecs = [v for v in vecs if any(v.values())]
        rows, _ = rank_profile(vecs)
        whole = span(vecs)
        total = _rank(vecs, range(ncols))
        assert len(rows) == total
        for b in range(ncols + 1):
            inside = restrict_to_zone(rows, b)
            assert all(max(r) < b and whole.contains(r) for r in inside)
            assert len(inside) == total - _rank(vecs, range(b, ncols)), (vecs, b)


def test_vec_from_fractions():
    v = vec_from_fractions({0: Fraction(1, 2), 3: Fraction(-2, 3)})
    assert v == {0: 3, 3: -4}
    assert row_to_fractions(v) == {0: Fraction(1), 3: Fraction(-4, 3)}
    assert row_to_fractions({}) == {}
