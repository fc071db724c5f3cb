"""Exact sparse linear algebra used by the slice analysis.

Vectors are sparse dicts mapping a coordinate key to an integer
coefficient.  A key is any int, and the integer order of keys is the pivot
order: the slice analysis keys by packed monomial code, whose order is the
canonical monomial order.  Rational inputs are cleared to integers first;
elimination itself is fraction-free: one step, ``_eliminate``, replaces v
by a*v - b*row, and each result is normalized (content removed, leading
entry positive), so the entries of every vector kept stay small.  The step
is used three ways.

The canonical echelon.  ``Echelon`` keeps its rows fully reduced against
each other.  With the pivot rule "smallest coordinate index wins" its rows
are the canonical basis of the span, so two runs that see the same vectors
in any order produce identical bases.  It also keeps a column index,
``cols``: for every column c it maps c to the set of pivots whose stored row
has a nonzero non-pivot entry at c (only nonempty sets are kept, and no
stored pivot is a key, since rows are fully reduced).  Inserting a row with
pivot p back-reduces exactly the rows named by ``cols[p]``, so an insert
never scans the stored rows that do not contain p.  ``filtration`` uses the
opposite rule, "largest coordinate index wins", by running the same Echelon
on negated indices.  Its rows sorted by pivot hold a basis of
span . {index < b} as a prefix for every bound b at once
(``restrict_to_zone``).

The forward kernel.  ``kernel_basis`` runs the step forward only, with no
back-reduction, on images extended by one tag coordinate each: the tags of
an image that cancels are a kernel vector.  ``kernel`` is the canonical
echelon basis of the same span.  ``combination_basis`` turns kernel vectors
into the canonical basis of the rows they combine: the direct-sum verifier
reads the meet H . V off the kernel of the lowering operator on V this way,
and ``intersect``, which only the A' two-block split calls, the meet of two
spans off the kernel of (a, b) -> a - b.

The rank profile.  ``rank_profile`` runs the step forward only with the rule
"largest coordinate index wins" and keeps only the pivots.  The pivot set of
any echelon form is {max(v) : v in the span}, so the count of pivots below b
is dim span . {index < b}, as ``filtration`` gives it, without the
back-reduction.  The slice verifiers read each total-degree level of a span
this way, since monomial indices sort by total degree first.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

Vec = dict[int, int]


def vec_from_fractions(items) -> Vec:
    """Clear denominators of {index: Fraction} to a content-free int vector.

    Each vector gets its own scale, so this is only valid where a vector
    matters up to scale (spans, membership).  ``kernel`` combinations need
    images on one common scale: integer rows built from integer atoms.
    """
    items = {k: Fraction(v) for k, v in items.items() if v != 0}
    scale = lcm(*(v.denominator for v in items.values()))
    return normalize({k: int(v * scale) for k, v in items.items()})


# No src caller; kept only while bench/tracer.py LAYERS names it (ROADMAP item 1).
def exact_int_columns(frac_cols) -> list[Vec]:
    """Scale a list of Fraction vectors by one global factor to integers."""
    scale = lcm(*(Fraction(v).denominator for col in frac_cols for v in col.values()))
    return [{k: int(Fraction(v) * scale) for k, v in col.items() if v != 0} for col in frac_cols]


def normalize(vec: Vec) -> Vec:
    """Divide by the content and make the leading (smallest-index) entry > 0."""
    if not vec:
        return vec
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    lead = vec[min(vec)]
    if lead < 0:
        g = -g
    if g != 1:
        vec = {k: v // g for k, v in vec.items()}
    return vec


def _eliminate(vec: Vec, row: Vec, pivot: int) -> Vec:
    """Return a*vec - b*row with the pivot coordinate cancelled (a=row[pivot])."""
    a = row[pivot]
    b = vec[pivot]
    out = {k: a * v for k, v in vec.items()}
    for k, v in row.items():
        s = out.get(k, 0) - b * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Echelon:
    """Row space kept in reduced echelon form over the integers.

    rows maps each pivot to its normalized row.  cols maps a column c to the
    pivots q with c in rows[q] and c != q; it is exactly the non-pivot
    support of rows, with no empty set stored, and insert keeps it so.
    """

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows: dict[int, Vec] = {}
        self.cols: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """The normalized remainder of vec modulo the span (full reduction)."""
        return normalize(self.remainder(vec))

    def remainder(self, vec: Vec, scale: int | None = None) -> Vec:
        """scale times the exact remainder of vec modulo the span.

        scale must be a multiple of the pivot entry of every stored row whose
        pivot vec hits; it defaults to their lcm, 1 when every such entry is
        1.  No stored row holds another's pivot, so one pass clears every hit
        pivot q: subtract vec[q] * (scale / row_q[q]) * row_q from
        scale * vec.  For a fixed scale the result is linear in vec.  Zero
        entries of vec are allowed and dropped.
        """
        rows = self.rows
        if 0 in vec.values():
            vec = {j: c for j, c in vec.items() if c}
        hits = [j for j in vec if j in rows]
        if scale is None:
            scale = 1
            for q in hits:
                lead = rows[q][q]
                if lead != 1:
                    scale = lcm(scale, lead)
        out = dict(vec) if scale == 1 else {j: c * scale for j, c in vec.items()}
        for q in hits:
            row = rows[q]
            f = vec[q] * (scale // row[q])
            for j, c in row.items():
                s = out.get(j, 0) - f * c
                if s:
                    out[j] = s
                else:
                    del out[j]
        return out

    def contains(self, vec: Vec) -> bool:
        return not self.remainder(vec)

    # No src caller; kept only while bench/tracer.py LAYERS names it (ROADMAP item 1).
    def reduce_fraction(self, vec) -> dict[int, Fraction]:
        """Exact representative of vec modulo the span (no rescaling)."""
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while True:
            hits = [k for k in vec if k in self.rows]
            if not hits:
                return vec
            p = min(hits)
            row = self.rows[p]
            c = vec[p] / row[p]
            for k, rv in row.items():
                s = vec.get(k, Fraction(0)) - c * rv
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)

    def insert(self, vec: Vec) -> Vec | None:
        """Add vec to the span; return the new normalized row, or None.

        Rows are kept fully reduced against each other, so the stored basis
        is the canonical reduced echelon basis of the span.  vec is reduced
        first, so no entry of it besides its pivot p is a stored pivot, and
        only the rows in cols[p] hold p.  Such a row q keeps its pivot: q is
        not in vec and q < p, so eliminating p never empties it.
        """
        vec = self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        rows, cols = self.rows, self.cols
        for q in cols.pop(p, ()):
            row = rows[q]
            reduced = normalize(_eliminate(row, vec, p))
            rows[q] = reduced
            for c in row:
                if c not in reduced and c != p:
                    owners = cols[c]
                    owners.discard(q)
                    if not owners:
                        del cols[c]
            for c in reduced:
                if c not in row:
                    cols.setdefault(c, set()).add(q)
        rows[p] = vec
        for c in vec:
            if c != p:
                cols.setdefault(c, set()).add(p)
        return vec

    def basis(self) -> list[Vec]:
        return [self.rows[p] for p in sorted(self.rows)]


def span(vectors) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def kernel_basis(images: list[Vec]) -> list[Vec]:
    """A basis of the nullspace of the map e_i -> images[i], as combination
    vectors, by forward elimination alone.

    Image i gets the tag coordinate off + i, past every image coordinate, and
    is eliminated forward against the rows stored so far.  Its pivot lands on
    a tag exactly when its image part cancels; the combination then holds
    tag i and no later tag, so the combinations are independent.  Each step
    divides out the content, so stored rows and combinations are content-free.
    """
    off = 1 + max(map(max, filter(None, images)), default=-1)
    rows: dict[int, Vec] = {}
    combos = []
    for i, img in enumerate(images):
        vec = {k: v for k, v in img.items() if v}
        vec[off + i] = 1
        while (p := min(vec)) in rows:
            vec = normalize(_eliminate(vec, rows[p], p))
        if p < off:
            rows[p] = vec
        else:
            combos.append({k - off: v for k, v in vec.items()})
    return combos


def kernel(images: list[Vec]) -> list[Vec]:
    """Nullspace of the map e_i -> images[i] as its canonical echelon basis."""
    return span(kernel_basis(images)).basis()


def combination_basis(rows: list[Vec], combos) -> list[Vec]:
    """Canonical basis of the span of sum(c * rows[i]) over each combination
    {i: c} of combos; an index past rows is skipped."""
    n = len(rows)
    out = []
    for combo in combos:
        vec: Vec = {}
        for i, c in combo.items():
            if i >= n:
                continue
            for k, v in rows[i].items():
                s = vec.get(k, 0) + c * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        if vec:
            out.append(normalize(vec))
    return span(out).basis()


def intersect(u_vectors: list[Vec], v_vectors: list[Vec]) -> list[Vec]:
    """Canonical basis of span(u) . span(v), from the u-parts of
    ``kernel_basis`` of (a, b) -> a - b; any kernel basis gives the meet."""
    return combination_basis(u_vectors, kernel_basis(u_vectors + v_vectors))


def filtration(vectors) -> list[Vec]:
    """Echelon basis of span(vectors) with pivots on the largest index.

    Rows come sorted by pivot (their largest index), so for every bound b the
    rows with pivot < b are a basis of span . {v : support(v) < b}.  They are
    the canonical reduced rows, whatever the order of vectors.
    """
    ech = span({-k: c for k, c in v.items()} for v in vectors)
    return [{-k: c for k, c in ech.rows[p].items()} for p in sorted(ech.rows, reverse=True)]


def rank_profile(*parts) -> tuple[list[int], list[int]]:
    """The pivots of the parts joined, ascending, and the rank after each part.

    Forward elimination with the rule "largest index wins" and no
    back-reduction: the pivots are {max(v) : v in the span}, those of
    ``filtration``'s rows, so the pivots below a bound b count
    span . {index < b}.  Neither depends on the order of the vectors.
    """
    rows: dict[int, Vec] = {}
    ranks = []
    for part in parts:
        for v in part:
            vec = {k: c for k, c in v.items() if c}
            while vec and (p := max(vec)) in rows:
                vec = normalize(_eliminate(vec, rows[p], p))
            if vec:
                rows[p] = vec
        ranks.append(len(rows))
    return sorted(rows), ranks


def restrict_to_zone(rows: list[Vec], bound: int) -> list[Vec]:
    """Basis of span . {index < bound}, read off filtration rows as a prefix."""
    return rows[: bisect_left(rows, bound, key=max)]


def row_to_fractions(vec: Vec) -> dict[int, Fraction]:
    """Monic rational form of an integer row (leading coefficient 1)."""
    if not vec:
        return {}
    lead = vec[min(vec)]
    return {k: Fraction(v, lead) for k, v in vec.items()}
