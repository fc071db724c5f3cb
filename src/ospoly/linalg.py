"""Exact sparse linear algebra used by the slice analysis.

Vectors are sparse dicts mapping a coordinate index (position of a monomial
in some fixed ordered list) to an integer coefficient.  Rational inputs are
cleared to integers first; elimination itself is fraction-free: a pivot step
replaces v by a*v - b*row and every stored row is normalized by removing the
integer content and making the pivot entry positive.  With the pivot rule
"smallest coordinate index wins" the resulting reduced echelon rows are a
canonical basis of the span, so two runs that see the same vectors in any
order produce identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = dict[int, int]


def vec_from_fractions(items) -> Vec:
    """Clear denominators of {index: Fraction} to a content-free int vector.

    Only valid where a vector matters up to scale (spans, membership); for
    kernel computations use exact_int_columns, which rescales all columns by
    one common factor so combination coordinates stay meaningful.
    """
    items = {k: Fraction(v) for k, v in items.items() if v != 0}
    if not items:
        return {}
    lcm = 1
    for v in items.values():
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    out = {k: int(v * lcm) for k, v in items.items()}
    return normalize(out)


def exact_int_columns(frac_cols) -> list[Vec]:
    """Scale a list of Fraction vectors by one global factor to integers."""
    lcm = 1
    for col in frac_cols:
        for v in col.values():
            d = Fraction(v).denominator
            lcm = lcm // gcd(lcm, d) * d
    return [
        {k: int(Fraction(v) * lcm) for k, v in col.items() if v != 0}
        for col in frac_cols
    ]


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
    out = {}
    for k, v in vec.items():
        out[k] = a * v
    for k, v in row.items():
        s = out.get(k, 0) - b * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Echelon:
    """Row space kept in reduced echelon form over the integers."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, Vec] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Eliminate every stored pivot from vec (full reduction)."""
        vec = {k: v for k, v in vec.items() if v}
        while True:
            hits = [k for k in vec if k in self.rows]
            if not hits:
                return normalize(vec)
            vec = _eliminate(vec, self.rows[min(hits)], min(hits))

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

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
        is the canonical reduced echelon basis of the span.
        """
        vec = self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        for q, row in list(self.rows.items()):
            if p in row:
                reduced = normalize(_eliminate(row, vec, p))
                if reduced:
                    self.rows[q] = reduced
                else:
                    del self.rows[q]
        self.rows[p] = vec
        return vec

    def basis(self) -> list[Vec]:
        return [self.rows[p] for p in sorted(self.rows)]


class TrackedEchelon:
    """Echelon that tracks how each row was combined from the inputs.

    insert(vec, tag) reduces vec against the stored rows, mirroring every
    elimination on the combination vector (coordinates = input tags).  When
    vec reduces to zero the returned combination is a kernel element of the
    map input -> vector.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, tuple[Vec, Vec]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: Vec, tag: int) -> Vec | None:
        vec = {k: v for k, v in vec.items() if v}
        combo: Vec = {tag: 1}
        while vec:
            p = min(vec)
            entry = self.rows.get(p)
            if entry is None:
                self.rows[p] = (vec, combo)
                return None
            row, row_combo = entry
            a = row[p]
            b = vec[p]
            nxt = {}
            for k, v in vec.items():
                nxt[k] = a * v
            for k, v in row.items():
                s = nxt.get(k, 0) - b * v
                if s:
                    nxt[k] = s
                else:
                    nxt.pop(k, None)
            vec = nxt
            ncombo = {}
            for k, v in combo.items():
                ncombo[k] = a * v
            for k, v in row_combo.items():
                s = ncombo.get(k, 0) - b * v
                if s:
                    ncombo[k] = s
                else:
                    ncombo.pop(k, None)
            combo = ncombo
        return normalize(combo)


def span(vectors) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def kernel(images: list[Vec]) -> list[Vec]:
    """Nullspace of the map e_i -> images[i], as combination vectors.

    The returned combinations are reduced to a canonical echelon basis over
    the input coordinates.
    """
    tracked = TrackedEchelon()
    combos = []
    for i, img in enumerate(images):
        combo = tracked.insert(img, i)
        if combo is not None:
            combos.append(combo)
    return span(combos).basis()


def intersect(u_vectors: list[Vec], v_vectors: list[Vec]) -> list[Vec]:
    """Basis of span(u) . span(v) via kernel of (a, b) -> a - b."""
    images = [dict(v) for v in u_vectors] + [dict(v) for v in v_vectors]
    nu = len(u_vectors)
    out = []
    for combo in kernel(images):
        vec: Vec = {}
        for i, c in combo.items():
            if i >= nu:
                continue
            for k, v in u_vectors[i].items():
                s = vec.get(k, 0) + c * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        if vec:
            out.append(normalize(vec))
    return span(out).basis()


def restrict_to_zone(vectors, in_zone) -> list[Vec]:
    """Basis of span(vectors) . {v : support(v) is inside the zone}.

    Eliminates the out-of-zone coordinates first: indices are remapped so
    that out-of-zone coordinates come before in-zone ones, the span is
    echelonized there, and the rows whose pivots fall inside the zone (which
    then have no out-of-zone support) are mapped back.
    """
    keys = sorted({k for v in vectors for k in v})
    out_keys = [k for k in keys if not in_zone(k)]
    in_keys = [k for k in keys if in_zone(k)]
    remap = {k: i for i, k in enumerate(out_keys)}
    offset = len(out_keys)
    remap.update({k: offset + i for i, k in enumerate(in_keys)})
    back = {v: k for k, v in remap.items()}
    ech = span([{remap[k]: c for k, c in v.items()} for v in vectors])
    result = []
    for p in sorted(ech.rows):
        if p >= offset:
            result.append({back[k]: c for k, c in ech.rows[p].items()})
    return result


def row_to_fractions(vec: Vec) -> dict[int, Fraction]:
    """Monic rational form of an integer row (leading coefficient 1)."""
    if not vec:
        return {}
    lead = vec[min(vec)]
    return {k: Fraction(v, lead) for k, v in vec.items()}
