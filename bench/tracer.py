"""Span tracer that wraps ospoly's layer functions from outside the package.

``Tracer.wrap`` replaces one attribute (a module function or a method on a
class) with a wrapper that records a span per call: name, start, end, parent
span and check id.  Spans live in flat arrays while the run lasts and are
written out, and summarized, after it.  ``install_layers`` wraps every
binding of the layer functions listed in ``LAYERS`` across the loaded
``ospoly`` modules, so a name imported with ``from .osp import ...`` is
counted as well as the original.  ``restore`` puts every original back.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (layer, module, attribute path); a dotted path names a method of a class.
LAYERS = [
    ("superpoly", "superpoly", "apply_operator"),
    ("superpoly", "superpoly", "mono_mul"),
    ("osp", "osp", "rep_element"),
    ("osp", "osp", "osp_basis"),
    ("osp", "osp", "delta_eta"),
    ("osp", "osp", "monomial_weight"),
    ("linalg", "linalg", "Echelon.insert"),
    ("linalg", "linalg", "Echelon.reduce"),
    ("linalg", "linalg", "Echelon.reduce_fraction"),
    ("linalg", "linalg", "kernel"),
    ("linalg", "linalg", "intersect"),
    ("linalg", "linalg", "restrict_to_zone"),
    ("linalg", "linalg", "exact_int_columns"),
    ("linalg", "linalg", "vec_from_fractions"),
    ("slices", "slices", "slice_monomials"),
    ("slices", "slices", "MonomialIndex.__init__"),
    ("slices", "slices", "MonomialIndex.vec"),
    ("slices", "slices", "MonomialIndex.poly"),
    ("slices", "slices", "harmonic_space"),
    ("slices", "slices", "singular_vectors"),
    ("slices", "slices", "generate_submodule"),
    ("slices", "slices", "eta_image"),
    ("slices", "slices", "eta_span_of_slice"),
    ("verify", "slices", "verify_direct_sum"),
    ("verify", "slices", "verify_composition_series"),
    ("verify", "slices", "verify_aprime_structure"),
]

MODULE_TOTALS = ("superpoly", "osp", "linalg", "slices")
# The insert whose "row added" outcome gives the accept ratio.
ACCEPT_SPAN = "linalg.Echelon.insert"


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, _, path in LAYERS:
        base = span_name(layer, path)
        names += [f"{base}.calls", f"{base}.self_s", f"{base}.incl_s"]
    names += [f"{layer}.self_s" for layer in MODULE_TOTALS]
    names += [f"{ACCEPT_SPAN}.accept_ratio", "trace_overhead"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("l")
        self.check = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1  # id of the open span, -1 outside any span
        self.check_id = -1  # index of the check being run
        self.accepted: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count_accept: bool = False):
        """Replace owner.attr by a span-recording wrapper of the same callable."""
        original = owner.__dict__[attr]
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, checks = self.name_id, self.parent, self.check
        starts, ends = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            sid = len(starts)
            name_ids.append(nid)
            parents.append(parent)
            checks.append(tracer.check_id)
            ends.append(0.0)
            tracer.current = sid
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                tracer.current = parent
            if count_accept and result is not None:
                tracer.accepted[name] = tracer.accepted.get(name, 0) + 1
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def restore(self) -> None:
        """Put back every wrapped attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time and inclusive time in seconds.

        Self time is a span's duration minus the time its child spans cover
        (children of one span never overlap, as the run is single-threaded).
        Inclusive time is the union of the name's spans, so a span nested in
        another of the same name is not counted twice.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        covered_until = {name: float("-inf") for name in self.names}
        for i in range(n):  # ids follow start order
            name = self.names[self.name_id[i]]
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += dur[i] - child[i]
            if self.start[i] >= covered_until[name]:
                agg["incl_s"] += dur[i]
                covered_until[name] = self.end[i]
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id parent check name start end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tcheck\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.check[i]}\t"
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def install_layers(tracer: Tracer, package: str = "ospoly") -> None:
    """Wrap every binding of every LAYERS function in the loaded package."""
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]
    for layer, module, path in LAYERS:
        name = span_name(layer, path)
        owner = sys.modules[f"{package}.{module}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            tracer.wrap(owner, attr, name, count_accept=name == ACCEPT_SPAN)
            continue
        original = owner.__dict__[attr]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    tracer.wrap(mod, key, name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace_overhead."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    metrics: dict[str, float] = {}
    totals = dict.fromkeys(MODULE_TOTALS, 0.0)
    for layer, _, path in LAYERS:
        base = span_name(layer, path)
        agg = summary.get(base, empty)
        metrics[f"{base}.calls"] = agg["calls"]
        metrics[f"{base}.self_s"] = agg["self_s"]
        metrics[f"{base}.incl_s"] = agg["incl_s"]
        if layer in totals:
            totals[layer] += agg["self_s"]
    for layer, total in totals.items():
        metrics[f"{layer}.self_s"] = total
    inserts = summary.get(ACCEPT_SPAN, empty)["calls"]
    metrics[f"{ACCEPT_SPAN}.accept_ratio"] = (
        tracer.accepted.get(ACCEPT_SPAN, 0) / inserts if inserts else 0.0
    )
    return metrics
