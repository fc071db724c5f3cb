"""Byte-for-byte pins of the osp spanning sets and of the realized action.

``golden/osp_basis.json`` holds ``str`` of every spanning-set element, per
part, for both parities of m, m1 in 0..3 and n in 0..2 (the spanning sets do
not depend on the swap data): ``osp_basis``' "all" and "positive", and the
test-only parts that ``oracles.osp_part`` filters from them.
``golden/osp_action_sha256.json`` holds, per configuration, the sha256 of
the action table: one line
``i j monomial -> image`` for every matrix unit E(i,j) and every monomial of
total degree <= 2, followed by the lines ``delta monomial -> image`` and
``eta monomial -> image`` where the lowering/raising pair is defined.  List
order is part of the pin: the windowed closure and the first-failure notes
of the verifiers depend on the order of "roots", which is "all"'s.
``singular_vectors`` does not depend on the order of "positive".

Regenerate only when a change of the spanning sets or of the action is
intended:

    PYTHONPATH=src python tests/test_osp_golden.py
"""

import hashlib
import json
from itertools import product
from pathlib import Path

from ospoly.osp import config_a, config_aprime, delta_eta, osp_basis, rep_matrix_unit
from ospoly.superpoly import SuperPolynomial
from oracles import low_degree_monomials, osp_part

GOLDEN = Path(__file__).resolve().parent / "golden"
BASIS_FILE = GOLDEN / "osp_basis.json"
ACTION_FILE = GOLDEN / "osp_action_sha256.json"
OSP_PARTS = ("all", "positive")
TEST_PARTS = ("even", "odd", "cartan", "positive_even")
PARITIES = ("even", "odd")
M1_RANGE = range(0, 4)
N_RANGE = range(0, 3)


def basis_table() -> dict:
    table = {}
    for parity, m1, n in product(PARITIES, M1_RANGE, N_RANGE):
        cfg = config_a(m1, n, 0, parity)
        parts = {part: osp_basis(cfg, part) for part in OSP_PARTS}
        parts |= {part: osp_part(cfg, part) for part in TEST_PARTS}
        table[f"{parity} m1={m1} n={n}"] = {
            part: [str(e) for e in elements] for part, elements in parts.items()
        }
    return table


def action_configs():
    for parity, m1, n in product(PARITIES, M1_RANGE, N_RANGE):
        for r in range(m1 + 1):
            yield config_a(m1, n, r, parity)
        swap_sets = {frozenset(), frozenset(range(1, n + 1)),
                     frozenset(range(n + 1, 2 * n + 1))}
        if n:
            swap_sets.add(frozenset({1}))
        for T in sorted(swap_sets, key=sorted):
            yield config_aprime(m1, n, T, parity)


def action_digest(cfg) -> str:
    sig = cfg.signature
    polys = [SuperPolynomial.from_monomial(sig, m) for m in low_degree_monomials(sig)]
    size = cfg.gl_size
    lines = []
    for i, j in product(range(1, size + 1), repeat=2):
        op = rep_matrix_unit(cfg, i, j)
        for p in polys:
            lines.append(f"{i} {j} {p} -> {op(p)}\n")
    try:
        pair = delta_eta(cfg)
    except ValueError:  # odd or non-normal-form Aprime
        pair = ()
    for name, op in zip(("delta", "eta"), pair):
        for p in polys:
            lines.append(f"{name} {p} -> {op(p)}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def action_table() -> dict:
    return {cfg.describe(): action_digest(cfg) for cfg in action_configs()}


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def test_osp_basis_matches_golden():
    assert _dump(basis_table()) == BASIS_FILE.read_text()


def test_action_table_matches_golden():
    assert _dump(action_table()) == ACTION_FILE.read_text()


if __name__ == "__main__":
    BASIS_FILE.write_text(_dump(basis_table()))
    ACTION_FILE.write_text(_dump(action_table()))
