"""src/ospoly holds only what the package reaches: every module-level
function and class is named in src/ospoly outside its own definition and
outside __init__.py; code only tests call belongs in tests/.  Exempt are the
verify_* entry points, the config_* constructors and the names that
bench/tracer.py's LAYERS wraps (read from that file, not run)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layer_roots() -> set[str]:
    for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYERS"]:
            return {path.split(".")[0] for _, _, path in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py assigns no LAYERS")


def _unreached(src: Path) -> list[str]:
    """module.name of each module-level def or class that nothing else names."""
    defined, named = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(stmt, "name", None)  # a def or class; its own body does not count
            if owner is not None:
                defined.append((path.stem, owner))
            named |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {owner}
    exempt = _layer_roots()
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in named | exempt and not name.startswith(("verify_", "config_"))
    ]


def test_every_src_function_and_class_is_reached_from_src():
    assert not _unreached(ROOT / "src" / "ospoly")


def test_the_guard_flags_a_name_only_its_own_body_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else helper()\n\n"
        "def helper():\n    return 0\n\n"
        "def verify_claim():\n    return recursive(2)\n\n"
        "def config_x():\n    return None\n\n"
        "def harmonic_space():\n    return None\n"
    )
    assert _unreached(tmp_path) == ["mod.exported"]
