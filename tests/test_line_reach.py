"""The statement counter of the ``line_reach`` plugin on a toy file."""

import importlib.util

from line_reach import LineRecorder, statements, unreached

TOY = '''"""Toy module."""


def pick(x):
    """Docstring."""
    if x > 0:
        return (
            x
        )
    raise ValueError(
        "negative"
    )


class Box:
    size = 1
'''


def test_statements_skip_docstrings_and_def_lines():
    """A compound statement owns its header, a simple one all its lines;
    the docstrings and the def and class lines are no statements."""
    assert statements(TOY) == [range(6, 7), range(7, 10), range(10, 13), range(16, 17)]
    assert unreached(TOY, {6, 8, 16}) == [10]
    assert unreached(TOY, set()) == [6, 7, 10, 16]


def test_the_recorder_sees_which_branch_ran(tmp_path):
    """Line events of a real run: importing the toy and calling pick(1)
    leaves only the raise unreached."""
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    recorder = LineRecorder(tmp_path)
    recorder.start()
    try:
        spec.loader.exec_module(module)
        module.pick(1)
    finally:
        recorder.stop()
    assert recorder.report() == ["toy.py:10  raise ValueError("]
