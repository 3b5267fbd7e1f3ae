"""Self-test of the mutation runner on a toy tree.

The toy module's ``smaller`` has three mutants: ``a < b`` made
``a > b`` and the ``return`` made ``pass`` change its result, and the
toy test kills them; ``a < b`` made ``a <= b`` differs only when
``a == b``, where both branches return the same value, so it is
equivalent and survives.  ``count_down`` loops forever once its
decrement is deleted, which the per-mutant timeout must catch.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("mutants_run", HERE / "run.py")
runner = importlib.util.module_from_spec(_spec)
sys.modules["mutants_run"] = runner
_spec.loader.exec_module(runner)

TOY = textwrap.dedent('''
    """A toy module."""


    def smaller(a, b):
        """The smaller of two numbers."""
        return a if a < b else b


    def count_down(n, step):
        while n:
            n -= step
        return n
''')

TOY_TEST = textwrap.dedent('''
    from toy import count_down, smaller


    def test_smaller():
        assert smaller(1, 2) == 1
        assert smaller(2, 1) == 1
        assert smaller(3, 3) == 3


    def test_count_down():
        assert count_down(3, 1) == 0
''')


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TEST)
    return tmp_path


def test_names_are_stable_across_modules_and_classes():
    source = "def f(x):\n    return min(x, 1) < 2 and x\n"
    moved = "class C:\n    def f(x):\n        return min(x, 1) < 2 and x\n"
    names = [m.name for m in runner.collect(source, "a.py")]
    assert names == [m.name for m in runner.collect(moved, "b.py")]
    assert names == [
        "f:pass:0", "f:boolop:0", "f:compare:0", "f:compare:1",
        "f:minmax:0", "f:const:0", "f:const:1", "f:const:2", "f:const:3",
    ]


def test_sample_draws_the_same_names_from_a_larger_tree():
    small = runner.collect("def f(x):\n    return x < 1 or x > 9\n", "a.py")
    large = runner.collect(
        "def f(x):\n    return x < 1 or x > 9\n\n"
        "def g(y):\n    return y == 0 and y != 2\n",
        "a.py",
    )
    chosen = {m.name for m in runner.select(large, sample=4, seed=7)}
    from_small = {m.name for m in runner.select(small, sample=4, seed=7)}
    assert {name for name in chosen if name.startswith("f:")} <= from_small


def test_mutant_applies_to_its_span_only():
    source = "def f(a, b):\n    return a if a < b else b  # é\n"
    swap = [m for m in runner.collect(source, "a.py") if m.name == "f:compare:1"]
    assert swap[0].apply(source) == (
        "def f(a, b):\n    return a if (a > b) else b  # é\n"
    )


def test_runner_kills_survives_and_times_out(tree):
    report = runner.run(
        tree, ["src/toy.py"], ["tests/test_toy.py"],
        functions=["smaller"], hypothesis_seed=1,
    )
    assert set(report["killed"]) == {"smaller:compare:1", "smaller:pass:0"}
    [survivor] = report["survived"]
    assert survivor["name"] == "smaller:compare:0"
    assert "+    return a if (a <= b) else b" in survivor["diff"]
    assert report["kill_rate"] == pytest.approx(2 / 3, abs=1e-4)

    looping = runner.run(
        tree, ["src/toy.py"], ["tests/test_toy.py"],
        functions=["count_down"], timeout=3,
    )
    assert looping["timed_out"] == ["count_down:pass:1"]
    assert set(looping["killed"]) == {"count_down:pass:0", "count_down:pass:2"}
    text = runner.render(report)
    assert "kill rate: 66.7% (2 / 3)" in text
    assert "survived: smaller:compare:0" in text


def test_a_mutant_that_breaks_the_test_set_up_is_killed(tree):
    """A mutant that makes a conftest fail to import stops pytest before
    any test runs, with exit status 4.  On a mutant that status is a
    detection; on the unmutated tree it still means a misconfigured run."""
    (tree / "tests" / "conftest.py").write_text(
        "from toy import smaller\n\nassert smaller(1, 2) == 1\n"
    )
    report = runner.run(
        tree, ["src/toy.py"], ["tests/test_toy.py"],
        functions=["smaller"], hypothesis_seed=1,
    )
    assert set(report["killed"]) == {"smaller:compare:1", "smaller:pass:0"}
    with pytest.raises(RuntimeError, match="check --tests"):
        runner.run(tree, ["src/toy.py"], ["tests/missing.py"])
