"""DET-FLOAT: exact-accumulation discipline in the fold modules."""

from __future__ import annotations


class TestPositives:
    def test_raw_sum_in_fold_module(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "def f(xs):\n    return sum(xs)\n"}
        )
        assert [f.rule for f in findings] == ["DET-FLOAT"]
        assert "ExactSum" in findings[0].message

    def test_raw_sum_of_genexp(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "def f(rs):\n"
                                    "    return sum(r.wall for r in rs)\n"}
        )
        assert [f.rule for f in findings] == ["DET-FLOAT"]

    def test_loop_augmented_assign(self, lint_tree):
        findings = lint_tree(
            {"sim/simulator.py": "def f(xs):\n"
                                 "    acc = 0.0\n"
                                 "    for x in xs:\n"
                                 "        acc += x\n"
                                 "    return acc\n"}
        )
        assert [f.rule for f in findings] == ["DET-FLOAT"]
        assert "acc" in findings[0].detail

    def test_statistics_mean_anywhere(self, lint_tree):
        findings = lint_tree(
            {"costmodel/x.py": "import statistics\n\ndef f(xs):\n"
                               "    return statistics.mean(xs)\n"}
        )
        assert [f.rule for f in findings] == ["DET-FLOAT"]
        assert "fmean" in findings[0].message

    def test_from_import_mean(self, lint_tree):
        findings = lint_tree(
            {"sim/x.py": "from statistics import mean\n"}
        )
        assert [f.rule for f in findings] == ["DET-FLOAT"]


class TestNegatives:
    def test_sum_of_lengths_is_integer(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "def f(runs):\n"
                                    "    return sum(len(r.config) for r in runs)\n"}
        )
        assert findings == []

    def test_integer_literal_augassign(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "def f(xs):\n"
                               "    n = 0\n"
                               "    for _ in xs:\n"
                               "        n += 1\n"
                               "    return n\n"}
        )
        assert findings == []

    def test_augassign_outside_loop(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "def f(a, b):\n    a += b\n    return a\n"}
        )
        assert findings == []

    def test_sum_outside_fold_modules(self, lint_tree):
        # costmodel does closed-form arithmetic, not stream folds; the
        # sum() check is scoped to the accumulation-heavy files.
        findings = lint_tree(
            {"costmodel/x.py": "def f(xs):\n    return sum(xs)\n"}
        )
        assert findings == []

    def test_fmean_is_the_sanctioned_mean(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "import statistics\n\ndef f(xs):\n"
                               "    return statistics.fmean(xs)\n"}
        )
        assert findings == []

    def test_nested_def_resets_loop_context(self, lint_tree):
        # The += sits in a function defined inside a loop body, not in
        # the loop itself — each call accumulates locally once.
        findings = lint_tree(
            {"sim/metrics.py": "def f(xs):\n"
                               "    fns = []\n"
                               "    for x in xs:\n"
                               "        def g(a, b):\n"
                               "            a += b\n"
                               "            return a\n"
                               "        fns.append(g)\n"
                               "    return fns\n"}
        )
        assert findings == []


class TestSuppression:
    def test_trailing_disable_on_sum(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "def f(xs):\n"
                               "    return sum(xs)  "
                               "# repro-lint: disable=DET-FLOAT -- ints\n"}
        )
        assert findings == []
