"""POOL-SAFE: module-level mutable state vs fork-pool workers."""

from __future__ import annotations


class TestPositives:
    def test_subscript_store_into_module_dict(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE: dict = {}\n\n"
                                    "def put(k, v):\n"
                                    "    CACHE[k] = v\n"}
        )
        assert [f.rule for f in findings] == ["POOL-SAFE"]
        assert "'CACHE'" in findings[0].message

    def test_mutating_method_on_module_list(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "SEEN = []\n\n"
                                    "def record(x):\n"
                                    "    SEEN.append(x)\n"}
        )
        assert [f.rule for f in findings] == ["POOL-SAFE"]
        assert ".append()" in findings[0].message

    def test_clear_on_module_dict(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = dict()\n\n"
                                    "def reset():\n"
                                    "    CACHE.clear()\n"}
        )
        assert [f.rule for f in findings] == ["POOL-SAFE"]

    def test_global_rebind(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "STATE = {}\n\n"
                                    "def swap(new):\n"
                                    "    global STATE\n"
                                    "    STATE = new\n"}
        )
        assert [f.rule for f in findings] == ["POOL-SAFE"]

    def test_subscript_delete(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\n\n"
                                    "def evict(k):\n"
                                    "    del CACHE[k]\n"}
        )
        assert [f.rule for f in findings] == ["POOL-SAFE"]


class TestNegatives:
    def test_reads_are_fine(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\n\n"
                                    "def get(k):\n"
                                    "    return CACHE.get(k)\n"}
        )
        assert findings == []

    def test_local_shadow_is_not_module_state(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\n\n"
                                    "def f(k, v):\n"
                                    "    cache = {}\n"
                                    "    cache[k] = v\n"
                                    "    return cache\n"}
        )
        assert findings == []

    def test_local_rebinding_of_same_name(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\n\n"
                                    "def f(k, v):\n"
                                    "    CACHE = {}\n"
                                    "    CACHE[k] = v\n"
                                    "    return CACHE\n"}
        )
        assert findings == []

    def test_module_level_init_is_fine(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\nCACHE['seed'] = 0\n"}
        )
        assert findings == []

    def test_immutable_module_constant(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "LIMIT = 8\n\n"
                                    "def f():\n"
                                    "    return LIMIT\n"}
        )
        assert findings == []

    def test_outside_worker_modules(self, lint_tree):
        # Only runner.py executes inside pool workers.
        findings = lint_tree(
            {"scenarios/registry.py": "CACHE = {}\n\n"
                                      "def put(k, v):\n"
                                      "    CACHE[k] = v\n"}
        )
        assert findings == []


class TestSuppression:
    def test_trailing_disable(self, lint_tree):
        findings = lint_tree(
            {"scenarios/runner.py": "CACHE = {}\n\n"
                                    "def put(k, v):\n"
                                    "    CACHE[k] = v  "
                                    "# repro-lint: disable=POOL-SAFE -- memo\n"}
        )
        assert findings == []
