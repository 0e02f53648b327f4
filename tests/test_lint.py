"""The qrcclint gate: fixture checks per rule plus the repo-wide clean run.

Every rule gets at least one positive fixture (a violation it must flag), one
negative fixture (idiomatic code it must not flag) and one sanctioned fixture
(the same violation carrying a justified ``# qrcclint: disable=...`` comment).
Fixtures are linted through :func:`tools.qrcclint.lint_source` with synthetic
repo-relative paths, so each rule's path scoping is exercised too.  The final
tests run the real CLI over the working tree — the same invocation CI uses —
and prove the gate actually trips by seeding a synthetic violation into a
kernel-module path.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.qrcclint import BAD_SANCTION, RULES, lint_source  # noqa: E402

#: A path inside src/ that is NOT a kernel module (unstable-reduction stays off).
SRC_PATH = "src/repro/example.py"
#: A kernel-module path (unstable-reduction applies).
KERNEL_PATH = "src/repro/simulator/batched.py"
#: A test path (float-equality stays off).
TEST_PATH = "tests/test_example.py"


def lint(source: str, path: str = SRC_PATH, rule: str = None):
    """Lint dedented ``source`` at ``path``; returns the matching findings."""
    findings = lint_source(textwrap.dedent(source), path, RULES)
    if rule is None:
        return findings
    return [finding for finding in findings if finding.rule == rule]


def rules_by_name():
    return {rule.name: rule for rule in RULES}


# --------------------------------------------------------------------- registry
def test_registry_has_all_six_rules():
    names = {rule.name for rule in RULES}
    assert names == {
        "unseeded-randomness",
        "unstable-reduction",
        "wall-clock-in-hot-path",
        "mutable-default-arg",
        "float-equality",
        "bare-cache-key",
    }


def test_every_rule_has_a_description():
    for rule in RULES:
        assert rule.description, rule.name


# ------------------------------------------------------------ unseeded-randomness
def test_unseeded_randomness_positive():
    source = """
        import numpy as np

        def draw():
            rng = np.random.default_rng()
            return rng.random()
    """
    assert lint(source, rule="unseeded-randomness")


def test_unseeded_randomness_flags_legacy_global_api():
    source = """
        import numpy as np

        def draw():
            return np.random.random(4)
    """
    assert lint(source, rule="unseeded-randomness")


def test_unseeded_randomness_negative_seeded():
    source = """
        import numpy as np

        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.random()
    """
    assert not lint(source, rule="unseeded-randomness")


def test_unseeded_randomness_out_of_scope_in_tests():
    source = """
        import numpy as np

        def helper():
            return np.random.default_rng()
    """
    assert not lint(source, path=TEST_PATH, rule="unseeded-randomness")


def test_unseeded_randomness_sanctioned():
    source = """
        import numpy as np

        def draw():
            rng = np.random.default_rng()  # qrcclint: disable=unseeded-randomness -- fixture: deliberate entropy draw
            return rng.random()
    """
    assert not lint(source, rule="unseeded-randomness")
    assert not lint(source, rule=BAD_SANCTION)


# ------------------------------------------------------------- unstable-reduction
def test_unstable_reduction_positive_in_kernel_module():
    source = """
        import numpy as np

        def marginal(table):
            return table.sum(axis=0)
    """
    assert lint(source, path=KERNEL_PATH, rule="unstable-reduction")


def test_unstable_reduction_flags_np_add_reduce():
    source = """
        import numpy as np

        def total(values):
            return np.add.reduce(values)
    """
    assert lint(source, path=KERNEL_PATH, rule="unstable-reduction")


def test_unstable_reduction_flags_np_add_reduceat():
    source = """
        import numpy as np

        def segment_totals(values, starts):
            return np.add.reduceat(values, starts)
    """
    findings = lint(source, path=KERNEL_PATH, rule="unstable-reduction")
    assert findings
    assert "reduceat" in findings[0].message


def test_unstable_reduction_reduceat_sanctioned():
    source = """
        import numpy as np

        def segment_totals(values, starts):
            return np.add.reduceat(values, starts)  # qrcclint: disable=unstable-reduction -- fixture: order pinned by a test
    """
    assert not lint(source, path=KERNEL_PATH, rule="unstable-reduction")
    assert not lint(source, path=KERNEL_PATH, rule=BAD_SANCTION)


def test_unstable_reduction_reduceat_outside_kernel_modules():
    source = """
        import numpy as np

        def segment_totals(values, starts):
            return np.add.reduceat(values, starts)
    """
    assert not lint(source, path=SRC_PATH, rule="unstable-reduction")


def test_unstable_reduction_negative_full_sum():
    source = """
        import numpy as np

        def total(values):
            return values.sum()
    """
    assert not lint(source, path=KERNEL_PATH, rule="unstable-reduction")


def test_unstable_reduction_only_applies_to_kernel_modules():
    source = """
        import numpy as np

        def marginal(table):
            return table.sum(axis=0)
    """
    assert not lint(source, path=SRC_PATH, rule="unstable-reduction")


def test_unstable_reduction_sanctioned():
    source = """
        import numpy as np

        def marginal(table):
            return table.sum(axis=0)  # qrcclint: disable=unstable-reduction -- fixture: fixed shape pins the order
    """
    assert not lint(source, path=KERNEL_PATH, rule="unstable-reduction")
    assert not lint(source, path=KERNEL_PATH, rule=BAD_SANCTION)


# ---------------------------------------------------------- wall-clock-in-hot-path
def test_wall_clock_positive():
    source = """
        import time

        def run():
            start = time.perf_counter()
            return time.perf_counter() - start
    """
    assert lint(source, rule="wall-clock-in-hot-path")


def test_wall_clock_flags_datetime_now():
    source = """
        import datetime

        def stamp():
            return datetime.datetime.now()
    """
    assert lint(source, rule="wall-clock-in-hot-path")


def test_wall_clock_flags_clock_imports():
    source = """
        from time import perf_counter
    """
    assert lint(source, rule="wall-clock-in-hot-path")


def test_wall_clock_negative_blessed_helper():
    source = """
        from repro.utils.timing import perf_clock

        def run():
            start = perf_clock()
            return perf_clock() - start
    """
    assert not lint(source, rule="wall-clock-in-hot-path")


def test_wall_clock_allowed_in_timing_module():
    source = """
        import time

        def perf_clock():
            return time.perf_counter()
    """
    assert not lint(source, path="src/repro/utils/timing.py", rule="wall-clock-in-hot-path")


def test_wall_clock_sanctioned():
    source = """
        import time

        def run():
            return time.perf_counter()  # qrcclint: disable=wall-clock-in-hot-path -- fixture: top-level report timer
    """
    assert not lint(source, rule="wall-clock-in-hot-path")
    assert not lint(source, rule=BAD_SANCTION)


# ------------------------------------------------------------- mutable-default-arg
def test_mutable_default_positive():
    source = """
        def collect(items=[]):
            return items
    """
    assert lint(source, rule="mutable-default-arg")


def test_mutable_default_flags_module_level_dict():
    source = """
        REGISTRY = {}
    """
    assert lint(source, rule="mutable-default-arg")


def test_mutable_default_negative():
    source = """
        from typing import Optional, Tuple

        TABLE: Tuple[str, ...] = ("a", "b")

        def collect(items: Optional[list] = None):
            return list(items or ())
    """
    assert not lint(source, rule="mutable-default-arg")


def test_mutable_default_allows_dunder_all():
    source = """
        __all__ = ["collect"]
    """
    assert not lint(source, rule="mutable-default-arg")


def test_mutable_default_sanctioned():
    source = """
        REGISTRY = {}  # qrcclint: disable=mutable-default-arg -- fixture: written only at import time
    """
    assert not lint(source, rule="mutable-default-arg")
    assert not lint(source, rule=BAD_SANCTION)


# ----------------------------------------------------------------- float-equality
def test_float_equality_positive():
    source = """
        def close_enough(x):
            return x == 0.5
    """
    assert lint(source, rule="float-equality")


def test_float_equality_negative_integer_compare():
    source = """
        def is_empty(n):
            return n == 0
    """
    assert not lint(source, rule="float-equality")


def test_float_equality_off_in_tests():
    source = """
        def check(x):
            assert x == 0.5
    """
    assert not lint(source, path=TEST_PATH, rule="float-equality")


def test_float_equality_sanctioned():
    source = """
        def skip(coefficient):
            return coefficient == 0.0  # qrcclint: disable=float-equality -- fixture: assigned sentinel
    """
    assert not lint(source, rule="float-equality")
    assert not lint(source, rule=BAD_SANCTION)


# ------------------------------------------------------------------ bare-cache-key
def test_bare_cache_key_positive():
    source = """
        class Executor:
            def cache_key(self, fingerprint):
                return f"{fingerprint}:shots={self.shots}"
    """
    assert lint(source, rule="bare-cache-key")


def test_bare_cache_key_flags_keys_built_at_cache_calls():
    source = """
        def store(cache, fingerprint, result):
            cache.put(fingerprint + ":final", result)
    """
    assert lint(source, rule="bare-cache-key")


def test_bare_cache_key_negative_blessed_builder():
    source = """
        from repro.engine.cache import build_cache_key

        class Executor:
            def cache_key(self, fingerprint):
                return build_cache_key(fingerprint, shots=self.shots)
    """
    assert not lint(source, rule="bare-cache-key")


def test_bare_cache_key_allowed_in_cache_module():
    source = """
        def build_cache_key(fingerprint, *, shots=None):
            key = str(fingerprint)
            if shots is not None:
                key += f":shots={shots}"
            return key
    """
    assert not lint(source, path="src/repro/engine/cache.py", rule="bare-cache-key")


def test_bare_cache_key_sanctioned():
    source = """
        class Executor:
            def cache_key(self, fingerprint):
                return f"{fingerprint}:legacy"  # qrcclint: disable=bare-cache-key -- fixture: frozen legacy format
    """
    assert not lint(source, rule="bare-cache-key")
    assert not lint(source, rule=BAD_SANCTION)


# ------------------------------------------------------------------- sanction grammar
def test_unknown_rule_in_disable_is_itself_an_error():
    source = """
        x = 1  # qrcclint: disable=no-such-rule -- misguided attempt
    """
    findings = lint(source, rule=BAD_SANCTION)
    assert findings and "unknown rule" in findings[0].message


def test_sanction_without_justification_is_an_error():
    source = """
        import numpy as np

        def draw():
            return np.random.default_rng()  # qrcclint: disable=unseeded-randomness
    """
    assert lint(source, rule=BAD_SANCTION)
    # An unjustified sanction must NOT suppress the underlying finding either.
    assert lint(source, rule="unseeded-randomness")


def test_malformed_qrcclint_comment_is_an_error():
    source = """
        x = 1  # qrcclint: plz ignore
    """
    assert lint(source, rule=BAD_SANCTION)


def test_sanction_with_comma_only_justification_parses():
    # Justifications made purely of letters, commas and hyphens must not be
    # swallowed into the rule list (regression test for the sanction regex).
    source = """
        REGISTRY = {}  # qrcclint: disable=mutable-default-arg -- read-only table, never written after import
    """
    assert not lint(source)


def test_sanction_does_not_leak_to_other_rules():
    source = """
        import numpy as np

        def draw():
            return np.random.default_rng()  # qrcclint: disable=float-equality -- fixture: wrong rule named
    """
    assert lint(source, rule="unseeded-randomness")


def test_syntax_error_is_reported_not_raised():
    findings = lint("def broken(:\n", path=SRC_PATH)
    assert findings and findings[0].rule == "syntax-error"


# ------------------------------------------------------------------- repo-wide gate
def run_lint(args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.qrcclint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_repository_is_lint_clean():
    result = run_lint(["src", "tools", "benchmarks"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "qrcclint: clean" in result.stdout


def test_seeded_kernel_violation_fails_the_gate(tmp_path):
    """A synthetic unstable reduction in a kernel-module path must trip the CLI."""
    kernel = tmp_path / "src" / "repro" / "simulator" / "batched.py"
    kernel.parent.mkdir(parents=True)
    kernel.write_text(
        "import numpy as np\n\n\ndef marginal(table):\n    return table.sum(axis=0)\n",
        encoding="utf-8",
    )
    result = run_lint(["src"], cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "unstable-reduction" in result.stdout


def test_list_rules_names_every_rule():
    result = run_lint(["--list-rules"])
    assert result.returncode == 0
    for rule in RULES:
        assert rule.name in result.stdout


def test_select_restricts_to_named_rules(tmp_path):
    offender = tmp_path / "src" / "module.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(
        "import time\n\nREGISTRY = {}\n\n\ndef run():\n    return time.perf_counter()\n",
        encoding="utf-8",
    )
    result = run_lint(["--select", "mutable-default-arg", "src"], cwd=tmp_path)
    assert result.returncode == 1
    assert "mutable-default-arg" in result.stdout
    assert "wall-clock-in-hot-path" not in result.stdout
