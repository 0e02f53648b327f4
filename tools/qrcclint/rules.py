"""The qrcclint rule set: this repository's determinism & concurrency invariants.

Each rule machine-checks one invariant the engine/service/cutting stack relies
on for bit-identical serial/parallel reconstruction (see
``docs/determinism.md`` for the catalogue and the rationale behind every
invariant).  Rules are syntactic — they inspect the AST, never types or runtime
state — so they are conservative by design: a deliberate exception is
sanctioned in place with a justified ``# qrcclint: disable=<rule>`` comment
rather than by weakening the rule.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator, Tuple

from .engine import FileContext, Finding, Rule, call_keywords, dotted_name

__all__ = [
    "UnseededRandomness",
    "UnstableReduction",
    "WallClockInHotPath",
    "MutableDefaultArg",
    "FloatEquality",
    "BareCacheKey",
    "RULES",
]


def _in_dir(path: PurePosixPath, prefix: str) -> bool:
    return path.parts[: len(PurePosixPath(prefix).parts)] == PurePosixPath(prefix).parts


class UnseededRandomness(Rule):
    """Randomness in ``src/`` must be derived, never ambient.

    Serial == parallel bit-identity requires every random draw to be seeded
    from request fingerprints (see ``repro.engine.requests.seed_from_fingerprint``).
    Flags: any ``random.*`` call (module-global Mersenne state), legacy
    ``np.random.*`` calls (global RNG), and ``default_rng()`` /
    ``SeedSequence()`` constructed without seed material.
    """

    name = "unseeded-randomness"
    description = "random draw not derived from explicit seed material (src/)"

    #: Constructors that are fine *with* an argument, flagged bare.
    _SEEDABLE = ("default_rng", "SeedSequence")

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_dir(path, "src")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head = name.split(".")[0]
            tail = name.split(".")[-1]
            if tail in self._SEEDABLE and (
                name == tail or name.endswith((".random." + tail, "random." + tail))
            ):
                if not node.args and not node.keywords:
                    yield context.finding(
                        self,
                        node,
                        f"{tail}() without seed material draws OS entropy; derive the "
                        "seed from the request fingerprint (seed_from_fingerprint)",
                    )
                continue
            if head == "random" and name != "random":
                yield context.finding(
                    self,
                    node,
                    f"{name}() uses the process-global random state; use a "
                    "fingerprint-seeded np.random.Generator instead",
                )
                continue
            if name.startswith(("np.random.", "numpy.random.")):
                yield context.finding(
                    self,
                    node,
                    f"legacy global-state call {name}(); use a fingerprint-seeded "
                    "np.random.default_rng(seed) Generator instead",
                )


class UnstableReduction(Rule):
    """Axis reductions in the numeric kernels must have a pinned order.

    NumPy axis reductions (``.sum(axis=...)``, ``np.sum(..., axis=...)``,
    ``np.add.reduce``) choose pairwise/blocked orders that vary with shape,
    strides and SIMD width, so a kernel relying on one can silently break the
    serial == parallel bit-identity contract.  ``np.add.reduceat`` is flagged
    too: it sums pairwise inside each segment, so it does not match a
    left-to-right segment sum.  Call sites whose order is pinned by a test
    (for example a last-axis reduce of a C-contiguous float64 block, which
    equals the per-row 1-D sum) are sanctioned one by one, naming that test.
    """

    name = "unstable-reduction"
    description = "axis reduction with unpinned order in a bit-exact kernel module"

    #: The modules holding the bit-exactness-critical numeric kernels.
    KERNEL_MODULES = (
        "src/repro/simulator/batched.py",
        "src/repro/simulator/statevector.py",
        "src/repro/cutting/contraction.py",
        "src/repro/cutting/dynamic_definition.py",
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        return str(path) in self.KERNEL_MODULES

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in ("np.add.reduce", "numpy.add.reduce"):
                    yield context.finding(
                        self,
                        node,
                        "np.add.reduce has shape-dependent pairwise order; document and "
                        "sanction the call site if the order is genuinely fixed",
                    )
                elif name in ("np.add.reduceat", "numpy.add.reduceat"):
                    yield context.finding(
                        self,
                        node,
                        "np.add.reduceat sums pairwise inside each segment, not left to "
                        "right; use np.add.accumulate per segment or sanction with a test",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            keywords = call_keywords(node)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum"
                and name not in ("np.sum", "numpy.sum")
                and ("axis" in keywords or node.args)
            ):
                yield context.finding(
                    self,
                    node,
                    ".sum(axis=...) is not bitwise-stable across shapes/strides; "
                    "use an order-fixed reduction or sanction with justification",
                )
            elif name in ("np.sum", "numpy.sum") and ("axis" in keywords or len(node.args) > 1):
                yield context.finding(
                    self,
                    node,
                    "np.sum(..., axis=...) is not bitwise-stable across shapes/strides; "
                    "use an order-fixed reduction or sanction with justification",
                )


class WallClockInHotPath(Rule):
    """Wall-clock reads live only in the blessed timing/stopping modules.

    Clock reads scattered through evaluation code invite time-dependent
    behaviour (retry heuristics, "fast enough" branches) that breaks
    reproducibility, and add syscall overhead to hot loops.  All stage timing
    routes through ``repro.utils.timing.perf_clock``; deadline policy lives in
    ``repro.service.stopping`` (which only *consumes* elapsed seconds).
    """

    name = "wall-clock-in-hot-path"
    description = "direct clock read outside the blessed timing/stopping modules"

    #: Modules allowed to touch the clock directly.
    ALLOWED = (
        "src/repro/utils/timing.py",
        "src/repro/service/stopping.py",
    )

    _CLOCKS = (
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_dir(path, "src") and str(path) not in self.ALLOWED

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom):
                modules = ("time", "datetime")
                if node.module in modules:
                    clock_names = {clock.split(".")[-1] for clock in self._CLOCKS}
                    for alias in node.names:
                        if alias.name in clock_names:
                            yield context.finding(
                                self,
                                node,
                                f"importing {alias.name} from {node.module}; route timing "
                                "through repro.utils.timing.perf_clock",
                            )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            name = dotted_name(node)
            if name in self._CLOCKS:
                yield context.finding(
                    self,
                    node,
                    f"direct clock read {name}; route stage timing through "
                    "repro.utils.timing.perf_clock (deadline policy belongs in "
                    "repro.service.stopping)",
                )


class MutableDefaultArg(Rule):
    """No mutable default arguments or module-level mutable state in ``src/``.

    Both are shared across calls/threads: a mutable default silently carries
    state between invocations, and a module-level dict/list/set is ambient
    state every worker mutates concurrently.  Read-only constant tables are
    sanctioned in place with a justification saying why they are never written
    after import.
    """

    name = "mutable-default-arg"
    description = "mutable default argument or module-level mutable container (src/)"

    _MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter")
    _MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_dir(path, "src")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, self._MUTABLE_DISPLAYS):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    default for default in node.args.kw_defaults if default is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield context.finding(
                            self,
                            default,
                            "mutable default argument is shared between calls; "
                            "default to None and construct inside the function",
                        )
        for statement in context.tree.body:
            targets: Tuple[ast.expr, ...] = ()
            value = None
            if isinstance(statement, ast.Assign):
                targets, value = tuple(statement.targets), statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = (statement.target,), statement.value
            if value is None or not self._is_mutable(value):
                continue
            names = [
                target.id for target in targets if isinstance(target, ast.Name)
            ]
            if names == ["__all__"]:
                continue
            label = ", ".join(names) or "<target>"
            yield context.finding(
                self,
                statement,
                f"module-level mutable container {label} is ambient shared state; "
                "make it immutable, move it into an object, or sanction a "
                "read-only table with justification",
            )


class FloatEquality(Rule):
    """No ``==``/``!=`` against float-typed expressions outside ``tests/``.

    Computed floats differ in the last ulp across reduction orders, SIMD
    widths and compiler versions; equality comparisons against them encode
    accidental bit-patterns as behaviour.  Compare with a tolerance
    (``math.isclose``/``np.isclose``) — exact sentinel checks against values
    that are *assigned*, never computed, are sanctioned in place.
    """

    name = "float-equality"
    description = "== / != comparison against a float-typed expression"

    _FLOAT_CALLS = ("float", "np.float64", "np.float32", "numpy.float64", "numpy.float32")

    def applies_to(self, path: PurePosixPath) -> bool:
        return not _in_dir(path, "tests")

    def _is_floatish(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._is_floatish(node.operand)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in self._FLOAT_CALLS
        return False

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_floatish(left) or self._is_floatish(right):
                    yield context.finding(
                        self,
                        node,
                        "exact == / != against a float; use math.isclose/np.isclose, "
                        "or sanction a deliberate assigned-sentinel check",
                    )
                    break


class BareCacheKey(Rule):
    """Cache keys are built only by the blessed builders in ``repro.engine.cache``.

    Result-cache keys must carry every component that distinguishes results
    (scope, stage, seed/shot counts, fingerprint); an ad-hoc f-string near a
    ``cache.put``/``cache.get`` call, or inside a ``cache_key``/
    ``cache_namespace`` override, can silently drop one and alias results
    across configurations.  ``build_cache_key`` / ``build_cache_namespace`` /
    ``scoped_cache_namespace`` in ``src/repro/engine/cache.py`` are the single
    allowlisted construction site.
    """

    name = "bare-cache-key"
    description = "ad-hoc string cache-key construction bypassing the blessed builders"

    #: The blessed construction site (the builders themselves live here).
    ALLOWED = ("src/repro/engine/cache.py",)

    _KEY_FUNCTIONS = ("cache_key", "cache_namespace", "_scoped_namespace")

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_dir(path, "src") and str(path) not in self.ALLOWED

    def _builds_string(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.JoinedStr):
                return True
            if isinstance(child, ast.BinOp) and isinstance(child.op, (ast.Add, ast.Mod)):
                for side in (child.left, child.right):
                    if isinstance(side, ast.Constant) and isinstance(side.value, str):
                        return True
                    if isinstance(side, ast.JoinedStr):
                        return True
            if isinstance(child, ast.Call):
                name = dotted_name(child.func)
                if name is not None and name.split(".")[-1] in ("format", "join"):
                    return True
        return False

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in self._KEY_FUNCTIONS:
                    continue
                for statement in node.body:
                    if self._builds_string(statement):
                        yield context.finding(
                            self,
                            statement,
                            f"{node.name} builds its key with ad-hoc string formatting; "
                            "route through build_cache_key/build_cache_namespace "
                            "(repro.engine.cache)",
                        )
                continue
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("put", "get"):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or "cache" not in receiver.lower():
                continue
            for argument in [*node.args, *(kw.value for kw in node.keywords)]:
                if self._builds_string(argument):
                    yield context.finding(
                        self,
                        node,
                        f"string formatting inline in {receiver}.{node.func.attr}(...); "
                        "build the key with build_cache_key/build_cache_namespace "
                        "(repro.engine.cache)",
                    )
                    break


#: The registry: every rule the CLI runs, in reporting order.
RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    UnstableReduction(),
    WallClockInHotPath(),
    MutableDefaultArg(),
    FloatEquality(),
    BareCacheKey(),
)
