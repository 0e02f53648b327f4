#!/usr/bin/env python
"""Fail when the public API surface loses its documentation.

Imports :mod:`repro` and its main subpackages and verifies that every name
exported through ``__all__`` (classes, functions, exceptions) carries a
non-empty ``__doc__``.  For the flagship entry points the check is stricter:
every constructor/call parameter must be mentioned in the docstring, so
parameter docs cannot silently rot as signatures grow.

Run from the repository root:

    PYTHONPATH=src python tools/check_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import List

# tools.qrcclint lives at the repo root (not under src/); make it importable
# however this script is invoked.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: Modules whose ``__all__`` must be fully documented.
MODULES = (
    "repro",
    "repro.engine",
    "repro.cutting",
    "repro.cutting.shot_overhead",
    "repro.core",
    "repro.service",
    "tools.qrcclint",
)

#: (module, name): every parameter of these callables/classes must appear in
#: their docstring (class doc + __init__ doc for classes).  A dotted
#: ``Class.method`` name checks that method's parameters against its own doc.
FLAGSHIP = (
    ("repro", "evaluate_workload"),
    ("repro", "cut_circuit"),
    ("repro", "cut_circuit_cutqc"),
    ("repro", "EngineConfig"),
    ("repro", "PruningPolicy"),
    ("repro.cutting", "CutReconstructor"),
    ("repro.cutting", "CutReconstructor.enumerate_probability_requests"),
    ("repro.cutting", "CutReconstructor.enumerate_expectation_requests"),
    ("repro.cutting", "CutReconstructor.reconstruct_probabilities"),
    ("repro.cutting", "CutReconstructor.reconstruct_expectation"),
    ("repro.cutting", "binned_probabilities"),
    ("repro.cutting", "VariantExecutor"),
    ("repro.cutting", "VariantTable"),
    ("repro.cutting", "SubcircuitVariant"),
    ("repro.engine", "allocate_shots"),
    ("repro.engine", "ShotPlan"),
    ("repro.engine", "RequestBatch"),
    ("repro.cutting", "SamplingExecutor"),
    ("repro.engine", "prune_requests"),
    ("repro.engine", "DeviceSpec"),
    ("repro.engine", "DeviceFarm"),
    ("repro.service", "EvaluationSession"),
    ("repro.service", "ServiceQueue"),
    ("repro.service", "ServiceQueue.submit"),
    ("repro.service", "StreamingConfig"),
    ("repro.service", "StoppingRule"),
    ("repro.cutting", "optimize_overhead_weights"),
    ("repro.cutting", "reconstruct_dynamic"),
    ("repro.cutting", "plan_dynamic_definition"),
    ("repro.service", "IncrementalReconstructor"),
    ("repro.cutting", "OverheadReport"),
    ("repro.engine", "build_cache_key"),
    ("repro.engine", "build_cache_namespace"),
    ("tools.qrcclint", "lint_source"),
    ("tools.qrcclint", "lint_paths"),
)

#: Parameters that never need prose (self/cls and private underscore args).
IGNORED_PARAMETERS = {"self", "cls"}


def documented_names(module) -> List[str]:
    exported = getattr(module, "__all__", None)
    if exported is None:
        raise SystemExit(f"{module.__name__} has no __all__; nothing to check")
    return list(exported)


def check_docstrings() -> List[str]:
    errors: List[str] = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in documented_names(module):
            obj = getattr(module, name, None)
            if obj is None:
                errors.append(f"{module_name}.{name}: listed in __all__ but missing")
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj) or inspect.ismodule(obj)):
                continue  # constants, prebuilt instances, version strings
            doc = inspect.getdoc(obj)
            if not doc or not doc.strip():
                errors.append(f"{module_name}.{name}: missing __doc__")
    return errors


def check_flagship_parameters() -> List[str]:
    errors: List[str] = []
    for module_name, name in FLAGSHIP:
        obj = importlib.import_module(module_name)
        for attribute in name.split("."):
            obj = getattr(obj, attribute)
        if inspect.isclass(obj):
            doc = (inspect.getdoc(obj) or "") + "\n" + (inspect.getdoc(obj.__init__) or "")
            try:
                signature = inspect.signature(obj.__init__)
            except (TypeError, ValueError):
                continue
        else:
            doc = inspect.getdoc(obj) or ""
            signature = inspect.signature(obj)
        for parameter in signature.parameters.values():
            if parameter.name in IGNORED_PARAMETERS or parameter.name.startswith("_"):
                continue
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            if not re.search(rf"\b{re.escape(parameter.name)}\b", doc):
                errors.append(
                    f"{module_name}.{name}: parameter {parameter.name!r} "
                    "not mentioned in the docstring"
                )
    return errors


def main() -> int:
    errors = check_docstrings() + check_flagship_parameters()
    if errors:
        print(f"API documentation check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("API documentation check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
