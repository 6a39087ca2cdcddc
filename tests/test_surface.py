"""The package's public surface is pinned, and the modules import nothing they leave unused.

A new public name must be added to ``PUBLIC`` on purpose.  With no linter
in the test dependencies, an ``ast`` scan catches the imports that a
deletion leaves behind.
"""

import ast
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

import gicap

SRC = Path(gicap.__file__).resolve().parent

# the sorted names of ``gicap`` that are not modules and do not start with "_"
PUBLIC = [
    "Audit",
    "BaselineScheme",
    "ChannelParams",
    "ClassMismatchError",
    "ContainmentError",
    "DifferentialRatePair",
    "DomainError",
    "FiniteSnrSandwich",
    "GapReport",
    "GdofParams",
    "GicapError",
    "InterferenceClass",
    "InterferenceTag",
    "InvalidParameterError",
    "InvalidSplitError",
    "NotCoveredError",
    "PowerSplit",
    "RateConstraint",
    "RateRegion",
    "SweepRecord",
    "SweepResult",
    "SymmetricBoundSet",
    "SymmetricRegime",
    "UnboundedRegionError",
    "Vertex",
    "alpha",
    "asymptotic_tightness_check",
    "audit",
    "audit_regions",
    "baseline_gdof",
    "certificates",
    "class_outer",
    "classify",
    "contains",
    "d_sym",
    "db_to_linear",
    "delta_audit",
    "differential_rates",
    "finite_snr_convergence",
    "gdof_region",
    "hk_region",
    "kramer_bound",
    "kramer_gap",
    "mixed_outer",
    "new_sum_bound",
    "one_bit_certificate",
    "one_bit_sweep",
    "one_sided_gdof_region",
    "one_sided_sum_capacity",
    "pt2pt_outer",
    "recommended_split",
    "regime1_gap",
    "regime1_rate",
    "regime2_rate",
    "regime2_window",
    "region_to_jsonable",
    "stream_sweep",
    "strong_capacity",
    "symmetric_bounds",
    "symmetric_capacity_strong",
    "symmetric_gdof_region",
    "symmetric_hk_rate",
    "symmetric_rate",
    "symmetric_regime",
    "treat_as_noise_region",
    "vertices",
    "weak_outer",
    "within_half_certificate",
]

# every module but __init__; importing __main__ would run the CLI
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
LIBRARY = [stem for stem in MODULES if stem != "__main__"]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(gicap).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_in_its_modules_all(name):
    # exported under the name its defining module gives it, not an alias
    value = getattr(gicap, name)
    module = sys.modules[value.__module__]
    assert name in module.__all__, module.__name__
    assert getattr(module, name) is value, module.__name__


@pytest.mark.parametrize("stem", LIBRARY)
def test_every_all_entry_resolves(stem):
    module = importlib.import_module(f"gicap.{stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports, anywhere, and never reads; an
    ``__all__`` entry counts as a read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_rule():
    source = "from __future__ import annotations\nimport os.path\nimport re as _re\n"
    source += "from .x import a, b as c, d\n__all__ = ['d']\nprint(os.path, a)\n"
    assert unused_imports(source) == ["_re (line 3)", "c (line 4)"]


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used(stem):
    assert unused_imports((SRC / f"{stem}.py").read_text(encoding="utf-8")) == []
