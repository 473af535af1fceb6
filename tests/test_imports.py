"""Every name a coherekit module imports is used in that module.

The package's `__init__.py` is exempt: it imports names to re-export them.
It loads the document parser only when one of the parser's names is
asked for.  Its public API, `coherekit.__all__`, is pinned here: adding or
removing a name means editing `PUBLIC_API`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coherekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted forward references in annotations name imports too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_scan_finds_an_unused_import():
    source = "from typing import Optional, Sequence\nimport os\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 1)"]


def test_scan_counts_quoted_annotations():
    assert unused_imports("from typing import Optional\ny: 'Optional[int]' = None\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def _run(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_package_import_leaves_the_parser_unloaded():
    code = "import sys, coherekit\nprint('coherekit.dsl' in sys.modules)"
    assert _run(code).split() == ["False"]


def test_parser_names_load_the_parser_on_use():
    code = (
        "import sys, coherekit\n"
        "from coherekit import parse\n"
        "print('coherekit.dsl' in sys.modules, parse is coherekit.dsl.parse,"
        " 'serialize' in dir(coherekit), coherekit.__all__.count('dsl'))"
    )
    assert _run(code).split() == ["True", "True", "True", "0"]


PUBLIC_API = [
    "Assessment",
    "AssessmentDocument",
    "AtomRegistry",
    "CapExceeded",
    "CoherekitError",
    "CoherenceResult",
    "ConditionalRandomQuantity",
    "Constituent",
    "DimensionMismatch",
    "DutchBook",
    "Event",
    "ExtensionInterval",
    "ExtensionSearchFailed",
    "FALSE",
    "ImpossibleConditioningEvent",
    "IncoherentPremises",
    "InternalError",
    "MissingSymbol",
    "OutOfRange",
    "ParseError",
    "Poly",
    "PreconditionFailed",
    "TRUE",
    "UndeclaredAtom",
    "UnknownAtom",
    "add",
    "build",
    "check_coherence",
    "conditional_event",
    "conditional_quantity",
    "conjunction",
    "equivalent",
    "evaluate",
    "extension_interval",
    "find_dutch_book",
    "given_event",
    "implies",
    "is_impossible",
    "iterated",
    "iterated_simple",
    "mp_bounds",
    "mp_family",
    "negate",
    "parse",
    "parse_expression",
    "payoff_at",
    "product_prevision",
    "reduce_nested",
    "serialize",
    "subsets_by_size",
    "support",
    "verify_decomposition",
]

# Names the package once exported, and what replaces each (README, "Public
# API changes").
RETIRED = [
    "EmptySupport",
    "PointEntry",
    "PointTable",
    "SigmaSolution",
    "build_points",
    "constituents_of",
    "enumerate_constituents",
    "solve_sigma",
]


def test_public_api_is_pinned():
    import coherekit

    assert PUBLIC_API == sorted(PUBLIC_API)
    assert coherekit.__all__ == PUBLIC_API


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    import coherekit

    assert not hasattr(coherekit, name)
