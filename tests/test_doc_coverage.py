"""Doc-coverage lint: public APIs of the tooling packages stay documented.

Walks every module under ``repro.runner``, ``repro.obs``,
``repro.validate``, ``repro.hybrid``, ``repro.fleet`` and
``repro.compiled`` (one function, until the
benchmark header stops reading it) and fails when a public symbol —
module, module-level function/class named by ``__all__`` (or all
non-underscore names defined in the module), or a public method/property
defined on such a class — has no docstring.  This backs the
documentation contract in README.md: the subsystem docs can link to the
API surface and trust that every entry point explains itself.

Three document-drift guards ride along: the README documentation index
must link every hand-written file under ``docs/``, every ``REPRO_*``
environment knob read anywhere under ``src/`` must have a row in
``docs/ENVIRONMENT.md`` (the authoritative knob table), and every
Sphinx-style cross-reference to ``repro.*`` in the sources must name
something that exists.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

PACKAGES = ["repro.runner", "repro.obs", "repro.validate", "repro.hybrid",
            "repro.fleet", "repro.compiled"]

ROOT = Path(__file__).resolve().parents[1]


def _iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=f"{pkg_name}."):
            yield importlib.import_module(info.name)


def _public_symbols(module):
    """(name, object) pairs for the module's own public callables/classes."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented where it is defined
        yield name, obj


def _class_members(cls):
    """Public methods/properties defined (not inherited) on *cls*."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            yield name, member.__func__
        elif inspect.isfunction(member):
            yield name, member


def _missing_docstrings():
    missing = []
    for module in _iter_modules():
        if not (module.__doc__ or "").strip():
            missing.append(module.__name__)
        for name, obj in _public_symbols(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for mname, fn in _class_members(obj):
                    if not (getattr(fn, "__doc__", None) or "").strip():
                        missing.append(f"{module.__name__}.{name}.{mname}")
    return missing


def test_public_api_has_docstrings():
    missing = _missing_docstrings()
    assert not missing, (
        f"{len(missing)} public symbols lack docstrings:\n  "
        + "\n  ".join(sorted(missing))
    )


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_packages_importable(pkg_name):
    """The audited packages import cleanly on their own."""
    assert importlib.import_module(pkg_name) is not None


#: hand-written docs that must stay linked from the README index
#: (generated files — RESULTS.md — are linked but not required here)
_INDEXED_DOCS = ("ARCHITECTURE.md", "PERFORMANCE.md", "ENVIRONMENT.md",
                 "OBSERVABILITY.md", "VALIDATION.md")


def test_readme_indexes_docs():
    """Every hand-written docs/ file has a link in the README index."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in _INDEXED_DOCS
               if f"docs/{name}" not in readme]
    assert not missing, (
        f"docs not linked from the README documentation index: {missing}"
    )
    for name in _INDEXED_DOCS:
        assert (ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


#: knobs that gate pytest tiers only — documented with their suites and
#: in ENVIRONMENT.md's closing note, but not read under src/
_TEST_ONLY_KNOBS = {"REPRO_DIFF_FULL", "REPRO_QUICK"}


def test_environment_doc_covers_every_knob():
    """docs/ENVIRONMENT.md has a row for every REPRO_* knob in src/.

    The grep is deliberately broad (any ``REPRO_<NAME>`` token in the
    sources, docstrings included) so a newly introduced knob cannot
    ship undocumented — the failure names it.
    """
    pattern = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")
    knobs = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        knobs.update(pattern.findall(path.read_text(encoding="utf-8")))
    knobs.update(_TEST_ONLY_KNOBS)
    doc = (ROOT / "docs" / "ENVIRONMENT.md").read_text(encoding="utf-8")
    documented = set(pattern.findall(doc))
    missing = sorted(k for k in knobs if k not in documented)
    assert not missing, (
        f"knobs read in src/ but absent from docs/ENVIRONMENT.md: {missing}"
    )


#: a ``:func:``/``:class:``/... role whose target is a dotted ``repro`` path
_XREF = re.compile(r":(?:func|class|meth|mod|data|attr):`~?(repro(?:\.\w+)+)`")


def _resolves(target: str) -> bool:
    """Import the longest module prefix of *target*, getattr the rest."""
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_docstring_cross_references_resolve():
    """Every ``:func:`repro...``` (and ``:class:``, ``:meth:``,
    ``:mod:``, ``:data:``, ``:attr:``) under ``src/repro`` names an
    importable module or an attribute of one — a rename or deletion
    cannot leave a docstring pointing at nothing."""
    dangling = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for match in _XREF.finditer(path.read_text(encoding="utf-8")):
            if not _resolves(match.group(1)):
                dangling.append(f"{path.relative_to(ROOT)}: {match.group(1)}")
    assert not dangling, (
        "cross-references to nothing:\n  " + "\n  ".join(dangling)
    )
