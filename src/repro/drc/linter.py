"""Lint entry point: discovery, suppressions, output formats.

``run_lint(paths)`` parses every ``.py`` file under the given paths into
:class:`~repro.drc.rules.LintModule`\\ s, runs the whole rule catalog
(module-scope rules file by file, then project-scope rules once over the
list of every parsed module), drops findings suppressed with a
``# drc: disable=<code>`` comment on the offending line, and returns the
surviving violations sorted by path/line.

Suppression syntax (mirrors the familiar lint tools):

* ``x = foo()  # drc: disable=DRC104`` — silence one code on this line;
* ``# drc: disable=DRC101,DRC104`` — several codes, comma-separated;
* ``# drc: disable`` — every rule on this line (use sparingly; prefer
  naming the code so the exception is auditable).

Output formats: ``text`` (one ``path:line:col: CODE message`` per line),
``json`` (a list of violation objects plus a summary), and ``sarif``
(SARIF 2.1.0, for code-scanning upload from CI).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from repro.drc.rules import LintModule, Violation, rule_catalog

#: directories never descended into during file discovery
_SKIP_DIRS = frozenset({
    ".git", ".hg", "__pycache__", ".venv", "venv", "node_modules",
    ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist",
})

_SUPPRESS_RE = re.compile(r"#\s*drc:\s*disable(?:=(?P<codes>[A-Z0-9, ]+))?")


def discover_files(paths: Iterable[str | Path], root: Path | None = None) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files taken as-is), sorted."""
    root = Path.cwd() if root is None else root
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            if p.suffix == ".py":
                out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                if any(part in _SKIP_DIRS for part in f.parts):
                    continue
                out.add(f)
    return sorted(out)


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """line (1-based) -> suppressed codes; ``None`` means all codes."""
    out: dict[int, set[str] | None] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[i] = None
        else:
            out[i] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def _suppressed(v: Violation, suppressions: dict[int, set[str] | None]) -> bool:
    codes = suppressions.get(v.line, ...)
    if codes is ...:
        return False
    return codes is None or v.code in codes  # type: ignore[union-attr]


class LintResult:
    """Violations that survived suppression, plus run accounting."""

    def __init__(self, violations: list[Violation], files_checked: int,
                 suppressed: int, parse_errors: list[Violation]) -> None:
        self.violations = violations
        self.files_checked = files_checked
        self.suppressed = suppressed
        self.parse_errors = parse_errors

    @property
    def exit_code(self) -> int:
        return 1 if self.violations or self.parse_errors else 0

    def all_findings(self) -> list[Violation]:
        return sorted(self.parse_errors + self.violations,
                      key=lambda v: (v.path, v.line, v.col, v.code))


def _parse_file(path: Path, rel: str) -> LintModule | Violation:
    """Parse one file, or return the DRC001 finding that it cannot be."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return Violation("DRC001", rel, 1, 1, f"file could not be read: {exc}")
    try:
        return LintModule.parse(path, rel, data.decode("utf-8"))
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return Violation("DRC001", rel, line, 1,
                         f"file could not be parsed: {exc}")


def _relpath(f: Path, root: Path) -> str:
    try:
        return f.relative_to(root).as_posix()
    except ValueError:
        return f.as_posix()


def run_lint(paths: Iterable[str | Path], root: Path | None = None) -> LintResult:
    """Lint every Python file under ``paths``; see module docstring."""
    root = Path.cwd() if root is None else root
    files = discover_files(paths, root=root)
    rules = rule_catalog()
    module_rules = [r for r in rules if r.scope == "module"]
    project_rules = [r for r in rules if r.scope == "project"]

    parse_errors: list[Violation] = []
    kept: list[Violation] = []
    n_suppressed = 0
    suppressions: dict[str, dict[int, set[str] | None]] = {}
    mods: list[LintModule] = []
    for f in files:
        parsed = _parse_file(f, _relpath(f, root))
        if isinstance(parsed, Violation):
            parse_errors.append(parsed)
            continue
        mods.append(parsed)
        sup = suppressions[parsed.relpath] = parse_suppressions(parsed.source)
        for rule in module_rules:
            for v in rule.check_module(parsed):
                if _suppressed(v, sup):
                    n_suppressed += 1
                else:
                    kept.append(v)

    for rule in project_rules:
        for v in rule.check_project(mods):
            if _suppressed(v, suppressions.get(v.path, {})):
                n_suppressed += 1
            else:
                kept.append(v)

    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    parse_errors.sort(key=lambda v: (v.path, v.line))
    return LintResult(kept, files_checked=len(files),
                      suppressed=n_suppressed, parse_errors=parse_errors)


# -- output formats ---------------------------------------------------------

def format_text(result: LintResult) -> str:
    lines = [v.render() for v in result.all_findings()]
    n = len(result.all_findings())
    lines.append(
        f"{'No' if n == 0 else n} violation{'s' if n != 1 else ''} "
        f"in {result.files_checked} file{'s' if result.files_checked != 1 else ''}"
        + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    return json.dumps(
        {
            "violations": [asdict(v) for v in result.all_findings()],
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
        },
        indent=2,
    )


def format_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 — the schema GitHub code scanning ingests."""
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        for rule in rule_catalog()
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": v.path},
                        "region": {"startLine": v.line, "startColumn": v.col},
                    }
                }
            ],
        }
        for v in result.all_findings()
    ]
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-drc",
                        "informationUri": "https://example.invalid/repro-drc",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


FORMATTERS = {"text": format_text, "json": format_json, "sarif": format_sarif}
