"""Core infrastructure of reprolint: findings, pragmas, project loading, runner.

The pragma protocol
-------------------
A finding is suppressed by an inline comment on the flagged line (or on a
comment-only line directly above it)::

    self._cache.pop(key)  # reprolint: allow[lock-discipline] -- read-only after join()

The justification after ``--`` is mandatory: a pragma without one does not
suppress anything and is itself reported as ``bad-pragma``.  A justified
pragma that suppresses nothing is reported as ``unused-pragma``, so stale
suppressions cannot accumulate silently.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<why>.*\S))?")

#: Directories never scanned when a directory path is expanded.  The fixture
#: corpus contains intentional findings and is only ever linted file-by-file
#: from its own tests.
SKIP_DIRS = frozenset({".git", "__pycache__", ".venv", "build", "dist", "reprolint_fixtures"})

META_RULES = ("bad-pragma", "unused-pragma", "parse-error")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line, "message": self.message}

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)


@dataclass
class Pragma:
    """One ``# reprolint: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    justification: str
    own_line: bool
    used: bool = False

    def covers(self, line: int) -> bool:
        """Pragmas cover their own line; comment-only pragmas cover the next."""
        return line == self.line or (self.own_line and line == self.line + 1)


@dataclass
class Module:
    """A parsed source file plus its pragmas."""

    path: Path
    rel: str
    name: str
    text: str
    tree: ast.Module
    pragmas: List[Pragma] = field(default_factory=list)


@dataclass
class Project:
    """The set of modules one reprolint invocation analyses together."""

    root: Path
    modules: List[Module]
    parse_errors: List[Finding] = field(default_factory=list)

    def by_name(self, name: str) -> Optional[Module]:
        for module in self.modules:
            if module.name == name:
                return module
        return None


@dataclass
class Report:
    """Outcome of one run: surviving findings plus suppression bookkeeping."""

    findings: List[Finding]
    suppressed: List[Finding]
    checked_files: int
    #: Counts the rules that ran report besides their findings.
    measures: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "checked_files": self.checked_files,
            "findings": [f.to_dict() for f in self.findings],
            "measures": dict(self.measures),
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def parse_pragmas(text: str) -> List[Pragma]:
    """Extract pragmas from real comment tokens (never from string literals)."""
    pragmas: List[Pragma] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(token.string)
        if match is None:
            continue
        lineno, column = token.start
        rules = tuple(r.strip() for r in match.group("rules").split(",") if r.strip())
        why = (match.group("why") or "").strip()
        own_line = not token.line[:column].strip()
        pragmas.append(Pragma(line=lineno, rules=rules, justification=why, own_line=own_line))
    return pragmas


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path (``src/`` layout aware)."""
    parts = Path(rel).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _iter_files(paths: Sequence[Path]) -> Iterable[Path]:
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                f
                for f in path.rglob("*.py")
                if not any(part in SKIP_DIRS for part in f.relative_to(path).parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_project(paths: Sequence[str | Path], root: str | Path | None = None) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    Files that fail to parse become ``parse-error`` findings rather than
    aborting the run, so one broken file cannot mask findings elsewhere.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    modules: List[Module] = []
    errors: List[Finding] = []
    for file_path in _iter_files([Path(p) for p in paths]):
        try:
            rel = file_path.resolve().relative_to(root_path.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        text = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(file_path))
        except SyntaxError as exc:
            errors.append(
                Finding("parse-error", rel, exc.lineno or 1, f"could not parse: {exc.msg}")
            )
            continue
        modules.append(
            Module(
                path=file_path,
                rel=rel,
                name=module_name_for(rel),
                text=text,
                tree=tree,
                pragmas=parse_pragmas(text),
            )
        )
    return Project(root=root_path, modules=modules, parse_errors=errors)


def apply_pragmas(project: Project, raw: List[Finding]) -> Tuple[List[Finding], List[Finding]]:
    """Split raw findings into (surviving, suppressed) and emit pragma meta-findings.

    Meta-findings (``bad-pragma``, ``unused-pragma``, ``parse-error``) are not
    themselves suppressible: the pragma protocol must not be able to silence
    its own misuse.
    """
    by_rel: Dict[str, Module] = {module.rel: module for module in project.modules}
    surviving: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        module = by_rel.get(finding.path)
        pragma = None
        if module is not None and finding.rule not in META_RULES:
            for candidate in module.pragmas:
                if (
                    candidate.justification
                    and finding.rule in candidate.rules
                    and candidate.covers(finding.line)
                ):
                    pragma = candidate
                    break
        if pragma is None:
            surviving.append(finding)
        else:
            pragma.used = True
            suppressed.append(finding)

    for module in project.modules:
        for pragma in module.pragmas:
            if not pragma.justification:
                surviving.append(
                    Finding(
                        "bad-pragma",
                        module.rel,
                        pragma.line,
                        "pragma is missing its mandatory '-- justification' text",
                    )
                )
            elif not pragma.used:
                surviving.append(
                    Finding(
                        "unused-pragma",
                        module.rel,
                        pragma.line,
                        f"pragma allow[{', '.join(pragma.rules)}] suppresses nothing; remove it",
                    )
                )
    return surviving, suppressed


def run(project: Project, checkers: Sequence[object], rules: Sequence[str] | None = None) -> Report:
    """Run ``checkers`` over ``project`` and fold in the pragma protocol."""
    raw: List[Finding] = list(project.parse_errors)
    measures: Dict[str, int] = {}
    for checker in checkers:
        if rules is not None and checker.RULE not in rules:
            continue
        raw.extend(checker.check(project))
        if hasattr(checker, "measures"):
            measures.update(checker.measures(project))
    surviving, suppressed = apply_pragmas(project, raw)
    surviving.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return Report(
        findings=surviving,
        suppressed=suppressed,
        checked_files=len(project.modules),
        measures=measures,
    )
