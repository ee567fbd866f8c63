"""Lint-style guards for the TimeoutError-shadows-a-builtin hazard.

``repro.errors.TimeoutError`` intentionally mirrors the paper's "TO"
vocabulary, but it shares a name with the Python builtin.  A module that
does ``except TimeoutError`` without importing the repro class catches the
*builtin* (missing every simulated timeout); one that imports it unqualified
shadows the builtin (catching simulated timeouts where OS timeouts were
meant).  These tests pin the convention: the class is only ever referenced
qualified, as ``errors.TimeoutError`` (or the unambiguous alias
``errors.SimulatedTimeoutError``).
"""

import builtins
import pathlib
import re

from repro import errors

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: `from repro.errors import ..., TimeoutError, ...` — the shadowing import.
UNQUALIFIED_IMPORT = re.compile(
    r"from\s+repro\.errors\s+import\s+(?:\([^)]*\)|[^\n]*)", re.MULTILINE)

#: `TimeoutError` not preceded by a dot (i.e. not errors.TimeoutError).
BARE_NAME = re.compile(r"(?<![.\w])TimeoutError\b")


def _source_files():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return files


class TestTimeoutErrorHygiene:
    def test_class_identity(self):
        assert errors.TimeoutError is not builtins.TimeoutError
        assert issubclass(errors.TimeoutError, errors.ReproError)
        assert not issubclass(errors.TimeoutError, builtins.TimeoutError)
        assert errors.SimulatedTimeoutError is errors.TimeoutError

    def test_no_unqualified_import_of_repro_timeout_error(self):
        offenders = []
        for path in _source_files():
            if path == SRC / "errors.py":
                continue
            for match in UNQUALIFIED_IMPORT.finditer(path.read_text()):
                if BARE_NAME.search(match.group(0)):
                    offenders.append(str(path))
        assert not offenders, (
            "import repro.errors qualified (from repro import errors), "
            f"never TimeoutError by name: {offenders}")

    def test_no_bare_except_or_raise_timeout_error(self):
        offenders = []
        for path in _source_files():
            if path == SRC / "errors.py":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                stripped = line.split("#")[0]
                if not ("except" in stripped or "raise" in stripped):
                    continue
                if BARE_NAME.search(stripped):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, (
            "always raise/catch the simulated timeout as "
            f"errors.TimeoutError: {offenders}")
