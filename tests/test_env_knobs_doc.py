"""Lint-style guard: the EXPERIMENTS.md knob table is complete and live.

Every ``REPRO_*`` environment variable the harness reads must have a row
in the consolidated "Environment knobs" table (EXPERIMENTS.md), the table
must carry no stale rows for knobs the code no longer mentions, and the
generator template (``scripts/make_experiments_md.py``) must agree with
the generated file — the same discipline ``tests/test_error_hygiene.py``
applies to exception naming.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: A complete knob name: REPRO_ followed by underscore-separated words.
#: Prefix mentions like ``REPRO_SERVICE_*`` in prose (trailing underscore)
#: are not knobs and are skipped.
KNOB = re.compile(r"REPRO_[A-Z0-9]+(?:_[A-Z0-9]+)*")

#: A table row documenting one knob: ``| `REPRO_X` | default | meaning |``.
TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def knobs_in_sources():
    """Every complete REPRO_* name mentioned anywhere under src/repro."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in KNOB.finditer(text):
            # Skip family-prefix prose like ``REPRO_SERVICE_*`` — the
            # match stops before the trailing underscore/star.
            if text[match.end():match.end() + 1] in ("_", "*"):
                continue
            names.add(match.group(0))
    assert names, f"no REPRO_ knobs found under {SRC}"
    return names


def documented_knobs(text):
    return set(TABLE_ROW.findall(text))


class TestEnvKnobTable:
    def test_every_source_knob_is_documented(self):
        documented = documented_knobs((ROOT / "EXPERIMENTS.md").read_text())
        missing = knobs_in_sources() - documented
        assert not missing, (
            "knob(s) read in src/ but missing from the EXPERIMENTS.md "
            f"'Environment knobs' table: {sorted(missing)}")

    def test_no_stale_table_rows(self):
        documented = documented_knobs((ROOT / "EXPERIMENTS.md").read_text())
        stale = documented - knobs_in_sources()
        assert not stale, (
            "EXPERIMENTS.md documents knob(s) no source file mentions: "
            f"{sorted(stale)}")

    def test_generator_template_matches_generated_file(self):
        generated = documented_knobs((ROOT / "EXPERIMENTS.md").read_text())
        template = documented_knobs(
            (ROOT / "scripts" / "make_experiments_md.py").read_text())
        assert template == generated, (
            "EXPERIMENTS.md and the scripts/make_experiments_md.py HEADER "
            "document different knob sets; edit them together")

    def test_validator_known_set_matches_sources(self):
        # The fail-fast validator's allowlist must track the knobs the
        # tree actually mentions — an unlisted real knob would make the
        # validator reject a legitimate environment, and a leftover name
        # would let a removed knob linger unnoticed.
        from repro.service.config import KNOWN_KNOBS

        assert set(KNOWN_KNOBS) == knobs_in_sources(), (
            "repro.service.config.KNOWN_KNOBS and the REPRO_* names "
            "mentioned under src/repro have drifted apart; edit them "
            "together")

    def test_every_known_knob_is_exercised(self):
        # A knob nothing ever sets is a constant in disguise: every name
        # the validator accepts must be set or read by a test, bench or
        # the benchmark harness, or set on a live (non-comment) CI line.
        from repro.service.config import KNOWN_KNOBS

        texts = [path.read_text()
                 for top in ("tests", "benchmarks", "perfbench")
                 for path in sorted((ROOT / top).rglob("*.py"))
                 if path != pathlib.Path(__file__).resolve()]
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        texts.append("\n".join(line for line in ci.splitlines()
                               if not line.lstrip().startswith("#")))
        exercised = {name for text in texts for name in KNOB.findall(text)}
        unexercised = set(KNOWN_KNOBS) - exercised
        assert not unexercised, (
            "knob(s) no test, bench, perfbench workload or CI step sets: "
            f"{sorted(unexercised)}; make them constants or exercise them")

    def test_table_is_nonempty_and_has_service_knobs(self):
        documented = documented_knobs((ROOT / "EXPERIMENTS.md").read_text())
        assert {"REPRO_FAULTS", "REPRO_CELL_WALL_BUDGET",
                "REPRO_CELL_DEADLINE",
                "REPRO_FAULTS_SEED"} <= documented
