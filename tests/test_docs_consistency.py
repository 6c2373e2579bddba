"""Docs-consistency check (CI-enforced; see .github/workflows/ci.yml).

Fails when code grows a user-visible surface the docs don't mention:

- every ``ninf-experiment`` subcommand (``repro.cli.EXPERIMENT_TARGETS``)
  must appear in README.md or OBSERVABILITY.md;
- every public ``repro.obs`` name (``repro.obs.__all__``) must appear
  in OBSERVABILITY.md;
- PROTOCOL.md's op-code table and protocol-version statement must match
  ``repro.protocol.messages`` *exactly* (both directions: an op missing
  from the doc and a doc row naming a nonexistent or renumbered op both
  fail), and the payload column of every one of its rows -- and the
  record table under it -- must start with the one-line rendering of
  the op's (record's) declaration, the same declaration both codecs are
  derived from.  PROTOCOL.md presents itself as the canonical wire
  spec, which is only true while this test passes.

The metric/span-name half of this check moved into ``ninf-lint``'s
``catalog-pinned-names`` rule (see ANALYSIS.md), which also pins the
names used at instrumentation sites; this file covers the prose
surface, and is the one place the op-code table is checked.

The check is grep-based on purpose: it keeps the docs honest without
requiring any doc-generation machinery.
"""

import re
from pathlib import Path

import pytest

import repro.obs
from repro.cli import EXPERIMENT_TARGETS
from repro.protocol.messages import (PROTOCOL_VERSION, WIRE, MessageType,
                                     describe)
from repro.xdr.record import Array, Option, Struct

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A PROTOCOL.md op-code table row: ``| 5 | `CALL` | ...``.
OPCODE_ROW = re.compile(r"^\|\s*(\d+)\s*\|\s*`([A-Z_]+)`\s*\|", re.M)

#: The payload cell of an op row, and a row of the record table.
PAYLOAD_ROW = re.compile(
    r"^\|\s*\d+\s*\|\s*`([A-Z_]+)`\s*\|[^|]*\|\s*`([^`]*)`(; [^|]+)? \|$",
    re.M)
RECORD_ROW = re.compile(r"^\| `([A-Z][A-Za-z]+)` \| `([^`]*)` \|$", re.M)

#: The canonical version statement in PROTOCOL.md.
VERSION_STATEMENT = re.compile(
    r"current protocol version is \*\*(\d+)\*\*")


def _doc(name: str) -> str:
    path = REPO_ROOT / name
    assert path.is_file(), f"{name} is missing from the repo root"
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme() -> str:
    """README.md contents."""
    return _doc("README.md")


@pytest.fixture(scope="module")
def observability() -> str:
    """OBSERVABILITY.md contents."""
    return _doc("OBSERVABILITY.md")


def test_every_experiment_target_is_documented(readme, observability):
    undocumented = [t for t in EXPERIMENT_TARGETS
                    if f"`{t}`" not in readme
                    and f"`{t}`" not in observability]
    assert not undocumented, (
        f"ninf-experiment subcommands missing from README.md / "
        f"OBSERVABILITY.md: {undocumented} -- document each target "
        f"(as `target`) when adding it to repro.cli.EXPERIMENT_TARGETS")


def test_every_public_obs_api_is_documented(observability):
    undocumented = [n for n in repro.obs.__all__ if n not in observability]
    assert not undocumented, (
        f"public repro.obs names missing from OBSERVABILITY.md: "
        f"{undocumented} -- every name exported from repro.obs must be "
        f"covered by the observability doc")


def test_obs_all_matches_module_surface():
    """``repro.obs.__all__`` names all resolve, so the doc check above
    is checking the real public surface."""
    missing = [n for n in repro.obs.__all__ if not hasattr(repro.obs, n)]
    assert not missing


@pytest.fixture(scope="module")
def protocol() -> str:
    """PROTOCOL.md contents."""
    return _doc("PROTOCOL.md")


def test_protocol_opcode_table_matches_messages(protocol):
    """The PROTOCOL.md op-code table is byte-for-byte the MessageType
    enum: same names, same numbers, nothing extra, nothing missing."""
    documented = {name: int(code)
                  for code, name in OPCODE_ROW.findall(protocol)}
    assert documented, (
        "no op-code table rows found in PROTOCOL.md -- the table rows "
        "must look like `| 5 | `CALL` | ...`")
    actual = {member.name: member.value for member in MessageType}
    missing = sorted(set(actual) - set(documented))
    assert not missing, (
        f"MessageType members missing from the PROTOCOL.md op-code "
        f"table: {missing} -- every op must be specified there")
    stale = sorted(set(documented) - set(actual))
    assert not stale, (
        f"PROTOCOL.md documents op codes that do not exist in "
        f"repro.protocol.messages.MessageType: {stale}")
    renumbered = {name: (documented[name], actual[name])
                  for name in actual if documented[name] != actual[name]}
    assert not renumbered, (
        f"PROTOCOL.md op numbers disagree with MessageType "
        f"(doc, code): {renumbered} -- op codes are wire-stable, so "
        f"one of the two is lying")


def test_protocol_payload_column_is_the_rendered_declaration(protocol):
    """All 38 rows: the payload cell is ``describe(op)`` in backticks,
    then nothing or ``; prose``."""
    documented = {name: layout
                  for name, layout, _prose in PAYLOAD_ROW.findall(protocol)}
    wrong = {op.name: (documented.get(op.name), describe(op))
             for op in MessageType if documented.get(op.name) != describe(op)}
    assert not wrong, (
        f"PROTOCOL.md payload cells that are not the rendering of the "
        f"op's declaration in repro.protocol.messages.WIRE "
        f"(doc, declaration): {wrong}")


def _named_records(wire_type, found):
    if isinstance(wire_type, Struct):
        if wire_type.make is not None:
            found[wire_type.word] = wire_type.layout()
        for field in wire_type.fields:
            _named_records(field.type, found)
    elif isinstance(wire_type, (Array, Option)):
        _named_records(wire_type.item, found)
    return found


def test_protocol_record_table_is_the_rendered_declarations(protocol):
    """Every named record reachable from an op has its row, no other
    row exists, and each row is the record's rendered field list."""
    declared = {}
    for declaration in WIRE.values():
        _named_records(declaration, declared)
    assert dict(RECORD_ROW.findall(protocol)) == declared


def test_protocol_version_matches_messages(protocol):
    """PROTOCOL.md's version statement tracks PROTOCOL_VERSION."""
    match = VERSION_STATEMENT.search(protocol)
    assert match, ("PROTOCOL.md must state 'current protocol version "
                   "is **N**'")
    assert int(match.group(1)) == PROTOCOL_VERSION, (
        f"PROTOCOL.md says version {match.group(1)}, "
        f"repro.protocol.messages.PROTOCOL_VERSION is "
        f"{PROTOCOL_VERSION}")


def test_protocol_doc_is_cross_linked(readme, protocol):
    """README links to PROTOCOL.md, and PROTOCOL.md to DESIGN.md --
    the canonical spec must be discoverable from the front door."""
    assert "PROTOCOL.md" in readme
    assert "DESIGN.md" in protocol
    assert "PROTOCOL.md" in _doc("DESIGN.md")
