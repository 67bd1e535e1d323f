"""The docs are part of the interface: dead links and undocumented CLI
surface fail the build (CI runs this module as the ``docs`` job).

These claims are pinned:

* every relative markdown link in ``README.md`` and ``docs/*.md`` resolves
  to a real file in the repo;
* ``docs/cli.md`` names every registered ``repro`` subcommand (including
  the ``dist`` sub-subcommands) and every long option flag, discovered by
  walking the live argparse tree — the reference cannot silently drift
  from the code;
* and the reverse: every `` `repro …` `` command and every ``--flag`` the
  page names exists in that tree, so a deleted command or flag cannot
  linger in the reference;
* the ``le`` bucket ``docs/observability.md`` gives for an external
  burn-rate rule is the one ``/metrics`` exports for the default target;
* the per-update sampling cap ``docs/cli.md`` and ``docs/graph-updates.md``
  state is the store's ``MAX_SAMPLED_EDGES``.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli.main import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md",
                    *(REPO_ROOT / "docs").glob("*.md")])

# [text](target) — excluding images and in-page anchors.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
# `repro <words>` in inline code or a console prompt, and long flags
# anywhere on the page.
_COMMAND = re.compile(r"(?:`|^\$ )repro((?: [a-z][a-z0-9-]*)+)", re.MULTILINE)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# Flags docs/cli.md may name although no repro parser defines them.
FOREIGN_FLAGS = {
    "--smoke": "a pytest option of benchmarks/conftest.py, not a repro flag",
}


def _relative_links(text: str) -> list[str]:
    links = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


def test_doc_files_exist():
    names = {path.name for path in DOC_FILES}
    assert {"README.md", "architecture.md", "serving.md", "cli.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    dead = [target for target in _relative_links(doc.read_text(encoding="utf-8"))
            if not (doc.parent / target).exists()]
    assert not dead, f"dead relative links in {doc.name}: {dead}"


def _subcommand_tree(parser: argparse.ArgumentParser, prefix: str = "repro"):
    """Yield ``(command_name, subparser)`` for every registered subcommand,
    recursing into nested subparsers (``repro dist submit`` etc.)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield f"{prefix} {name}", sub
                yield from _subcommand_tree(sub, prefix=f"{prefix} {name}")


@pytest.fixture(scope="module")
def cli_doc() -> str:
    return (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")


def test_cli_doc_names_every_subcommand(cli_doc):
    missing = [command for command, _ in _subcommand_tree(build_parser())
               if f"`{command}`" not in cli_doc]
    assert not missing, f"docs/cli.md does not mention: {missing}"


def test_cli_doc_names_every_long_flag(cli_doc):
    missing = []
    for command, sub in _subcommand_tree(build_parser()):
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                if option.startswith("--") and option not in cli_doc:
                    missing.append(f"{command} {option}")
    assert not missing, f"docs/cli.md does not mention: {sorted(set(missing))}"


def test_cli_doc_names_only_live_commands(cli_doc):
    root, stale = build_parser(), []
    for words in _COMMAND.findall(cli_doc):
        parser = root
        for word in words.split():
            choices = next((action.choices for action in parser._actions
                            if isinstance(action, argparse._SubParsersAction)),
                           None)
            if choices is None:
                break  # a leaf command: the remaining words are arguments
            if word not in choices:
                stale.append(f"repro{words}")
                break
            parser = choices[word]
    assert not stale, \
        f"docs/cli.md names commands that do not exist: {sorted(set(stale))}"


def test_cli_doc_names_only_live_flags(cli_doc):
    root = build_parser()
    parsers = [root, *(sub for _, sub in _subcommand_tree(root))]
    live = {option for parser in parsers for action in parser._actions
            for option in action.option_strings}
    stale = sorted(set(_FLAG.findall(cli_doc)) - live - set(FOREIGN_FLAGS))
    assert not stale, f"docs/cli.md names flags no parser defines: {stale}"


# The latency target the observability doc's burn-rate example uses.
DOC_EXAMPLE_TARGET_SECONDS = 0.050


def test_observability_doc_names_the_exported_slo_bucket():
    """The burn-rate recipe's ``le`` is the bucket edge ``/metrics`` exports
    at or under the doc's 50 ms example target, spelled as rendered."""
    from bisect import bisect_right

    from repro.obs.prometheus import format_le
    from repro.serving.metrics import LATENCY_BUCKETS

    edge = LATENCY_BUCKETS[bisect_right(LATENCY_BUCKETS,
                                        DOC_EXAMPLE_TARGET_SECONDS) - 1]
    doc = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    assert f'le="{format_le(edge)}"' in doc


@pytest.mark.parametrize("page", ["cli.md", "graph-updates.md"])
def test_docs_state_the_sampling_limit(page):
    """The per-update cap on server-sampled edges is stated as the store
    enforces it."""
    from repro.serving.graphstore import MAX_SAMPLED_EDGES

    doc = " ".join((REPO_ROOT / "docs" / page).read_text(
        encoding="utf-8").split())
    assert f"One update samples at most {MAX_SAMPLED_EDGES} edges, " \
        "inserts and deletes together" in doc


def test_readme_links_into_docs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/serving.md", "docs/cli.md"):
        assert page in readme, f"README.md quickstart must link {page}"
