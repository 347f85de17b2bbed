"""CI installs the package and runs pytest and the benchmark harness, nothing else.

A shell assertion in the workflow (a ``cmp``, a ``grep`` count, a ``test``)
runs only where CI runs, and no session can run it by hand; its check belongs
in a pytest module that any checkout runs with one command (see README, Checks).
"""

import os
import re

import pytest

WORKFLOW = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tier1.yml")

# The whole of every command a run step may hold.
ALLOWED = (
    re.compile(r'python -m pip install "\.\[test\]"'),
    re.compile(r"(?:\w+=\S+ )*python -m pytest(?: [\w./=:-]+)*"),
    re.compile(r"python3 perfbench/run\.py(?: [\w./=-]+)*"),
)
REFUSED_WORDS = {"cmp", "sed", "grep", "test", "/usr/bin/time", "apt-get"}


def run_commands(workflow: str):
    """(line number, command) of each ``run:`` value, one per line of a block value."""
    lines = workflow.splitlines()
    for k, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run:\s*(.*?)\s*$", line)
        if not match:
            continue
        if not re.fullmatch(r"[|>][+-]?", match[2]):
            yield k + 1, match[2]
            continue
        for j in range(k + 1, len(lines)):
            command = lines[j].strip()
            if command and len(lines[j]) - len(lines[j].lstrip()) <= len(match[1]):
                break
            if command:
                yield j + 1, command


def shell_assertions(workflow: str):
    """(line number, command) of each run command that is not one ALLOWED whole, or that names a REFUSED_WORDS word."""
    for number, command in run_commands(workflow):
        words = set(re.split(r"[\s;&|()`$\"']+", command))
        if words & REFUSED_WORDS or not any(pattern.fullmatch(command) for pattern in ALLOWED):
            yield number, command


def test_workflow_holds_no_shell_assertion():
    with open(WORKFLOW, encoding="utf-8") as fh:
        workflow = fh.read()
    assert len(list(run_commands(workflow))) >= 3
    assert list(shell_assertions(workflow)) == []


@pytest.mark.parametrize(
    "step, found",
    [
        ("      - run: cmp out/a/model.txt out/b/model.txt\n", [(1, "cmp out/a/model.txt out/b/model.txt")]),
        ("      - run: python -m pytest -q && cmp a b\n", [(1, "python -m pytest -q && cmp a b")]),
        (
            "      - name: rerun\n        run: |\n          python -m pytest -q\n\n"
            "          test \"$(grep -c 'up to date' rerun.txt)\" -eq 5\n"
            "      - name: next\n        run: python -m pytest\n",
            [(5, "test \"$(grep -c 'up to date' rerun.txt)\" -eq 5")],
        ),
        ("        run: command -v /usr/bin/time || sudo apt-get install -y time\n",
         [(1, "command -v /usr/bin/time || sudo apt-get install -y time")]),
        ("        run: >-\n          OPENBLAS_CORETYPE=Prescott feeder-nilm pipeline --out out/p\n",
         [(2, "OPENBLAS_CORETYPE=Prescott feeder-nilm pipeline --out out/p")]),
        ('        run: PYTHONPATH=src python -m pytest -q checks\n        run: python -m pip install ".[test]"\n', []),
    ],
    ids=["cmp", "pytest-then-cmp", "block", "time-install", "folded-cli-run", "allowed"],
)
def test_shell_assertions_are_found(step, found):
    assert list(shell_assertions(step)) == found
