"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import diracszego as dz
from diracszego import io
from diracszego.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = readme_block("Library quick start", "python")
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch):
    # the block's weyl line reads params.json, which no line before it writes
    monkeypatch.chdir(tmp_path)
    io.write_doc("params.json", io.bdt_params_to_doc(dz.example41_params(1.0, 1.0, 1.0)))
    lines = readme_block("Command-line interface", "sh").splitlines()
    assert len(lines) >= 7
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "diracszego"
        assert main(argv) == 0, line
