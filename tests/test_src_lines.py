import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_counter_prints_each_module_and_a_total():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(ROOT / "src" / "mmdseg")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    counts = {name: int(n) for n, name in (line.split() for line in out)}
    assert "cli.py" in counts and "evaluation.py" in counts
    assert counts["total"] == sum(n for name, n in counts.items() if name != "total") > 0


def test_docstrings_and_blank_lines_are_not_counted(tmp_path):
    (tmp_path / "m.py").write_text('"""Module\n\ndocstring."""\n\nx = 1  # a comment\n'
                                   '# a comment line\n\n\ndef f():\n    """One."""\n    return x\n')
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["    4  m.py", "    4  total"]
