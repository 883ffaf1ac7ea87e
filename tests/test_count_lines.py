from pathlib import Path

import count_lines
import gmmgen
from count_lines import KINDS, count


def test_each_module_counts_every_line_once():
    """count_lines gives every line of each src/gmmgen module one kind, so
    its four counts sum to the module's line count."""
    for path in sorted(Path(gmmgen.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = count(text)
        assert list(counts) == list(KINDS)
        assert sum(counts.values()) == len(text.splitlines()), path.name


def test_rev_adds_before_and_change_rows(monkeypatch, capsys):
    """With --rev every module gets the counts of the file the revision
    holds, zeros where it holds none, and their change; a module only the
    revision holds gets rows too, and the total sums them all."""
    held = {"src/gmmgen/bench.py": "x = 1\n\n", "src/gmmgen/gone.py": '"""doc"""\n'}

    def fake_git(*args):
        if args[0] == "ls-tree":
            return "\n".join([*held, "src/gmmgen/notes.txt"]) + "\n"
        if args[0] == "show":
            return held.get(args[1].removeprefix("REV:"))
        return "0" * 40 + "\n"  # rev-parse

    monkeypatch.setattr(count_lines, "git", fake_git)
    assert count_lines.main(["--rev", "REV"]) == 0
    rows, name = {}, None
    for line in capsys.readouterr().out.splitlines()[1:]:
        label, *values = line.split()
        if not line.startswith(" "):
            name = label
        rows[name, label] = [int(value) for value in values]
    now = count((Path(gmmgen.__file__).parent / "bench.py").read_text(encoding="utf-8"))
    assert rows["bench.py", "before"] == [1, 0, 0, 1, 2]
    assert rows["bench.py", "change"] == [now["code"] - 1, now["docstring"], now["comment"],
                                          now["blank"] - 1, sum(now.values()) - 2]
    assert rows["gone.py", "gone.py"] == [0, 0, 0, 0, 0]
    assert rows["gone.py", "change"] == [0, -1, 0, 0, -1]
    assert rows["data.py", "before"] == [0, 0, 0, 0, 0]
    assert rows["total", "before"] == [1, 1, 0, 1, 3]
    assert rows["total", "change"][-1] == rows["total", "total"][-1] - 3
    assert "notes.txt" not in {key[0] for key in rows}
