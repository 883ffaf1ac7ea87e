from pathlib import Path

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
