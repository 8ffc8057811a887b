"""``src_loc`` ratchet: the ROADMAP's tracked source-size metric.

``tests/golden/src_loc.txt`` holds the line count of ``src/**/*.py``
(what ``find src -name '*.py' | xargs cat | wc -l`` prints), so every
change to it shows up in the diff of the PR that caused it.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "src_loc.txt"


def _src_loc():
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with path.open(encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def test_src_loc_matches_the_recorded_number():
    recorded = int(GOLDEN.read_text(encoding="utf-8"))
    actual = _src_loc()
    assert actual == recorded, (
        "src/**/*.py is {} lines, tests/golden/src_loc.txt says {} "
        "({:+d}): write {} to that file and state the delta in "
        "CHANGES.md".format(actual, recorded, actual - recorded, actual)
    )
