"""Every report is byte-identical to the golden ``report_hashes.txt``: its
lines are the output of ``report_hashes.py``, recomputed here in process."""

from itertools import zip_longest
from pathlib import Path

from report_hashes import ROOT, report_lines

GOLDEN = Path(__file__).with_name("report_hashes.txt")


def test_every_report_hash_matches_the_golden(monkeypatch):
    # an invariant report names its input path as given, relative to the root
    monkeypatch.chdir(ROOT)
    golden = GOLDEN.read_text().splitlines()
    for n, (want, have) in enumerate(zip_longest(golden, report_lines()), start=1):
        assert have == want, f"line {n} of {GOLDEN.name} differs"
