"""The mutant registry of tests/mutants.py is well formed at this tree.

No mutant runs here (python tests/mutants.py runs them).  The ids are
unique, every old snippet occurs exactly once in its file, every new
snippet differs from its old one, and every entry flagged equivalent
gives its reason.  So a change that leaves an entry stale fails here, and
that change re-targets or deletes the entry.
"""

from __future__ import annotations

from collections import Counter

from mutants import MUTANTS, stale_reason


def test_the_ids_are_unique():
    repeated = [i for i, count in Counter(m.id for m in MUTANTS).items() if count > 1]
    assert not repeated, repeated


def test_every_old_snippet_occurs_once_in_its_file():
    stale = {m.id: reason for m in MUTANTS if (reason := stale_reason(m)) is not None}
    assert not stale, stale


def test_every_entry_changes_its_snippet_and_says_why():
    for m in MUTANTS:
        assert m.new != m.old, m.id
        assert m.note.strip(), m.id
        assert m.equivalent is None or m.equivalent.strip(), m.id
