"""The seed ledger (``tests/seed_ledger.py``) is well formed and its entries do not overlap."""

from itertools import combinations

import pytest

from seed_ledger import KINDS, LEDGER, NAMESPACES, Seeds, held_out


def overlapping(entries):
    """The pairs of entries of one namespace whose ranges share a seed."""
    return [(a, b) for a, b in combinations(entries, 2)
            if a.namespace == b.namespace and a.first <= b.last and b.first <= a.last]


def test_no_two_entries_of_a_namespace_overlap():
    assert overlapping(LEDGER) == []


def test_the_overlap_check_finds_a_shared_seed():
    a, b, c = (Seeds("generators", 0, 9, ()), Seeds("generators", 9, 12, ()),
               Seeds("default_rng", 0, 9, ()))
    assert overlapping((a, b, c)) == [(a, b)]
    assert overlapping((a, c, Seeds("generators", 10, 12, ()))) == []


def test_every_entry_is_well_formed():
    for s in LEDGER:
        assert s.namespace in NAMESPACES
        assert 0 <= s.first <= s.last
        assert s.uses and all(kind in KINDS and what for kind, what in s.uses)


def test_held_out_reads_only_held_out_entries():
    assert 9140000 in held_out("SimConfig.seed", "tests/test_estimate.py::TestFitSymmetries::"
                                                 "test_default_fit_at_any_data_scale")
    with pytest.raises(KeyError):
        held_out("SimConfig.seed", "tests/test_acceptance.py, the acceptance criteria")
