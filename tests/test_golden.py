"""The output ledger's cheap slice: `verify` at seed 0 for every suite, and
every `control`, `simulate`, `drift` and `oracle` entry, keep the bytes and
exit codes that tests/golden.json records.  `python tests/golden.py --check`
runs every entry."""

import golden


def test_seed_zero_and_control_outputs_match_the_ledger():
    assert golden.moved(golden.compute(seeds=[0])) == []
