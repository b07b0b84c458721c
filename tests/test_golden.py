"""Every command of the golden CLI battery prints and writes what it did when the goldens were made.

See ``tests/_golden.py`` for the battery and the comparison rules, and
``tests/golden/regenerate.py`` to rewrite the goldens after a change that is
meant to alter an output.
"""

import pytest

from _golden import BATTERY, differences, load_goldens, run_battery

CASES = [case for case, _, _ in BATTERY]


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """``(fresh results and files, golden results and files)``; the battery runs once."""
    return run_battery(tmp_path_factory.mktemp("golden")), load_goldens()


def test_goldens_cover_the_battery(battery):
    (results, files), (want_results, want_files) = battery
    assert list(want_results) == CASES
    assert sorted(files) == sorted(want_files)


@pytest.mark.parametrize("case", CASES)
def test_command_matches_golden(battery, case):
    (results, files), (want_results, want_files) = battery
    got, want = results[case], want_results[case]
    assert got["argv"] == want["argv"]
    assert (got["exit_code"], got["stdout"], got["stderr"]) == (
        want["exit_code"], want["stdout"], want["stderr"]
    )
    outputs = next(outs for name, _, outs in BATTERY if name == case)
    for name in sorted(files):
        if any(name == out or name.startswith(out + "/") for out in outputs):
            assert name in want_files, f"{name}: no golden"
            assert differences(name, want_files[name], files[name]) is None
