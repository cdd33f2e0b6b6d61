"""The preset outputs against the committed golden record, ``tests/golden_presets.json``.

``scripts/run_figures.py --golden`` writes that record.  In the environment
it was made in (same numpy, BLAS, libc and machine), every preset's verdicts,
fractions, solver counts and CSV and SVG digests must match exactly.  Elsewhere
the bits may differ in the last place, so only the verdicts and fractions are
compared, and the test says so.  The five validate readings are compared where
their suites run: ``test_acceptance`` and ``test_validate``; the two gaps of the
tolerance-convergence gate in ``test_integrate``.
"""

from bohmsim.scenario import preset_names
from bohmsim.validate import SUITES

from conftest import GOLDEN, golden, run_figures


def verdicts(record: dict) -> tuple:
    return (record["classification"],
            [[traj[key] for key in run_figures.VERDICT_KEYS] for traj in record["trajectories"]])


def test_golden_record_covers_every_preset_and_suite():
    want, _ = golden()
    assert sorted(want["presets"]) == sorted(preset_names())
    assert sorted(want["validate"]) == sorted(SUITES)
    assert sorted(want["convergence_gaps"]) == sorted(run_figures.GATE_PRESETS)
    assert set(want["environment"]) == set(run_figures.environment())


def test_preset_outputs_match_the_golden_record(preset_runs):
    want, exact = golden()
    for name in preset_names():
        got = run_figures.preset_record(preset_runs / name)
        if exact:
            assert set(got) == set(want["presets"][name]), name
            for key, value in want["presets"][name].items():
                assert got[key] == value, f"{name}: {key}"
        else:
            assert verdicts(got) == verdicts(want["presets"][name]), name
    if not exact:
        print(f"environment differs from {GOLDEN.name}'s: compared verdicts and fractions only")
