"""The self-validation suites: dispatch, failure reporting and the oracles' inputs.

Each real suite runs once per session.  The acceptance gate runs
backend-equivalence, y-oracle, tau-scaling and mirror-symmetry (criteria 1,
4, 8 and 9); ``test_sqrtn_equivalence_suite_passes`` runs the fifth.  Each
compares its reading with ``tests/golden_presets.json``.  Each suite fixes
its inputs and tolerance in its own body and states them in its reading;
``CONTRACTS`` pins them there.  Here ``run_validation`` runs on stub suites,
after checking that ``SUITES`` names exactly those functions.
"""

import hashlib

import numpy as np
import pytest

from bohmsim._kernel import GuidanceKernel
from bohmsim.model import NodeError
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import (SUITES, check_backend_equivalence, check_mirror_symmetry,
                              check_sqrtn_equivalence, check_tau_scaling, check_y_oracle,
                              random_configurations, run_validation)

from conftest import check_golden_reading, golden

# each suite's function, and the inputs and tolerance fixed in its body, as its reading
# states them
CONTRACTS = {
    "backend-equivalence": (check_backend_equivalence,
                            ("over 3000 configurations, 0 raised NodeError", "tol 1e-06)")),
    "sqrtn-equivalence": (check_sqrtn_equivalence, ("over N=(1, 4, 9, 16) (tol 1e-05)",)),
    "y-oracle": (check_y_oracle, ("tol 1e-08)",)),
    "mirror-symmetry": (check_mirror_symmetry, ("over 9 pairs (tol 1e-07)",)),
    "tau-scaling": (check_tau_scaling, ("(expected -0.5 +/- 0.05)",)),
}


def stub_suites(monkeypatch) -> list[str]:
    """Replace every suite by one that passes at once; returns the names called, in order."""
    calls = []

    def stub(name):
        def run():
            calls.append(name)
            return True, f"{name} stub"
        return run

    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, stub(name))
    return calls


def test_validation_dispatches_to_the_contract_checks(monkeypatch):
    assert list(SUITES) == list(CONTRACTS)
    for name, (check, _) in CONTRACTS.items():
        assert SUITES[name] is check, name
    calls = stub_suites(monkeypatch)
    results = run_validation()
    assert calls == list(CONTRACTS)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, f"{name} stub") for name in CONTRACTS]
    assert all(r.elapsed_s >= 0.0 for r in results)


def test_golden_readings_state_the_contracts():
    # the live readings equal these wherever the golden bits hold (check_golden_reading)
    readings = golden()[0]["validate"]
    assert set(readings) == set(CONTRACTS)
    for name, (_, stated) in CONTRACTS.items():
        assert all(s in readings[name] for s in stated), name


def test_sqrtn_equivalence_suite_passes():
    ok, detail = check_sqrtn_equivalence()
    assert ok, detail
    check_golden_reading("sqrtn-equivalence", detail)


def test_only_filter(monkeypatch):
    calls = stub_suites(monkeypatch)
    results = run_validation(only="mirror-symmetry")
    assert [r.name for r in results] == calls == ["mirror-symmetry"]
    with pytest.raises(ValueError):
        run_validation(only="nonexistent")


def test_crashing_suite_reports_failure(monkeypatch):
    def boom():
        raise RuntimeError("broken fixture")

    monkeypatch.setitem(SUITES, "tau-scaling", boom)
    results = run_validation(only="tau-scaling")
    assert not results[0].passed
    assert "broken fixture" in results[0].detail


def test_backend_equivalence_fails_when_every_comparison_raises(monkeypatch):
    # its configurations keep rho_hat >= 1e-6, so a NodeError is a failure, not a skip
    def at_a_node(kern, t, state):
        raise NodeError(0.0)

    monkeypatch.setattr(GuidanceKernel, "velocity", at_a_node)
    ok, detail = check_backend_equivalence()
    assert not ok
    assert "over 0 configurations, 3000 raised NodeError" in detail


# blake2b digests of random_configurations for the four groups of the
# benchmark's velocity-oracle workload (preset, N, count), drawn from
# default_rng([seed, 3, group]) as the benchmark does, for seeds 7 and 23
ORACLE_GROUPS = (("fig2", 1, 25), ("fig3", 1, 25), ("fig4", 1, 25), ("fig4", 16, 25))
ORACLE_DIGESTS = {
    7: ("066f7194aa7e935907dbbcaef6da1f3f", "5bbda58aac901b817bfafd3609898860",
        "1f8c4cf661f3bc79dcbbbab79fda4a56", "4101c02d9bb13035c6019291e50144cd"),
    23: ("68e136f968c394ee2842c57da3ac0138", "492173a2668d42c7c4ec5a2a129fd6cc",
         "5644e9a5bba6e05ae2170183c2237b68", "0e2956a46a1ff7337397ae48fad2cf23"),
}


@pytest.mark.parametrize("seed", sorted(ORACLE_DIGESTS))
def test_oracle_configurations_are_pinned(seed):
    for group, (name, n, count) in enumerate(ORACLE_GROUPS):
        sc = preset(name)
        params = sc.params if n == sc.params.n_particles else with_n_particles(sc, n).params
        cfgs = random_configurations(params, count, np.random.default_rng([seed, 3, group]))
        h = hashlib.blake2b(digest_size=16)
        for c in cfgs:
            h.update(np.array([c.t_prime, c.x, c.y, *c.z], dtype=float).tobytes())
        assert h.hexdigest() == ORACLE_DIGESTS[seed][group], (name, n)
