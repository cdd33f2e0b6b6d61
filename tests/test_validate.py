"""The self-validation suites on a fresh build."""

import hashlib

import numpy as np
import pytest

from bohmsim.model import NodeError
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import (SUITES, check_backend_equivalence, random_configurations,
                              run_validation)


def test_all_suites_pass_on_fresh_build():
    results = run_validation()
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert {r.name for r in results} == set(SUITES)


def test_only_filter():
    results = run_validation(only="mirror-symmetry")
    assert len(results) == 1
    assert results[0].name == "mirror-symmetry"
    with pytest.raises(ValueError):
        run_validation(only="nonexistent")


def test_crashing_suite_reports_failure(monkeypatch):
    def boom():
        raise RuntimeError("broken fixture")

    monkeypatch.setitem(SUITES, "tau-scaling", boom)
    results = run_validation(only="tau-scaling")
    assert not results[0].passed
    assert "broken fixture" in results[0].detail


def test_backend_equivalence_fails_when_every_comparison_raises():
    # its configurations keep rho_hat >= 1e-6, so a NodeError is a failure, not a skip
    def at_a_node(cfg, params):
        raise NodeError(0.0)

    ok, detail = check_backend_equivalence(count=20, analytic_fn=at_a_node)
    assert not ok
    assert "over 0 configurations, 60 raised NodeError" in detail


def test_backend_equivalence_reports_the_configurations_compared():
    ok, detail = check_backend_equivalence(count=20)
    assert ok, detail
    assert "over 60 configurations, 0 raised NodeError" in detail


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
