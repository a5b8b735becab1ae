import dataclasses
import itertools
import statistics

import numpy as np
import pytest

from dense_reference import equation_residual, family, identity_probes, sync_by_variable
from lsgame import (
    DomainError,
    PerturbationSpec,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    certify,
    correlation_distance,
    embedded_chsh_value,
    fit_bound,
    generate_correlation,
    ls_winning_probability_from_correlation,
    make_params,
    perturb_strategy,
    records_to_csv,
    relation_residuals,
    run_sweep,
    selftest_report,
)
from lsgame.linalg import Basis, eye, rotate_bases
from lsgame.robustness import GENERATOR_BLOCK, KINDS, RESIDUAL_LABELS, SweepRecord
from lsgame.strategy import COMM_GENS, Strategy, var_label

#: the sweep CSV header exactly as README.md documents it
README_SWEEP_HEADER = (
    "d,r,kind,delta,seed,epsilon,dist_psi,dist_OA,dist_OB,dist_UA,dist_UB,"
    "dist_M1,dist_M2,dist_N1,dist_N2,junk_norm,res_sync,res_equation,"
    "res_conjugacy,res_psi1_norm,res_eig_bob,res_eig_alice,res_comm"
)


def ideal_setup(d):
    p = make_params(d)
    rep = build_representation(p)
    test = build_full_test(p)
    strat = build_ideal_strategy(p, rep, test)
    return p, test, strat, generate_correlation(strat, test)


def test_spec_validation():
    with pytest.raises(DomainError):
        PerturbationSpec("melt", 0.1, 0)
    with pytest.raises(DomainError):
        PerturbationSpec("state", 0.9, 0)
    with pytest.raises(DomainError):
        PerturbationSpec("state", -0.1, 0)
    with pytest.raises(DomainError, match="seed"):
        PerturbationSpec("state", 0.1, -1)


def test_zero_magnitude_is_identity():
    _, test, strat, corr = ideal_setup(3)
    copy = perturb_strategy(strat, PerturbationSpec("both", 0.0, 5))
    assert np.array_equal(copy.state, strat.state)
    for q in strat.alice:
        assert np.array_equal(copy.alice[q].vectors, strat.alice[q].vectors)
        assert np.array_equal(copy.alice[q].outcomes, strat.alice[q].outcomes)
    assert correlation_distance(generate_correlation(copy, test), corr) == 0.0


def test_families_read_only_and_shared_when_not_rotated():
    _, test, strat, _ = ideal_setup(3)
    for bases in (strat.alice, strat.bob):
        for q, basis in bases.items():
            assert isinstance(basis, Basis) and basis.vectors.ndim == 2, q
            assert not basis.vectors.flags.writeable, q
    # at magnitude 0 the input itself comes back, bases, state and memos
    assert perturb_strategy(strat, PerturbationSpec("both", 0.0, 5)) is strat
    copy = perturb_strategy(strat, PerturbationSpec("state", 1e-3, 5))
    assert copy.state is not strat.state
    for q in strat.alice:
        assert copy.alice[q] is strat.alice[q], q
    for q in strat.bob:
        assert copy.bob[q] is strat.bob[q], q
    rotated = perturb_strategy(strat, PerturbationSpec("rotate", 1e-3, 5))
    for q, basis in rotated.alice.items():
        assert basis is not strat.alice[q] and not basis.vectors.flags.writeable, q
        assert np.array_equal(basis.outcomes, strat.alice[q].outcomes), q


@pytest.mark.parametrize("kind", ["rotate", "both"])
def test_rotated_bases_keep_the_outcome_matrices(kind):
    # a rotation moves the vectors only: each rotated basis carries the
    # input's outcome matrix object, not a copy
    _, test, strat, _ = ideal_setup(3)
    moved = perturb_strategy(strat, PerturbationSpec(kind, 1e-2, 5))
    for party, answers in (("A", test.alice_answers), ("B", test.bob_answers)):
        for q in answers:
            basis, before = moved.basis(party, q), strat.basis(party, q)
            assert basis.vectors is not before.vectors, (party, q)
            assert basis.outcomes is before.outcomes, (party, q)


def test_generated_tables_read_only():
    # a memoized correlation is read by every record that shares its strategy,
    # delta-0 records included: a write into one of its tables must fail
    _, test, strat, _ = ideal_setup(3)
    memo = strat.correlation()
    assert not any(table.flags.writeable for table in memo.entries.values())
    with pytest.raises(ValueError, match="read-only"):
        memo.entries[test.support[0]][0, 0] += 0.5
    record = certify(strat, generate_correlation(strat, test), PerturbationSpec("both", 0.0, 1))
    assert record.epsilon == 0.0


def test_same_seed_reproduces():
    _, test, strat, _ = ideal_setup(3)
    spec = PerturbationSpec("both", 1e-3, 77)
    one = perturb_strategy(strat, spec)
    two = perturb_strategy(strat, spec)
    assert np.array_equal(one.state, two.state)
    for q in one.alice:
        assert np.array_equal(one.alice[q].vectors, two.alice[q].vectors)
    other = perturb_strategy(strat, PerturbationSpec("both", 1e-3, 78))
    assert not np.array_equal(other.state, one.state)


def test_rotations_preserve_families_exactly():
    _, test, strat, _ = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("rotate", 0.05, 3))
    for party, answers in (("A", test.alice_answers), ("B", test.bob_answers)):
        for q in answers:
            fam = family(pert, party, q)
            total = sum(fam)
            np.testing.assert_allclose(total, np.eye(total.shape[0]), atol=1e-12)
            for i, pi in enumerate(fam):
                np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
                for pj in fam[i + 1 :]:
                    np.testing.assert_allclose(pi @ pj, np.zeros_like(pi), atol=1e-12)


def reference_perturbation(ideal, spec):
    """perturb_strategy as one generator at a time, on dense projector
    stacks: per question, draw a random Hermitian matrix, scale it to unit
    operator norm with an SVD, exponentiate it with its own
    eigendecomposition and conjugate each projector, u P u^H."""
    rng = np.random.default_rng(spec.seed)
    state = ideal.state.copy()
    alice = {q: family(ideal, "A", q) for q in ideal.alice}
    bob = {q: family(ideal, "B", q) for q in ideal.bob}
    if spec.kind in ("rotate", "both"):
        for fams, answers, dim in (
            (alice, ideal.test.alice_answers, state.shape[0]),
            (bob, ideal.test.bob_answers, state.shape[1]),
        ):
            for q in answers:
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                h = (g + g.conj().T) / 2
                h = h / np.linalg.norm(h, 2)
                vals, vecs = np.linalg.eigh(h)
                u = (vecs * np.exp(1j * spec.magnitude * vals)) @ vecs.conj().T
                fams[q] = u @ fams[q] @ u.conj().T
    if spec.kind in ("state", "both"):
        g = rng.standard_normal(state.size) + 1j * rng.standard_normal(state.size)
        state = state + spec.magnitude * g.reshape(state.shape) / np.linalg.norm(g)
        state /= np.linalg.norm(state)
    return state, alice, bob


@pytest.mark.parametrize("d", [3, 7])
@pytest.mark.parametrize("kind", ["rotate", "both"])
@pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.5])
def test_perturbation_matches_per_question_reference(d, kind, delta):
    # the batched draws consume the same rng stream: the state noise drawn
    # after the rotations agrees to the last bits
    _, test, strat, _ = ideal_setup(d)
    spec = PerturbationSpec(kind, delta, 29)
    pert = perturb_strategy(strat, spec)
    state, alice, bob = reference_perturbation(strat, spec)
    assert np.max(np.abs(pert.state - state)) <= 1e-15
    for party, got, want in (("A", pert.alice, alice), ("B", pert.bob, bob)):
        assert list(got) == list(want)
        for q in want:
            assert np.max(np.abs(family(pert, party, q) - want[q])) <= 1e-13, q


@pytest.mark.parametrize("d", [3, 5])
def test_rotation_rng_stream(d):
    # a "both" record draws 2 n^2 normals per rotated question, Alice's
    # questions then Bob's, and then the state noise: replaying the stream
    # with those draws skipped gives its state exactly
    _, test, strat, _ = ideal_setup(d)
    spec = PerturbationSpec("both", 1e-3, 41)
    pert = perturb_strategy(strat, spec)
    rng = np.random.default_rng(spec.seed)
    n_a, n_b = strat.state.shape
    rng.standard_normal(2 * n_a**2 * len(test.alice_answers))
    rng.standard_normal(2 * n_b**2 * len(test.bob_answers))
    g = rng.standard_normal(strat.state.size) + 1j * rng.standard_normal(strat.state.size)
    state = strat.state + spec.magnitude * (g.reshape(strat.state.shape) / np.linalg.norm(g))
    state /= np.linalg.norm(state)
    assert np.array_equal(pert.state, state)


def test_rotation_forms_no_eigenvectors(monkeypatch):
    # the rotation needs each generator's scale, not its eigenvectors: one
    # eigvalsh per block of GENERATOR_BLOCK questions and no eigh
    _, test, strat, _ = ideal_setup(3)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh was called"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(len(h)) or real(h))
    perturb_strategy(strat, PerturbationSpec("rotate", 1e-3, 5))
    assert sum(calls) == len(test.alice_answers) + len(test.bob_answers)
    assert max(calls) <= GENERATOR_BLOCK


def test_state_noise_epsilon_envelope():
    # expected L1 distance is bounded by 4*delta up to second order
    _, test, strat, corr = ideal_setup(3)
    for delta in (1e-4, 1e-3):
        pert = perturb_strategy(strat, PerturbationSpec("state", delta, 11))
        eps = correlation_distance(generate_correlation(pert, test), corr)
        assert 0 < eps <= 4 * delta + 50 * delta**2


def test_residuals_ideal():
    for d in (3, 5):
        _, test, strat, _ = ideal_setup(d)
        res = relation_residuals(strat)
        assert set(res) == set(RESIDUAL_LABELS)
        for label, value in res.items():
            assert value <= 1e-9, (d, label, value)


def test_psi1_norm_value_d5():
    _, test, strat, _ = ideal_setup(5)
    res = relation_residuals(strat)
    # ||psi_1||^2 = 1/(d-1) = 0.25 at d=5; the residual is the deviation
    assert res["psi1_norm"] <= 1e-9


def test_residuals_positive_when_perturbed():
    _, test, strat, _ = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("rotate", 1e-2, 21))
    res = relation_residuals(pert)
    for label, value in res.items():
        assert np.isfinite(value)
        assert value > 0, label


def test_sweep_zero_magnitude():
    _, test, strat, corr = ideal_setup(3)
    records = run_sweep(strat, corr, [0.0], 2, ("both",), base_seed=4)
    for rec in records:
        assert rec.epsilon == 0.0
        assert max(rec.distances.values()) <= 1e-8


def test_sweep_median_monotone():
    _, test, strat, corr = ideal_setup(3)
    records = run_sweep(strat, corr, [1e-4, 1e-3, 1e-2], 4, ("both",), base_seed=1)
    medians = []
    for delta in (1e-4, 1e-3, 1e-2):
        eps = [rec.epsilon for rec in records if rec.delta == delta]
        assert len(eps) == 4
        medians.append(statistics.median(eps))
    assert medians[0] < medians[1] < medians[2]


def test_sweep_deterministic_csv():
    _, test, strat, corr = ideal_setup(3)
    one = records_to_csv(run_sweep(strat, corr, [1e-3], 2, ("state",), base_seed=2))
    two = records_to_csv(run_sweep(strat, corr, [1e-3], 2, ("state",), base_seed=2))
    assert one == two
    assert one.splitlines()[0] == README_SWEEP_HEADER


def _fake_record(eps, dist):
    distances = {k: dist for k in ("psi", "OA_psi", "OB_psi", "UA_psi", "UB_psi", "M1_psi", "M2_psi", "N1_psi", "N2_psi")}
    residuals = {k: 0.0 for k in RESIDUAL_LABELS}
    return SweepRecord(3, 2, "both", 0.0, 0, eps, distances, 1.0, residuals)


def test_fit_bound_synthetic():
    records = [_fake_record(eps, 2 * eps**0.125) for eps in (1e-6, 1e-4, 1e-2)]
    records += [dataclasses.replace(rec, seed=1) for rec in records]
    fit = fit_bound(records)
    assert abs(fit["exponent_fit"] - 0.125) <= 1e-6
    assert abs(fit["C_fit"] - 2.0) <= 1e-9
    assert fit["violations"] == 0
    assert (fit["n_fit"], fit["n_held_out"]) == (3, 3)


def test_fit_bound_checks_held_out_seeds():
    # C_fit comes from the even seeds alone; an odd-seed record above the
    # envelope is a violation, one below it is not
    records = [_fake_record(eps, 2 * eps**0.125) for eps in (1e-6, 1e-4, 1e-2)]
    above = dataclasses.replace(_fake_record(1e-3, 3 * 1e-3**0.125), seed=1)
    below = dataclasses.replace(_fake_record(1e-5, 1 * 1e-5**0.125), seed=3)
    fit = fit_bound(records + [above, below])
    assert abs(fit["C_fit"] - 2.0) <= 1e-9
    assert (fit["violations"], fit["n_fit"], fit["n_held_out"], fit["n_points"]) == (1, 3, 2, 5)
    assert fit_bound(records + [below])["violations"] == 0
    # without odd-seed records nothing is held out, and nothing is counted
    assert (fit_bound(records)["violations"], fit_bound(records)["n_held_out"]) == (None, 0)


def test_sweep_resource_guard(monkeypatch):
    import lsgame.isometry as iso

    _, test, strat, corr = ideal_setup(3)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    with pytest.raises(iso.ResourceError):
        run_sweep(strat, corr, [1e-3], 1, ("state",), base_seed=0)


def test_fit_bound_needs_spread():
    with pytest.raises(DomainError):
        fit_bound([_fake_record(0.0, 0.0)] * 5)
    with pytest.raises(DomainError):
        fit_bound([_fake_record(1e-3, 0.1)] * 5)


def test_each_observable_derived_once(monkeypatch):
    # selftest_report and relation_residuals read one table per set of bases,
    # so no (party, name) entry, Alice's equation marginals included, is
    # derived twice, U is formed from its factors' readouts with no a3 or a4
    # entry, and a state record derives nothing the ideal holds
    p, test, strat, corr = ideal_setup(3)
    ideal_a3 = strat.observable("A", "a3")  # a marginal: Alice has no x(a3)
    pert = perturb_strategy(strat, PerturbationSpec("rotate", 1e-3, 2))
    derived = []
    real = Strategy.derived

    def spy(self, derive, *args):
        if (derive, *args) not in self._by_bases:
            derived.append((derive.__name__, *args))
        return real(self, derive, *args)

    monkeypatch.setattr(Strategy, "derived", spy)
    selftest_report(pert)
    relation_residuals(pert)
    assert ("_observable", "A", "U") in derived and ("_stage2_factors", "B") in derived
    assert not [key for key in derived if key[0] == "_observable" and key[2] in ("a3", "a4")]
    assert ("_left_out_roots", 1) in derived
    assert len(derived) == len(set(derived)), sorted(k for k in set(derived) if derived.count(k) > 1)
    # the rotated copy has its own table, not the ideal's entries
    assert np.linalg.norm(pert.observable("A", "a3") - ideal_a3) > 1e-6

    selftest_report(strat)
    relation_residuals(strat)
    derived.clear()
    noisy = perturb_strategy(strat, PerturbationSpec("state", 1e-3, 2))
    selftest_report(noisy)
    relation_residuals(noisy)
    assert derived == []

    # on a fresh ideal, the first state record derives the ladders and the
    # residual operators into the ideal's table; a second state record and
    # a delta-0 record then derive nothing
    fresh = build_ideal_strategy(p, build_representation(p), test)
    certify(fresh, corr, PerturbationSpec("state", 1e-3, 3))
    assert ("_gram_ladders", "A") in derived and ("_residual_operators",) in derived
    assert len(derived) == len(set(derived)), sorted(k for k in set(derived) if derived.count(k) > 1)
    derived.clear()
    certify(fresh, corr, PerturbationSpec("state", 1e-3, 4))
    certify(fresh, corr, PerturbationSpec("both", 0.0, 0))
    assert derived == []


def test_basis_memo_shared_only_by_unrotated_copies():
    # what the bases determine belongs to the bases: a copy that keeps them
    # (state noise, or no perturbation) reads the ideal's table, any other
    # copy starts its own; a state-noise copy does not share the ideal's
    # correlation, and at magnitude 0 the ideal itself, correlation and
    # all, comes back
    _, test, strat, _ = ideal_setup(3)
    ideal_o = strat.observable("A", "O")
    for spec in [PerturbationSpec("state", 1e-3, 5)] + [PerturbationSpec(kind, 0.0, 5) for kind in KINDS]:
        copy = perturb_strategy(strat, spec)
        assert copy.observable("A", "O") is ideal_o, spec
        assert (copy.correlation() is strat.correlation()) == (spec.magnitude == 0), spec
    fresh = [perturb_strategy(strat, PerturbationSpec(kind, 1e-3, 5)) for kind in ("rotate", "both")]
    fresh += [dataclasses.replace(strat, alice=dict(strat.alice)), dataclasses.replace(strat)]
    for copy in fresh:
        assert copy.observable("A", "O") is not ideal_o


@pytest.mark.parametrize("kind", KINDS)
def test_shared_memo_gives_bit_identical_outputs(kind):
    # a record read through the ideal's filled table and a copy that derives
    # everything anew agree to the last bit.  A copy that keeps the ideal's
    # bases is rebuilt on a fresh ideal, whose memo holds only the seeded
    # stage-one columns; a dataclasses.replace copy of it would read all
    # columns, which test_thin_and_dense_ladders_agree compares
    p, test, strat, corr = ideal_setup(5)
    selftest_report(strat)
    relation_residuals(strat)
    for delta in (0.0, 1e-3):
        pert = perturb_strategy(strat, PerturbationSpec(kind, delta, 8))
        if kind == "state" or delta == 0:
            fresh = build_ideal_strategy(p, build_representation(p), test).with_state(pert.state)
        else:
            fresh = dataclasses.replace(pert)
        assert selftest_report(pert) == selftest_report(fresh), delta
        assert correlation_distance(pert.correlation(), corr) == correlation_distance(fresh.correlation(), corr), delta
        assert relation_residuals(pert) == relation_residuals(fresh), delta


@pytest.mark.parametrize("d", [3, 5, 7])
def test_sync_and_equation_match_dense_reference(d):
    # sync read off the correlation as 2 sqrt(P(a != b)), equation applied
    # factor by factor in each basis, and the other five probes each applying
    # one operator formed from the bases, against formed observables with
    # each term applied to the state on its own.  Absolute, not relative:
    # psi1_norm is a difference of squares, whose relative error near 1e-10
    # reaches 1e-7
    _, test, strat, _ = ideal_setup(d)
    for kind in KINDS:
        for delta in (0.0, 1e-4, 1e-2):
            pert = perturb_strategy(strat, PerturbationSpec(kind, delta, 31))
            res = relation_residuals(pert)
            assert abs(res["sync"] - max(sync_by_variable(pert).values())) <= 1e-15, (kind, delta)
            assert abs(res["equation"] - equation_residual(pert)) <= 1e-15, (kind, delta)
            for label, value in identity_probes(pert).items():
                assert abs(res[label] - value) <= 1e-15, (kind, delta, label, res[label], value)


@pytest.mark.parametrize("d", [3, 7, 13])
def test_state_noise_leaves_the_operator_identities(d):
    # conjugacy, eig_alice, comm and equation test identities between
    # operators that state noise leaves alone: they stay at rounding level,
    # while sync, eig_bob and psi1_norm, which ask something of the state,
    # move with it
    _, _, strat, _ = ideal_setup(d)
    for delta in (1e-4, 1e-2):
        for seed in range(4):
            res = relation_residuals(perturb_strategy(strat, PerturbationSpec("state", delta, seed)))
            for label in ("conjugacy", "eig_alice", "comm", "equation"):
                assert res[label] <= 1e-13, (delta, seed, label, res[label])
            for label in ("sync", "eig_bob", "psi1_norm"):
                assert res[label] >= 1e-8, (delta, seed, label, res[label])


@pytest.mark.parametrize("gen", COMM_GENS)
def test_sync_outside_the_support(gen):
    # (x(gen), x(gen)) is not a support pair: rotating Bob's x(gen) alone
    # puts sync's maximum on the pair that relation_residuals contracts itself
    _, test, strat, _ = ideal_setup(5)
    q = var_label(gen)
    assert (q, q) not in test.support
    u = rotate_bases(np.random.default_rng(3), eye(strat.state.shape[1])[None], 1e-2)[0]
    moved = dataclasses.replace(strat, bob={**strat.bob, q: Basis(u @ strat.bob[q].vectors, strat.bob[q].outcomes)})
    by_var = sync_by_variable(moved)
    assert max(by_var, key=by_var.get) == gen
    assert abs(relation_residuals(moved)["sync"] - by_var[gen]) <= 1e-15


def poisoned(strat, party, question):
    """strat with row 0 of one party's basis for question set to NaN."""
    bases = dict(strat.alice if party == "A" else strat.bob)
    vectors = bases[question].vectors.copy()
    vectors[0, :] = np.nan
    bases[question] = Basis(vectors, bases[question].outcomes)
    alice, bob = (bases, strat.bob) if party == "A" else (strat.alice, bases)
    return Strategy(strat.params, strat.test, strat.state, alice, bob)


@pytest.mark.parametrize(
    "party, question, key",
    [("B", var_label("a5"), "sync"), ("A", "I1", "equation"), ("A", var_label("g2"), "comm")],
)
def test_residual_maxima_keep_a_nan(party, question, key):
    # a NaN term used to vanish in max(acc, x) unless it came first: with a
    # NaN row in Bob's x(a5), sync read 3.9e-15
    _, _, strat, _ = ideal_setup(3)
    res = relation_residuals(poisoned(strat, party, question))
    assert np.isnan(res[key]), res


def test_certify_is_run_sweeps_record():
    # the record run_sweep appends is the one certify makes for its spec
    _, _, strat, corr = ideal_setup(3)
    for kind in KINDS:
        swept = run_sweep(strat, corr, [1e-3], 1, (kind,), base_seed=2)
        assert len(swept) == 1
        assert certify(strat, corr, PerturbationSpec(kind, 1e-3, swept[0].seed)) == swept[0], kind


NAN = float("nan")


@pytest.mark.parametrize(
    "seed, epsilon, dist",
    [
        # an even-seed NaN distance made C_fit NaN, after which no held-out
        # record, not even the one at distance 100, counted as a violation
        pytest.param(4, 1e-3, NAN, id="fit-distance"),
        # a NaN held-out distance was not counted as a violation
        pytest.param(5, 1e-3, NAN, id="held-out-distance"),
        # a NaN epsilon was dropped by epsilon > 0, and its violation with it
        pytest.param(5, NAN, 100.0, id="epsilon"),
    ],
)
def test_fit_bound_refuses_non_finite_records(seed, epsilon, dist):
    records = [_fake_record(eps, 0.5 * eps**0.125) for eps in (1e-6, 1e-4, 1e-2)]
    records += [dataclasses.replace(rec, seed=1) for rec in records]
    assert fit_bound(records)["C_fit"] == pytest.approx(0.5)
    bad = dataclasses.replace(_fake_record(epsilon, dist), kind="rotate", delta=1e-3, seed=seed)
    violation = dataclasses.replace(_fake_record(1e-2, 100.0), seed=7)
    with pytest.raises(DomainError, match=rf"record \(rotate, delta=0\.001, seed={seed}\)"):
        fit_bound(records + [bad, violation])


def _ideal_family_member(d):
    p = make_params(d)
    return build_ideal_strategy(p, build_representation(p), build_full_test(p))


@pytest.mark.parametrize("d, d_other", [(13, 11), (11, 13), (5, 3), (29, 19), (31, 17)])
def test_other_ideal_of_the_family_is_far(d, d_other):
    # the (d', r) ideal is a valid strategy for the (d, r) test, since the
    # test depends on r alone: it wins the LS block outright, yet it is far
    # from the (d, r) ideal, so both epsilon and every distance must stay
    # large; measured, epsilon runs from 9.4e-3 to 0.142, the smallest
    # distance is 0.877 and dist_psi / epsilon^(1/8) runs from 1.12 to 1.68
    ideal, other = _ideal_family_member(d), _ideal_family_member(d_other)
    assert ideal.params.r == other.params.r and ideal.test == other.test
    control = Strategy(params=ideal.params, test=ideal.test, state=other.state, alice=other.alice, bob=other.bob)
    assert abs(ls_winning_probability_from_correlation(control.correlation(), ideal.test) - 1) <= 1e-12
    report = selftest_report(control)
    epsilon = correlation_distance(control.correlation(), ideal.correlation())
    assert epsilon >= 5e-3
    assert min(report.distances.values()) >= 0.5, report.distances
    assert report.distances["psi"] / epsilon**0.125 >= 0.9
    # its CHSH deficit is far from 0 too, and all of it is squares: the
    # other ideal's observables are binary; measured, 6.9e-3 to 0.29
    _, sos = embedded_chsh_value(control)
    assert sos["deficit"] >= 5e-3, sos
    assert abs(sos["remainder"]) <= 1e-12, sos


#: members of the family sharing a root r, whose ideals are compared in closed form
FAMILY = {2: (5, 11, 13, 19, 29), 3: (7, 17, 31)}


@pytest.fixture(scope="module")
def family_correlations():
    return {d: _ideal_family_member(d).correlation() for ds in FAMILY.values() for d in ds}


@pytest.mark.parametrize(
    "r, d, d_other", [(r, *pair) for r, ds in FAMILY.items() for pair in itertools.combinations(ds, 2)]
)
def test_family_distance_in_closed_form(r, d, d_other, family_correlations):
    # two ideals of one root share the test, and their tables move with
    # u = 1/(d-1) alone: the L1 gap of the LS, extension and commutation
    # blocks is 25.5, 86 and 64 times |u - u'|, so epsilon is
    # (25.5 + 86 + 64)/|S_r| |u - u'| = 351/(2|S_r|) |u - u'|
    corr, other = family_correlations[d], family_correlations[d_other]
    assert (corr.r, other.r) == (r, r)
    du = abs(1 / (d - 1) - 1 / (d_other - 1))
    support = list(corr.entries)
    assert len(support) == {2: 311, 3: 353}[r]
    assert correlation_distance(corr, other) == pytest.approx(351 / (2 * len(support)) * du, rel=1e-13, abs=0.0)
    n_ls = len(support) - 25 - 16  # the support lists the LS pairs, then 25 extension and 16 commutation pairs
    blocks = (support[:n_ls], support[n_ls:n_ls + 25], support[n_ls + 25:])
    for keys, factor in zip(blocks, (25.5, 86, 64)):
        gap = sum(float(np.abs(corr.entries[k] - other.entries[k]).sum()) for k in keys)
        assert gap == pytest.approx(factor * du, rel=5e-13, abs=0.0), (keys[0], factor)
