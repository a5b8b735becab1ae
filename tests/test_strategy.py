import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dense_reference import (
    closed_form_deviation,
    dense_table,
    family,
    ideal_table_values,
    joint_projector,
    observable_to_projectors,
    projectors,
)

import lsgame
from lsgame import (
    Correlation,
    PreconditionError,
    PerturbationSpec,
    StructuralError,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    generate_correlation,
    make_params,
    perturb_strategy,
    table_deviation,
)
from lsgame.linalg import Basis
from lsgame.lsg import LinearSystem
from lsgame.representation import Monomial, Rep, broken_key_relations, broken_relations, worst_gap
from lsgame.strategy import (
    _TRIPLES, COMM_GENS, comm_label, eq_label, equation_bases, ext_bases, ext_labels, v1_states, var_label,
)


def ideal_setup(d, r=None):
    p = make_params(d, r)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def test_support_structure():
    p = make_params(3)
    test = build_full_test(p)
    ext_questions = {*ext_labels(test.n_vars), var_label("a1"), var_label("a2")}
    ls_pairs = [xy for xy in test.support if xy[0].startswith("I")]
    ext_pairs = [xy for xy in test.support if xy[0] in ext_questions and xy[1] in ext_questions]
    comm_pairs = [xy for xy in test.support if xy[1].startswith("comm:")]
    assert len(ls_pairs) == 3 * 90
    assert len(ext_pairs) == 25
    assert len(comm_pairs) == 16
    assert len(test.support) == len(ls_pairs) + 25 + 16
    assert len(set(test.support)) == len(test.support)


def test_disjoint_blocks():
    p = make_params(3)
    test = build_full_test(p)
    # an equation question never pairs with a commutation double question
    for x, y in test.support:
        if x.startswith("I"):
            assert y.startswith("x(")
        if y.startswith("comm:"):
            assert not x.startswith("I")


def test_answer_alphabets():
    p = make_params(5)
    test = build_full_test(p)
    n = test.n_vars
    assert n == 107
    assert test.alice_answers["ext:0"] == (0, 2)
    assert test.alice_answers[var_label("a1")] == (0, 1)
    assert test.alice_answers[f"ext:{n + 1}"] == (0, 1, 2)
    assert test.bob_answers[f"comm:{n + 1},f0"] == tuple(
        (b1, b2) for b1 in (0, 1, 2) for b2 in (0, 1)
    )
    assert len(test.alice_answers[eq_label(0)]) == 8


def test_state_normalized():
    for d in (3, 5, 7):
        _, _, _, strat = ideal_setup(d)
        assert strat.state.shape == (4 * (d - 1), 4 * (d - 1))
        assert abs(np.linalg.norm(strat.state) - 1) < 1e-12


def test_question_order():
    # the answer tables' key order is the question order perturbations follow
    test = build_full_test(make_params(3))
    system = test.system
    n = system.n_vars
    comm = ("f0", "f2", "g0", "g2")
    assert list(test.alice_answers) == (
        [f"I{i + 1}" for i in range(system.n_rows)]
        + ["ext:0", "x(a1)", "x(a2)", f"ext:{n + 1}", f"ext:{n + 2}"]
        + [f"x({g})" for g in comm]
    )
    assert list(test.bob_answers) == (
        [f"x({g})" for g in system.variables]
        + ["ext:0", f"ext:{n + 1}", f"ext:{n + 2}"]
        + [f"comm:{k},{g}" for k in (n + 1, n + 2) for g in comm]
    )


@pytest.mark.parametrize("d", [3, 7])  # r = 2 and r = 3
def test_readout_table(d):
    # FullTest.readout has an entry for each party's every question and
    # every variable: an own question reads +1, -1, then 0 on further
    # answers, a variable read through its question reads the same, and a
    # variable Alice is not asked reads its bit in its first equation
    test = build_full_test(make_params(d))
    system = test.system
    want = {(party, name) for party, answers in (("A", test.alice_answers), ("B", test.bob_answers))
            for name in [*answers, *system.variables]}
    assert set(test.readout) == want
    for party, answers in (("A", test.alice_answers), ("B", test.bob_answers)):
        for q, outcomes in answers.items():
            assert test.readout[party, q] == (q, (1, -1) + (0,) * (len(outcomes) - 2)), (party, q)
        for g in system.variables:
            if var_label(g) in answers:
                assert test.readout[party, g] == test.readout[party, var_label(g)], (party, g)
    unasked = [g for g in system.variables if var_label(g) not in test.alice_answers]
    assert len(unasked) == system.n_vars - 6
    for g in unasked:
        row, pos = system.first_position[g]
        assert test.readout["A", g] == (eq_label(row), tuple((-1) ** t[pos] for t in _TRIPLES)), g


@pytest.mark.parametrize("party, name", [("A", "zzz"), ("B", "I1"), ("A", "comm:0,f0"), ("B", "O2")])
def test_observable_of_unknown_name(party, name):
    strat = ideal_setup(3)[3]
    with pytest.raises(StructuralError) as exc:
        strat.observable(party, name)
    assert str(exc.value) == f"{party} has no measurement for {name!r}"


@pytest.mark.parametrize("party", ["Alice", "a", "Bob", ""])
def test_basis_of_unknown_party(party):
    # Bob has a basis for every comm question and Alice has none: a party that
    # is not "A" must not fall through to Bob's bases
    strat = ideal_setup(3)[3]
    question = next(q for q in strat.bob if q.startswith("comm:"))
    with pytest.raises(StructuralError) as exc:
        strat.basis(party, question)
    assert str(exc.value) == f"no party {party!r}: the parties are 'A' and 'B'"


@pytest.mark.parametrize("party, question", [("A", "nope"), ("A", "comm:0,f0"), ("B", "I1")])
def test_basis_of_unknown_question(party, question):
    # a question the party is not asked is refused by name, not a KeyError:
    # Alice has no commutation question and Bob no equation
    strat = ideal_setup(3)[3]
    with pytest.raises(StructuralError) as exc:
        strat.basis(party, question)
    assert str(exc.value) == f"{party} has no measurement for {question!r}"


def test_measurement_families_complete():
    _, _, test, strat = ideal_setup(3)
    for party, answers in (("A", test.alice_answers), ("B", test.bob_answers)):
        for q in answers:
            fam = family(strat, party, q)
            total = sum(fam)
            np.testing.assert_allclose(total, np.eye(total.shape[0]), atol=1e-10, err_msg=f"{party} {q}")
            for i, pi in enumerate(fam):
                for j, pj in enumerate(fam):
                    want = pi if i == j else np.zeros_like(pi)
                    np.testing.assert_allclose(pi @ pj, want, atol=1e-10)


def test_observable_agreement_on_state():
    # M(s) N(s) |psi> = |psi> for every variable
    _, _, test, strat = ideal_setup(5)
    s = strat.state
    for gen in test.system.variables:
        m = strat.observable("A", gen)
        n = strat.observable("B", gen)
        assert np.linalg.norm(m @ s @ n.T - s) <= 1e-10, gen


def test_equation_observable_matches_representation():
    p, rep, test, strat = ideal_setup(3)
    # a3 has no standalone question for Alice; the equation-derived
    # observable must reproduce the representation image
    np.testing.assert_allclose(strat.observable("A", "a3"), rep["a3"].dense(), atol=1e-12)


def test_outcome2_projectors_vanish_at_d3():
    # span(x_1, x_2) is all of W_2: basis answer 2 has no columns, in the
    # extension questions (the last answer) and in the commutation questions
    # (the last two, (2, 0) and (2, 1))
    _, _, test, strat = ideal_setup(3)
    empty = {q: 1 for q in ext_labels(test.n_vars)}
    empty.update((comm_label(q, g), 2) for q in ext_labels(test.n_vars)[1:] for g in COMM_GENS)
    for q, k in empty.items():
        assert not strat.bob[q].outcomes[-k:].any(), q  # no columns
        assert np.linalg.norm(family(strat, "B", q)[-k:]) == 0.0, q


def test_one_basis_per_question():
    # a family is one n x n unitary with its outcome matrix, never a (k, n, n) stack
    _, _, test, strat = ideal_setup(5)
    n = strat.state.shape[0]
    rotated = perturb_strategy(strat, PerturbationSpec("rotate", 1e-2, 3))
    for target in (strat, rotated):
        for bases, answers in ((target.alice, test.alice_answers), (target.bob, test.bob_answers)):
            assert set(bases) == set(answers)
            for q, basis in bases.items():
                assert type(basis) is Basis and set(vars(basis)) == {"vectors", "outcomes"}, q
                v = basis.vectors
                assert v.shape == (n, n) and v.dtype == complex and not v.flags.writeable, q
                m = basis.outcomes
                assert m.shape == (len(answers[q]), n) and not m.flags.writeable, q
                assert set(np.unique(m)) <= {0.0, 1.0} and (m.sum(axis=0) == 1).all(), q  # one answer per column
                assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-13, q


@pytest.mark.parametrize("d", [3, 7, 13])
def test_variable_bases_share_their_equation_vectors(d):
    # a variable's basis is the first equation containing it read through one
    # bit (Basis.merged): the very vectors object, for Bob's every variable
    # and for Alice's variable questions alike
    _, _, test, strat = ideal_setup(d)
    system = test.system
    for party, gens in (("B", system.variables), ("A", ("a1", "a2") + COMM_GENS)):
        for g in gens:
            row, _ = system.first_position[g]
            assert strat.basis(party, var_label(g)).vectors is strat.alice[eq_label(row)].vectors, (party, g)


@pytest.mark.parametrize("d", [3, 7, 13])
def test_ideal_distinct_vector_arrays(d):
    # one array per equation, per extension question and per commutation
    # question: 101 at d=13, 115 at d=7
    _, _, test, strat = ideal_setup(d)
    distinct = {id(basis.vectors) for bases in (strat.alice, strat.bob) for basis in bases.values()}
    assert len(distinct) == test.system.n_rows + 3 + 8


def dense_ext_families(params, n_vars):
    """Each extension question's dense projector stack, I_4 (x) its projectors
    on W_{d-1}, keyed by its label."""
    proj = {k: np.outer(v, v.conj()) for k, v in v1_states(params).items()}
    perp = np.eye(params.d - 1) - proj["z0"] - proj["z1"]
    on_w = ((proj["z0"] + proj["z1"], perp), (proj["z0"], proj["z1"], perp), (proj["x0"], proj["x1"], perp))
    return {q: np.kron(np.eye(4), np.stack(fam)) for q, fam in zip(ext_labels(n_vars), on_w)}


def dense_families(test, rep, params):
    """Every ideal family as a dense projector stack, built from the images
    by the dense reference: equations jointly, variables alone, and the
    commutation questions as products of basis and variable projectors."""
    system = test.system
    ext = dense_ext_families(params, test.n_vars)
    var = {g: observable_to_projectors(rep[g].dense()) for g in system.variables}
    rows = range(system.n_rows)
    out = {("A", eq_label(i)): joint_projector([rep[g].dense() for g in system.row_names(i)]) for i in rows}
    for q, fam in ext.items():
        out["A", q] = out["B", q] = fam
    for g in ("a1", "a2") + COMM_GENS:
        out["A", var_label(g)] = var[g]
    for g, fam in var.items():
        out["B", var_label(g)] = fam
    for q in ext_labels(test.n_vars)[1:]:
        for g in COMM_GENS:
            out["B", comm_label(q, g)] = (ext[q][:, None] @ var[g][None]).reshape(-1, *ext[q].shape[1:])
    return out


@pytest.mark.parametrize("d", [3, 5, 7, 13])
def test_projectors_match_dense_reference(d):
    p, rep, test, strat = ideal_setup(d)
    dense = dense_families(test, rep, p)
    assert len(dense) == len(test.alice_answers) + len(test.bob_answers)
    worst = max(float(np.abs(family(strat, party, q) - fam).max()) for (party, q), fam in dense.items())
    assert worst <= 1e-13, (d, worst)


@pytest.mark.parametrize("d, r", [(d, None) for d in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [(13, 6), (13, 7), (13, 11)])
def test_equation_bases_match_dense_reference(d, r):
    # every answer's projector is the dense reference's joint projector of the
    # row's three images, and every column is an eigenvector of each image
    # with the sign that its outcome's bit gives
    p = make_params(d, r)
    test = build_full_test(p)
    dense = dense_table(p)
    bases = equation_bases(build_representation(p), test.system)
    bits = np.array(list(itertools.product((0, 1), repeat=3))).T  # (position, outcome), the first bit slowest
    worst = {}
    for i, basis in enumerate(bases):
        images = [dense[g] for g in test.system.row_names(i)]
        v, signs = basis.vectors, 1 - 2 * (bits @ basis.outcomes)  # (position, column)
        worst[eq_label(i)] = max(
            np.abs(projectors(basis) - joint_projector(images)).max(),
            *(np.abs(image @ v - v * sign).max() for image, sign in zip(images, signs)),
        )
    label = max(worst, key=worst.get)
    assert worst[label] <= 1e-13, (label, worst[label])


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_commutation_bases_match_dense_reference(d):
    # answer (b1, b2) of comm_label(q, g) projects onto the product of answer
    # b1's extension projector and (1 + (-1)^b2 g)/2, and every column is an
    # eigenvector of g's image with the sign (-1)^b2 of its bit
    p = make_params(d)
    rep = build_representation(p)
    n_vars = build_full_test(p).n_vars
    bases, ext = ext_bases(rep, n_vars), dense_ext_families(p, n_vars)
    worst = {}
    for q in ext_labels(n_vars)[1:]:
        for g in COMM_GENS:
            basis, image = bases[comm_label(q, g)], rep[g].dense()
            want = (ext[q][:, None] @ observable_to_projectors(image)[None]).reshape(-1, *image.shape)
            v, sign = basis.vectors, 1 - 2 * (np.array([0, 1] * 3) @ basis.outcomes)  # (-1)^b2 per column
            worst[comm_label(q, g)] = max(np.abs(projectors(basis) - want).max(), np.abs(image @ v - v * sign).max())
    label = max(worst, key=worst.get)
    assert worst[label] <= 1e-13, (label, worst[label])


def four_cycle_on_w2w2(rep):
    # a factor on W2 (x) W2 alone that is no involution
    m, w = rep["g0"], rep.params.d - 1
    return Monomial(np.array([1, 2, 3, 0]), np.zeros(4, dtype=int), m.order).kron(Monomial.identity(w, m.order))


@pytest.mark.parametrize("fault", [lambda rep: rep["a1"], four_cycle_on_w2w2], ids=["acts-on-w", "not-involution"])
def test_commutation_variable_fault_named(fault):
    # g0's image must be F (x) I with F an involution of W2 (x) W2; ext_bases
    # is called directly, since through build_ideal_strategy the equation
    # bases fail first
    p = make_params(3)
    rep = build_representation(p)
    rep.table["g0"] = fault(rep)
    with pytest.raises(PreconditionError, match=r"^g0 "):
        ext_bases(rep, build_full_test(p).n_vars)


def test_build_forms_no_dense_image(monkeypatch):
    # the equation bases come from the integer images orbit by orbit and the
    # commutation bases from 4 x 4 factors: no n x n image is made dense and
    # no eigh sees a matrix larger than 4 x 4
    p, rep, test, _ = ideal_setup(13)
    sizes = {"dense": [], "eigh": []}

    def recorded(name, f, size):
        def wrapper(*args, **kwargs):
            sizes[name].append(size(args[0]))
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Monomial, "dense", recorded("dense", Monomial.dense, lambda m: len(m.perm)))
    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh, lambda a: a.shape[-1]))
    build_ideal_strategy(p, rep, test)
    assert sizes["eigh"] and max(sizes["eigh"]) <= 4 and max(sizes["dense"], default=0) <= 4, sizes


def test_build_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma lazily (np.unique does, for one); a fresh process
    # that pulls it in pays ~15 ms of set-up and 1.3-1.8 MB of peak RSS
    code = (
        "import sys\n"
        "from lsgame import build_full_test, build_ideal_strategy, build_representation, make_params\n"
        "p = make_params(13)\n"
        "build_ideal_strategy(p, build_representation(p), build_full_test(p)).correlation()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lsgame.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_correlation_entries_non_negative():
    # every entry is a sum of squared moduli: >= 0 exactly, for any strategy
    for d in (3, 7):
        _, _, test, strat = ideal_setup(d)
        for kind in (None, "rotate", "state"):
            target = strat if kind is None else perturb_strategy(strat, PerturbationSpec(kind, 1e-2, 6))
            for key, table in generate_correlation(target, test).entries.items():
                assert table.min() >= 0.0, (d, kind, key)
                assert abs(table.sum() - 1) <= 1e-12, (d, kind, key)


def test_non_involution_image_fails_closed():
    # the equation bases take only integer arrays, so no NaN can reach them;
    # a phase moved one step makes p1_3 no longer an involution, and the
    # build names that relation before any row containing p1_3
    p, rep, test, _ = ideal_setup(3)
    m = rep["p1_3"]
    rep.table["p1_3"] = Monomial(m.perm, (m.phase + (np.arange(len(m.phase)) == 5)) % m.order, m.order)
    with pytest.raises(PreconditionError, match=r"^p1_3: the square is not 1$"):
        build_ideal_strategy(p, rep, test)


def test_build_rejects_non_commuting_row():
    # a row whose first image is exchanged for an involution that does not
    # commute with the second: the row's product is no longer +1
    p, rep, test, _ = ideal_setup(3)
    names = test.system.row_names(0)
    second = rep[names[1]]
    other = next(g for g in test.system.variables if rep[g] @ second != second @ rep[g])
    rep.table[names[0]] = rep[other]
    with pytest.raises(PreconditionError, match=rf"^I1 \({', '.join(names)}\): the product is not \+1$"):
        build_ideal_strategy(p, rep, test)


def test_build_rejects_negated_generator():
    # -f0 is an involution that commutes with J, so only the rows containing
    # f0 break, and the build names the first of them: a strategy built from
    # this representation would lose those rows
    p, rep, test, _ = ideal_setup(5)
    rep.table["f0"] = -rep["f0"]
    broken = broken_relations(rep, test.system)
    assert broken[0][0] == "I2 (a1, f0, d1): the product is not +1"
    assert worst_gap(rel[1:] for rel in broken) == 2.0
    with pytest.raises(PreconditionError, match=r"^I2 \(a1, f0, d1\): the product is not \+1$"):
        build_ideal_strategy(p, rep, test)


@pytest.mark.parametrize("d, test_d", [(7, 5), (5, 7)])
def test_build_refuses_a_test_of_another_r(d, test_d):
    # d=7 has r=3 and d=5 has r=2: the build names both r before it reads
    # any generator, instead of failing on one the test asks for
    p = make_params(d)
    test = build_full_test(make_params(test_d))
    with pytest.raises(StructuralError, match=rf"^test was built for r={test.system.r}, not r={p.r}$"):
        build_ideal_strategy(p, build_representation(p), test)


@pytest.mark.parametrize("built, asked", [((5, 2), (5, 3)), ((7, 3), (5, 3))])
def test_build_names_both_parameters_of_a_foreign_representation(built, asked):
    # a representation of another (d, r) is refused before any basis is
    # built, and the error names both sides
    p = make_params(*asked)
    rep = build_representation(make_params(*built))
    message = rf"^representation was built for d={built[0]}, r={built[1]}, not d=5, r=3$"
    with pytest.raises(StructuralError, match=message):
        build_ideal_strategy(p, rep, build_full_test(p))


@pytest.mark.parametrize("d", [3, 5])
def test_build_refuses_a_conjugated_representation(d, swap_x1_x2):
    # conjugated by I_4 (x) (x_1 <-> x_2), every relation of Gamma holds but
    # O = a1 a2 is not I_4 (x) diag(omega^k): the build names the broken key
    # relation, as verify-rep does, instead of reading stage-one columns off it
    p, rep, test, ideal = ideal_setup(d)
    assert [len(c) for c in ideal.stage_one_columns("A")] == [0] + [4] * (d - 1)
    swap_x1_x2(rep)
    assert broken_relations(rep, test.system) == []
    assert broken_key_relations(rep)[0][0] == "a1 a2 = I_4 (x) O"
    with pytest.raises(PreconditionError, match=r"^a1 a2 = I_4 \(x\) O$"):
        build_ideal_strategy(p, rep, test)
    # with a1 negated as well, O's phases are -omega^k, but Gamma's broken relation is named first
    rep.table["a1"] = -rep["a1"]
    with pytest.raises(PreconditionError, match=f"^{re.escape(broken_relations(rep, test.system)[0][0])}$"):
        build_ideal_strategy(p, rep, test)


def test_build_takes_a_test_of_the_same_r():
    # the test depends on r alone: d=5's test serves d=13 (both r=2)
    p = make_params(13)
    test = build_full_test(make_params(5))
    own = build_ideal_strategy(p, build_representation(p), build_full_test(p)).correlation()
    corr = build_ideal_strategy(p, build_representation(p), test).correlation()
    assert list(corr.entries) == list(own.entries)
    assert all(np.array_equal(corr.entries[key], table) for key, table in own.entries.items())


#: 2 x 2 monomials of order 4: the identity, X, Z and S = diag(1, i), which is not an involution
_SMALL = {
    "1": Monomial(np.arange(2), np.zeros(2, dtype=int), 4),
    "X": Monomial(np.array([1, 0]), np.zeros(2, dtype=int), 4),
    "Z": Monomial(np.arange(2), np.array([0, 2]), 4),
    "S": Monomial(np.arange(2), np.array([0, 1]), 4),
}


@pytest.mark.parametrize(
    "images, rhs, fault",
    [  # each id names the images and the fault injected
        pytest.param("1XZ", 0, "I1 (a, b, c): the product is not +1", id="1XZ-b and c do not commute"),
        pytest.param("X1Z", 0, "I1 (a, b, c): the product is not +1", id="X1Z-a and c do not commute"),
        pytest.param("XZ1", 0, "I1 (a, b, c): the product is not +1", id="XZ1-a and b do not commute"),
        pytest.param("111", 1, "I1 (a, b, c): the product is not -1", id="111-the product is not -1"),
        # named before the row, which fails too
        pytest.param("ZXS", 0, "c: the square is not 1", id="ZXS-c is not an involution"),
        pytest.param("ZZ1X", 0, "a: it does not commute with J", id="ZZ1X-a and J do not commute"),
        pytest.param("111S", 0, "J: the square is not 1", id="111S-J is not an involution"),
    ],
)
def test_equation_gate_names_its_fault(images, rhs, fault):
    # one row a b c = (-1)^rhs of 2 x 2 images, J = -1 unless a fourth image
    # is given: the gate names the first broken relation, each variable's and
    # J's before the row's
    system = LinearSystem(2, ("a", "b", "c"), ((0, 1, 2),), (rhs,))
    table = {g: _SMALL[m] for g, m in zip("abcJ", images)}
    table.setdefault("J", -_SMALL["1"])
    rep = Rep(make_params(3), 2, table)
    broken = broken_relations(rep, system)
    assert broken[0][0] == fault
    assert worst_gap(rel[1:] for rel in broken) > 0
    with pytest.raises(PreconditionError, match=f"^{re.escape(fault)}$"):
        equation_bases(rep, system)


def test_correlation_is_probability():
    _, _, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    assert set(corr.entries) == set(test.support)
    for table in corr.entries.values():
        assert table.min() >= -1e-12
        assert abs(table.sum() - 1) <= 1e-10


def correlation_reference(strategy, test):
    """Per-cell p(a, b | x, y) = Re <M S, S N^T>, one vdot per table entry."""
    s = strategy.state
    lefts = {x: [m @ s for m in family(strategy, "A", x)] for x, _ in test.support}
    rights = {y: [s @ n.T for n in family(strategy, "B", y)] for _, y in test.support}
    out = {}
    for x, y in test.support:
        table = np.empty((len(lefts[x]), len(rights[y])))
        for ia, la in enumerate(lefts[x]):
            for ib, rb in enumerate(rights[y]):
                table[ia, ib] = np.real(np.vdot(la, rb))
        out[(x, y)] = table
    return out


def test_generate_correlation_matches_per_cell_reference():
    for d in (3, 7):
        _, _, test, strat = ideal_setup(d)
        for target in (strat, perturb_strategy(strat, PerturbationSpec("both", 1e-2, 8))):
            corr = generate_correlation(target, test)
            ref = correlation_reference(target, test)
            assert list(corr.entries) == list(ref)
            worst = max(float(np.abs(corr.entries[key] - table).max()) for key, table in ref.items())
            assert worst <= 1e-14, (d, worst)


def test_correlation_table_examples():
    p, _, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    d = 3
    # cos^2(pi/2d)/(d-1) = cos^2(pi/6)/2 = 0.375
    sub, z, _ = ext_labels(test.n_vars)
    t1 = corr.entries[(z, var_label("a1"))]
    assert abs(t1[0, 0] - 0.375) < 1e-12
    t2 = corr.entries[(sub, sub)]
    assert abs(t2[0, 0] - 2 / (d - 1)) < 1e-12
    t3 = corr.entries[(z, f"comm:{test.n_vars + 1},f0")]
    assert abs(t3[0, 0] - 1 / (2 * d - 2)) < 1e-12


def test_tables_match_reference():
    for d in (3, 5):
        p, _, test, strat = ideal_setup(d)
        corr = generate_correlation(strat, test)
        assert closed_form_deviation(corr, ideal_table_values(p, test)) <= 1e-10


def test_degenerate_entries_at_d3():
    p, _, test, strat = ideal_setup(3)
    ref = ideal_table_values(p, test)
    _, z, _ = ext_labels(test.n_vars)
    assert ref[(z, z)][(2, 2)] == 0.0
    corr = generate_correlation(strat, test)
    assert abs(corr.entries[(z, z)][2, 2]) <= 1e-12


def test_ext_role_flip_symmetry():
    _, _, test, strat = ideal_setup(5)
    corr = generate_correlation(strat, test)
    for q in ext_labels(test.n_vars)[1:]:
        for v in (var_label("a1"), var_label("a2")):
            left = corr.entries[(q, v)]
            right = corr.entries[(v, q)]
            np.testing.assert_allclose(left, right.T, atol=1e-10)


def test_correlation_json_round_trip():
    _, _, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    back = Correlation.from_json(corr.to_json())
    assert back.d == corr.d and back.r == corr.r
    assert set(back.entries) == set(corr.entries)
    for key, table in corr.entries.items():
        np.testing.assert_allclose(back.entries[key], table, atol=0)


def test_correlation_json_is_strict():
    # a non-finite cell is written as null, as every CLI artifact writes it,
    # and never as a bare NaN or Infinity
    corr = Correlation(d=3, r=2, entries={("x", "y"): np.array([[0.5, np.nan], [np.inf, -np.inf]])})
    text = corr.to_json()
    assert "NaN" not in text and "Infinity" not in text

    def reject_constant(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    payload = json.loads(text, parse_constant=reject_constant)
    assert payload["entries"] == [{"x": "x", "y": "y", "p": [[0.5, None], [None, None]]}]


def test_rep_params_mismatch_rejected():
    import pytest

    from lsgame import StructuralError

    p3 = make_params(3)
    p5 = make_params(5)
    rep5 = build_representation(p5)
    with pytest.raises(StructuralError):
        build_ideal_strategy(p3, rep5, build_full_test(p3))


def test_json_deterministic():
    _, _, test, strat = ideal_setup(3)
    a = generate_correlation(strat, test).to_json()
    b = generate_correlation(strat, test).to_json()
    assert a == b


def test_strategy_cannot_be_rebound():
    # a memo (correlation, observables) can only go stale if the strategy it
    # was formed from changes: no field can be rebound, no basis replaced
    # and no state entry written
    _, _, test, strat = ideal_setup(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        strat.state = np.zeros_like(strat.state)
    with pytest.raises(dataclasses.FrozenInstanceError):
        strat.alice = {}
    with pytest.raises(ValueError):
        strat.state[0, 0] = 1.0
    with pytest.raises(TypeError):
        strat.bob[next(iter(strat.bob))] = None
    assert not strat.with_state(strat.state.copy()).state.flags.writeable


def test_table_deviation_keeps_a_nan():
    # a NaN cell used to vanish in max(worst, x): the deviation read 5.6e-16
    p, _, test, strat = ideal_setup(3)
    _, z, _ = ext_labels(test.n_vars)
    key = (z, var_label("a1"))
    entries = dict(strat.correlation().entries)
    entries[key] = entries[key].copy()
    entries[key][0, 1] = np.nan
    assert np.isnan(table_deviation(Correlation(p.d, p.r, entries), strat.correlation()))
