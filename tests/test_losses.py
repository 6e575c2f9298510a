"""Loss functions: hand oracles, composition identities, gradient checks."""

import dataclasses
import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flwf import losses
from flwf.losses import (LossSpec, Target, classification_loss, combined_loss,
                         combined_loss_grad, distillation_loss, log_softmax,
                         loss_and_grad, resolve_targets, softmax,
                         temperature_scaled_probs)

# frozen hand-computed values
CE_SINGLE_PEAK = 1.0435917781858575       # logits [1,0,0,0,0,0], true class 0
DISTILL_SWAPPED = 1.0443202661482278      # teacher [2,0], student [0,2], T=2
TEMPERED_TWO = (0.7310585786300049, 0.2689414213699951)  # logits [2,0], T=2
SELF_DISTILL_ENTROPY = 0.5822031088882179  # entropy of TEMPERED_TWO


def one_hot(labels, n):
    out = np.zeros((len(labels), n))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(rng.normal(size=(40, 6)) * 10)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (p > 0).all()


def test_softmax_handles_large_logits():
    p = softmax(np.array([[1000.0, 999.0, -1000.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] > p[0, 1] > p[0, 2]


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(25, 6)) * 3
    assert np.allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0, 7.0])
def test_uniform_logits_temper_to_uniform(temperature):
    logits = np.full((3, 6), 2.5)
    p = temperature_scaled_probs(logits, temperature)
    assert np.allclose(p, 1.0 / 6.0, atol=1e-12)


def test_temperature_one_is_ordinary_softmax():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(10, 6))
    assert np.allclose(temperature_scaled_probs(logits, 1.0), softmax(logits),
                       atol=1e-12)


def test_tempered_probs_hand_value():
    p = temperature_scaled_probs(np.array([[2.0, 0.0]]), 2.0)
    assert p[0, 0] == pytest.approx(TEMPERED_TWO[0], abs=1e-12)
    assert p[0, 1] == pytest.approx(TEMPERED_TWO[1], abs=1e-12)


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        temperature_scaled_probs(np.zeros((1, 2)), 0.0)


# -- classification loss -------------------------------------------------------


def test_classification_loss_hand_value():
    logits = np.array([[1.0, 0, 0, 0, 0, 0]])
    labels = one_hot([0], 6)
    assert classification_loss(logits, labels) == pytest.approx(
        CE_SINGLE_PEAK, abs=1e-12)


def test_classification_loss_uniform_logits_is_log_n():
    labels = one_hot([3], 6)
    assert classification_loss(np.zeros((1, 6)), labels) == pytest.approx(
        math.log(6), abs=1e-12)


def test_classification_loss_vanishes_with_margin():
    logits = np.array([[50.0, 0, 0, 0, 0, 0]])
    assert classification_loss(logits, one_hot([0], 6)) < 1e-12


def test_classification_loss_sums_over_batch():
    logits = np.tile([[1.0, 0, 0, 0, 0, 0]], (4, 1))
    labels = one_hot([0, 0, 0, 0], 6)
    assert classification_loss(logits, labels) == pytest.approx(
        4 * CE_SINGLE_PEAK, abs=1e-11)


def test_classification_loss_rejects_non_one_hot():
    logits = np.zeros((1, 6))
    with pytest.raises(ValueError):
        classification_loss(logits, np.full((1, 6), 0.5))
    with pytest.raises(ValueError):
        classification_loss(logits, np.zeros((1, 6)))


@pytest.mark.parametrize("objective", [combined_loss, combined_loss_grad])
@pytest.mark.parametrize("labels", [np.full((1, 3), 0.5), np.zeros((1, 3)),
                                    np.array([0, 1, 0])],
                         ids=["soft", "empty-row", "1-d"])
def test_the_objective_checks_the_labels_it_is_given(objective, labels):
    """The objective's entry points take labels from outside the program
    and check them; a run's labels come checked from its pool."""
    with pytest.raises(ValueError, match="one-hot"):
        objective(LossSpec(), np.zeros((1, 3)), labels)


def test_classification_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(size=(5, 6)) * 2
        labels = one_hot(rng.integers(0, 6, size=5), 6)
        grad = loss_and_grad([Target(1.0, 1.0, labels)], logits)[1]
        fd = _fd_logits(lambda o: classification_loss(o, labels), logits)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)


def _fd_logits(fn, logits, h=1e-5):
    out = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        up = logits.copy()
        up[idx] += h
        dn = logits.copy()
        dn[idx] -= h
        out[idx] = (fn(up) - fn(dn)) / (2 * h)
    return out


# -- distillation loss ----------------------------------------------------------


def test_distillation_loss_hand_value():
    teacher = np.array([[2.0, 0.0]])
    student = np.array([[0.0, 2.0]])
    assert distillation_loss(teacher, student, 2.0) == pytest.approx(
        DISTILL_SWAPPED, abs=1e-12)


def test_self_distillation_equals_tempered_entropy():
    logits = np.array([[2.0, 0.0]])
    assert distillation_loss(logits, logits, 2.0) == pytest.approx(
        SELF_DISTILL_ENTROPY, abs=1e-12)


def test_self_distillation_entropy_on_random_batches():
    rng = np.random.default_rng(4)
    for _ in range(10):
        logits = rng.normal(size=(8, 6)) * 3
        t = rng.uniform(0.5, 5.0)
        p = temperature_scaled_probs(logits, t)
        entropy = float(-(p * np.log(p)).sum())
        assert distillation_loss(logits, logits, t) == pytest.approx(
            entropy, abs=1e-10)


def test_distillation_gibbs_inequality():
    # teacher fixed, any student is at least as costly as the teacher itself
    rng = np.random.default_rng(5)
    teacher = rng.normal(size=(6, 6))
    floor = distillation_loss(teacher, teacher, 2.0)
    for _ in range(25):
        student = rng.normal(size=(6, 6)) * rng.uniform(0.1, 4.0)
        assert distillation_loss(teacher, student, 2.0) >= floor - 1e-10


def test_uniform_teacher_floor_is_log_n():
    teacher = np.zeros((1, 6))
    rng = np.random.default_rng(6)
    for _ in range(10):
        student = rng.normal(size=(1, 6))
        assert distillation_loss(teacher, student, 2.0) >= math.log(6) - 1e-10
    assert distillation_loss(teacher, np.full((1, 6), 3.3), 2.0) == pytest.approx(
        math.log(6), abs=1e-10)


def test_distillation_rejects_misaligned_batches():
    with pytest.raises(ValueError):
        distillation_loss(np.zeros((2, 6)), np.zeros((3, 6)), 2.0)


def test_distillation_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        teacher = rng.normal(size=(4, 6)) * 2
        student = rng.normal(size=(4, 6)) * 2
        t = rng.uniform(0.5, 4.0)
        soft = temperature_scaled_probs(teacher, t)
        grad = loss_and_grad([Target(t, 1.0, soft)], student)[1]
        fd = _fd_logits(lambda o: distillation_loss(teacher, o, t), student)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)


# -- combined losses -------------------------------------------------------------


def _random_case(rng, n=6, rows=7):
    student = rng.normal(size=(rows, n)) * 2
    teacher_c = rng.normal(size=(rows, n)) * 2
    teacher_s = rng.normal(size=(rows, n)) * 2
    labels = one_hot(rng.integers(0, n, size=rows), n)
    return student, teacher_c, teacher_s, labels


def test_flwf1_composition_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        student, teacher_c, _, labels = _random_case(rng)
        alpha = rng.uniform(0, 1)
        t = rng.uniform(0.5, 4.0)
        spec = LossSpec(mode="flwf1", alpha=alpha, temperature=t,
                        teacher_client_logits=teacher_c)
        got = combined_loss(spec, student, labels)
        want = (alpha * classification_loss(student, labels)
                + (1 - alpha) * distillation_loss(teacher_c, student, t))
        assert got == pytest.approx(want, abs=1e-10)


def test_flwf2_composition_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        student, teacher_c, teacher_s, labels = _random_case(rng)
        alpha = rng.uniform(0, 0.5)
        beta = rng.uniform(0, 1 - alpha)
        t = rng.uniform(0.5, 4.0)
        spec = LossSpec(mode="flwf2", alpha=alpha, beta=beta, temperature=t,
                        teacher_client_logits=teacher_c,
                        teacher_server_logits=teacher_s)
        got = combined_loss(spec, student, labels)
        want = (alpha * classification_loss(student, labels)
                + beta * distillation_loss(teacher_c, student, t)
                + (1 - alpha - beta) * distillation_loss(teacher_s, student, t))
        assert got == pytest.approx(want, abs=1e-10)


def test_flwf2_paper_coefficients():
    rng = np.random.default_rng(10)
    student, teacher_c, teacher_s, labels = _random_case(rng)
    spec = LossSpec(mode="flwf2", alpha=0.001, beta=0.7, temperature=2.0,
                    teacher_client_logits=teacher_c, teacher_server_logits=teacher_s)
    got = combined_loss(spec, student, labels)
    want = (0.001 * classification_loss(student, labels)
            + 0.7 * distillation_loss(teacher_c, student, 2.0)
            + 0.299 * distillation_loss(teacher_s, student, 2.0))
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_coefficient_rule_takes_only_a_positive_finite_temperature(temperature):
    """A NaN temperature used to pass and fail the first SGD step; an
    infinite one ran on with both distillation terms giving zero gradient."""
    assert losses.coefficient_error("flwf1", 0.5, None, temperature) == (
        "temperature", "must be positive and finite")


def test_flwf1_alpha_extremes():
    rng = np.random.default_rng(11)
    student, teacher_c, _, labels = _random_case(rng)
    one = LossSpec(mode="flwf1", alpha=1.0, temperature=2.0,
                   teacher_client_logits=teacher_c)
    zero = LossSpec(mode="flwf1", alpha=0.0, temperature=2.0,
                    teacher_client_logits=teacher_c)
    assert combined_loss(one, student, labels) == pytest.approx(
        classification_loss(student, labels), abs=1e-12)
    assert combined_loss(zero, student, labels) == pytest.approx(
        distillation_loss(teacher_c, student, 2.0), abs=1e-12)


def test_flwf2_collapses_to_flwf1_when_teachers_coincide():
    rng = np.random.default_rng(12)
    student, teacher, _, labels = _random_case(rng)
    spec2 = LossSpec(mode="flwf2", alpha=0.3, beta=0.0, temperature=2.0,
                     teacher_client_logits=teacher, teacher_server_logits=teacher)
    spec1 = LossSpec(mode="flwf1", alpha=0.3, temperature=2.0,
                     teacher_client_logits=teacher)
    assert combined_loss(spec2, student, labels) == pytest.approx(
        combined_loss(spec1, student, labels), abs=1e-10)


def test_flwf2_round_one_folds_beta_into_server_term():
    # no client teacher: alpha*CE + (1-alpha)*L_dis_serv
    rng = np.random.default_rng(13)
    student, _, teacher_s, labels = _random_case(rng)
    spec = LossSpec(mode="flwf2", alpha=0.001, beta=0.7, temperature=2.0,
                    teacher_server_logits=teacher_s)
    got = combined_loss(spec, student, labels)
    want = (0.001 * classification_loss(student, labels)
            + 0.999 * distillation_loss(teacher_s, student, 2.0))
    assert got == pytest.approx(want, abs=1e-10)


def test_losses_invariant_under_batch_permutation():
    rng = np.random.default_rng(14)
    student, teacher_c, teacher_s, labels = _random_case(rng, rows=9)
    spec = LossSpec(mode="flwf2", alpha=0.2, beta=0.5, temperature=2.0,
                    teacher_client_logits=teacher_c,
                    teacher_server_logits=teacher_s)
    base = combined_loss(spec, student, labels)
    for _ in range(5):
        perm = rng.permutation(9)
        shuffled = dataclasses.replace(
            spec, teacher_client_logits=teacher_c[perm],
            teacher_server_logits=teacher_s[perm])
        assert combined_loss(shuffled, student[perm], labels[perm]) == (
            pytest.approx(base, abs=1e-9))


def test_combined_loss_dispatch_and_grads():
    rng = np.random.default_rng(15)
    student, teacher_c, teacher_s, labels = _random_case(rng)
    specs = [
        LossSpec(mode="fine-tune"),
        LossSpec(mode="flwf1", alpha=0.4, temperature=2.0,
                 teacher_client_logits=teacher_c),
        LossSpec(mode="flwf2", alpha=0.2, beta=0.3, temperature=3.0,
                 teacher_client_logits=teacher_c,
                 teacher_server_logits=teacher_s),
        LossSpec(mode="flwf2", alpha=0.2, beta=0.3, temperature=3.0,
                 teacher_server_logits=teacher_s),
    ]
    for spec in specs:
        grad = combined_loss_grad(spec, student, labels)
        fd = _fd_logits(lambda o: combined_loss(spec, o, labels), student)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)


def test_combined_loss_missing_teachers_raise():
    student = np.zeros((2, 6))
    labels = one_hot([0, 1], 6)
    with pytest.raises(ValueError):
        combined_loss(LossSpec(mode="flwf1", alpha=0.5), student, labels)
    with pytest.raises(ValueError):
        combined_loss(LossSpec(mode="flwf2", alpha=0.5, beta=0.2),
                      student, labels)


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(mode="nonsense")
    with pytest.raises(ValueError):
        LossSpec(mode="flwf1", alpha=1.5)
    with pytest.raises(ValueError):
        LossSpec(mode="flwf1", temperature=0.0)
    with pytest.raises(ValueError):
        LossSpec(mode="flwf2", alpha=0.5)          # beta required
    with pytest.raises(ValueError):
        LossSpec(mode="flwf2", alpha=0.6, beta=0.6)  # alpha+beta > 1
    with pytest.raises(ValueError):
        LossSpec(mode="flwf1", alpha=0.5, beta=0.1)  # beta only for flwf2


def test_all_losses_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        student, teacher_c, teacher_s, labels = _random_case(rng)
        assert classification_loss(student, labels) >= 0
        assert distillation_loss(teacher_c, student, 2.0) >= 0
        spec = LossSpec(mode="flwf2", alpha=0.3, beta=0.3, temperature=2.0,
                        teacher_client_logits=teacher_c,
                        teacher_server_logits=teacher_s)
        assert combined_loss(spec, student, labels) >= 0


# -- properties of the one-pass objective --------------------------------------------


@st.composite
def objective_cases(draw):
    """A random batch, objective and teacher set; ``want`` is the objective
    composed from the per-term reference losses, None where evaluating the
    spec must fail (flwf1 without its teacher)."""
    rows = draw(st.integers(1, 9))
    n = draw(st.integers(2, 7))
    mode = draw(st.sampled_from(losses.MODES))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0))
    assume(alpha + beta <= 1.0)
    t = draw(st.one_of(st.just(1.0), st.floats(0.25, 8.0)))
    with_client = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 5.0))
    student, teacher_c, teacher_s = (scale * rng.normal(size=(rows, n)) for _ in range(3))
    labels = one_hot(rng.integers(0, n, size=rows), n)
    if not with_client:
        teacher_c = None

    ce = classification_loss(student, labels)
    if mode == "fine-tune":
        spec, want = LossSpec(), ce
    elif mode == "flwf1":
        spec = LossSpec(mode="flwf1", alpha=alpha, temperature=t,
                        teacher_client_logits=teacher_c)
        want = None if teacher_c is None else (
            alpha * ce + (1 - alpha) * distillation_loss(teacher_c, student, t))
    else:
        spec = LossSpec(mode="flwf2", alpha=alpha, beta=beta, temperature=t,
                        teacher_client_logits=teacher_c,
                        teacher_server_logits=teacher_s)
        dis_s = distillation_loss(teacher_s, student, t)
        want = (alpha * ce + (1 - alpha) * dis_s if teacher_c is None else
                alpha * ce + beta * distillation_loss(teacher_c, student, t)
                + (1 - alpha - beta) * dis_s)
    return spec, student, labels, want


@settings(max_examples=200, deadline=None)
@given(objective_cases())
def test_combined_loss_equals_its_term_composition(case):
    spec, student, labels, want = case
    if want is None:
        with pytest.raises(ValueError):
            combined_loss(spec, student, labels)
        return
    got = combined_loss(spec, student, labels)
    assert abs(got - want) <= 1e-12 * abs(want)
    temperatures = {1.0} if spec.mode == "fine-tune" else {1.0, spec.temperature}
    assert len(resolve_targets(spec, labels)) == len(temperatures)


@settings(max_examples=60, deadline=None)
@given(objective_cases())
def test_combined_loss_grad_matches_finite_differences(case):
    spec, student, labels, want = case
    assume(want is not None)
    grad = combined_loss_grad(spec, student, labels)
    fd = _fd_logits(lambda o: combined_loss(spec, o, labels), student)
    np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)


def formula_loss_and_grad(targets, student_logits):
    """:func:`loss_and_grad` as written before identities were skipped,
    its log-softmax included: the oracle of its bits."""
    value, grad = 0.0, 0.0
    for target in targets:
        scaled = student_logits / target.temperature
        shifted = scaled - scaled.max(axis=1, keepdims=True)
        log_q = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        value -= float((target.probs * log_q).sum())
        grad = grad + (target.weight * np.exp(log_q) - target.probs) / target.temperature
    return value, grad


def same_bits(a, b) -> bool:
    """Equal as bit patterns, so +0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(objective_cases(), st.sampled_from([None, -0.0, 0.0, 1.0]),
       st.sampled_from([1.0, 1e3, 1e-3]), st.booleans())
def test_loss_and_grad_keeps_every_bit_of_the_formula(case, alpha, scale, zeros):
    """Skipping the divisions by a temperature of 1.0 and the first
    ``0.0 +`` changes no bit of the value or the gradient, signed zeros
    included: on resolved targets of every mode (T = 1.0 among the
    temperatures, alpha of -0.0 among the weights), on logits whose
    softmax underflows, and on logits with exact zeros.  Asked for the
    gradient alone, it returns None for the value and the same bits."""
    spec, student, labels, want = case
    assume(want is not None)
    if alpha is not None and spec.mode != losses.MODE_FINE_TUNE:
        assume(spec.beta is None or alpha + spec.beta <= 1.0)
        spec = dataclasses.replace(spec, alpha=alpha)
    student = student * scale
    if zeros:
        student[:, ::2] = 0.0
    targets = resolve_targets(spec, labels)
    got_value, got_grad = loss_and_grad(targets, student)
    want_value, want_grad = formula_loss_and_grad(targets, student)
    assert same_bits(got_value, want_value)
    assert same_bits(got_grad, want_grad)
    no_value, grad_alone = loss_and_grad(targets, student, with_value=False)
    assert no_value is None and same_bits(grad_alone, want_grad)
