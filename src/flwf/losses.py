"""Classification and distillation losses with temperature scaling.

Three training objectives are supported, selected by ``LossSpec.mode``:

* ``fine-tune``: plain softmax cross-entropy against the batch labels.
* ``flwf1``: convex blend of cross-entropy and a distillation term that
  pulls the student toward the logits of the client's previous-round
  model (one teacher): ``alpha * CE + (1 - alpha) * distill(client)``.
* ``flwf2``: three-term blend adding a second distillation term toward
  the current server model (two teachers):
  ``alpha * CE + beta * distill(client) + (1 - alpha - beta) * distill(server)``.
  On a client's first round no previous model exists; the client term is
  then folded into the server term, giving
  ``alpha * CE + (1 - alpha) * distill(server)`` (:func:`objective_terms`).
  flwf1 trains such a round as fine-tune (:func:`flwf.continual.select_loss_mode`).

Every term is a cross-entropy ``-sum(target * log_softmax(o / T))`` and
the objective is linear in its targets, so :func:`resolve_targets` merges
the terms into one target per temperature (``alpha * y`` at T=1 and
``sum_i w_i * softmax(teacher_i / T)`` at T), and :func:`loss_and_grad`
needs one log-softmax per temperature for the value and the gradient.
Training computes the value only when it records a loss trace.

All losses are SUMS over the batch, not means.  The learning rate must be
read with that convention in mind: with batch size B, an equivalent
mean-reduced setup would use a learning rate B times larger.

Teacher logits are computed once per round (teachers are frozen during
local training) and travel inside ``LossSpec`` aligned row-for-row with
the batch; the trainer resolves the targets once per round and slices
their rows when it shuffles and chunks the batch.

:func:`coefficient_error` is the one rule for the coefficients, shared by
:class:`LossSpec` and :class:`flwf.config.ClientConfig`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MODE_FINE_TUNE = "fine-tune"
MODE_FLWF1 = "flwf1"
MODE_FLWF2 = "flwf2"
MODES = (MODE_FINE_TUNE, MODE_FLWF1, MODE_FLWF2)


def coefficient_error(mode: str, alpha: float, beta: float | None,
                      temperature: float) -> tuple[str, str] | None:
    """The first ``(field, reason)`` that breaks the coefficient rule, or None.

    The rule: ``alpha`` in [0, 1], a positive finite temperature, and
    ``beta`` in [0, 1] given for flwf2 only, with ``alpha + beta <= 1``.
    """
    if not 0.0 <= alpha <= 1.0:
        return "alpha", "must lie in [0, 1]"
    if not 0 < temperature < math.inf:
        return "temperature", "must be positive and finite"
    if mode == MODE_FLWF2:
        if beta is None:
            return "beta", "required for flwf2"
        if not 0.0 <= beta <= 1.0:
            return "beta", "must lie in [0, 1]"
        if alpha + beta > 1.0:
            return "beta", f"alpha + beta = {alpha + beta} exceeds 1"
    elif beta is not None:
        return "beta", f"only {MODE_FLWF2} uses beta, mode is {mode!r}"
    return None


@dataclass(frozen=True)
class LossSpec:
    """Resolved description of the objective used for one local update.

    ``alpha`` weighs the cross-entropy term, ``beta`` (flwf2 only) the
    client-teacher distillation term, ``temperature`` softens both
    distillation distributions.  Teacher logit arrays, when present, have
    one row per batch example.
    """

    mode: str = MODE_FINE_TUNE
    alpha: float = 1.0
    beta: float | None = None
    temperature: float = 2.0
    teacher_client_logits: np.ndarray | None = None
    teacher_server_logits: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown loss mode {self.mode!r}")
        error = coefficient_error(self.mode, self.alpha, self.beta, self.temperature)
        if error:
            raise ValueError("%s: %s" % error)


class Target(NamedTuple):
    """One term ``-sum(probs * log_softmax(o / temperature))``; every row of
    ``probs`` sums to ``weight``."""

    temperature: float
    weight: float
    probs: np.ndarray


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, max-subtracted for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def temperature_scaled_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Softened probabilities ``exp(o_i/T) / sum_j exp(o_j/T)``, one row per example."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return softmax(np.asarray(logits, dtype=float) / temperature)


def _check_one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-d one-hot matrix")
    ok = np.all((labels == 0.0) | (labels == 1.0)) and np.all(labels.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("label rows must be one-hot")
    return labels


def _check_aligned(teacher: np.ndarray, student: np.ndarray):
    if teacher.shape != student.shape:
        raise ValueError(
            f"teacher/student logit batches misaligned: {teacher.shape} vs {student.shape}"
        )


def classification_loss(student_logits: np.ndarray, labels: np.ndarray) -> float:
    """Softmax cross-entropy, summed over the batch."""
    labels = _check_one_hot(labels)
    student_logits = np.asarray(student_logits, dtype=float)
    if student_logits.shape != labels.shape:
        raise ValueError("logits and labels disagree in shape")
    return float(-(labels * log_softmax(student_logits)).sum())


def distillation_loss(teacher_logits: np.ndarray, student_logits: np.ndarray,
                      temperature: float) -> float:
    """Cross-entropy of the student's tempered distribution under the teacher's.

    ``sum_x sum_i -pi_i_teacher(x) log pi_i_student(x)`` with both
    distributions softened by the same temperature.
    """
    teacher_logits = np.asarray(teacher_logits, dtype=float)
    student_logits = np.asarray(student_logits, dtype=float)
    _check_aligned(teacher_logits, student_logits)
    p_teacher = temperature_scaled_probs(teacher_logits, temperature)
    log_q = log_softmax(student_logits / temperature)
    return float(-(p_teacher * log_q).sum())


def objective_terms(spec: LossSpec) -> list:
    """The terms ``(temperature, weight, teacher logits)`` of ``spec``'s objective.

    Teacher logits of None stand for the labels: the cross-entropy term,
    at temperature 1.  A flwf2 spec without client-teacher logits (a
    client's first round) folds beta onto the server teacher, so the
    weights still sum to 1; a flwf1 spec needs its teacher.
    """
    if spec.mode == MODE_FINE_TUNE:
        return [(1.0, 1.0, None)]
    client, server = spec.teacher_client_logits, spec.teacher_server_logits
    labels = (1.0, spec.alpha, None)
    if spec.mode == MODE_FLWF1:
        if client is None:
            raise ValueError("flwf1 loss requires client-teacher logits")
        return [labels, (spec.temperature, 1.0 - spec.alpha, client)]
    if server is None:
        raise ValueError("flwf2 loss requires server-teacher logits")
    if client is None:
        return [labels, (spec.temperature, 1.0 - spec.alpha, server)]
    return [labels, (spec.temperature, spec.beta, client),
            (spec.temperature, 1.0 - spec.alpha - spec.beta, server)]


def resolve_targets(spec: LossSpec, labels: np.ndarray) -> list[Target]:
    """The objective's terms merged into one :class:`Target` per temperature.

    Takes a checked pool's one-hot ``labels`` as given, checks the teacher
    alignment and softens the teacher logits, once; callers slice the
    targets' rows per mini-batch.
    """
    merged: dict[float, Target] = {}
    for temperature, weight, teacher in objective_terms(spec):
        if teacher is None:
            probs = weight * labels
        else:
            probs = weight * temperature_scaled_probs(teacher, temperature)
            _check_aligned(probs, labels)
        if temperature in merged:
            weight += merged[temperature].weight
            probs = merged[temperature].probs + probs
        merged[temperature] = Target(temperature, weight, probs)
    return list(merged.values())


def loss_and_grad(targets: list[Target], student_logits: np.ndarray,
                  with_value: bool = True) -> tuple[float | None, np.ndarray]:
    """Value of the objective and its gradient with respect to the student logits.

    The value is computed only ``with_value``, else None comes back in its
    place: the gradient does not read it, and a training step needs only
    the gradient (:func:`flwf.network.train_local` asks for the value when
    it records a loss trace).  Either way the gradient takes the same
    operations in the same order.

    A target contributes ``(weight * softmax(o / T) - probs) / T`` to the
    gradient, because every row of its ``probs`` sums to ``weight``.  The
    gradient sums the contributions in target order, each computed in an
    array of its own.  Two steps of that formula are exact identities and
    are skipped: both divisions by a temperature of 1.0, and adding the
    first contribution to 0.0.  That addition could only turn a -0.0 into
    +0.0.  With a non-negative weight, ``weight * softmax - probs`` is
    -0.0 only where the weight is -0.0 and ``probs`` is +0.0, and
    :func:`resolve_targets` scales a target's ``probs`` by its weight, so
    a weight of -0.0 (an ``alpha`` of -0.0) makes them -0.0 too.
    """
    student_logits = np.asarray(student_logits, dtype=float)
    value, grad = 0.0, 0.0
    for i, target in enumerate(targets):
        if target.probs.shape != student_logits.shape:
            raise ValueError("logits and targets disagree in shape")
        scaled = (student_logits if target.temperature == 1.0
                  else student_logits / target.temperature)
        log_q = log_softmax(scaled)
        if with_value:
            value -= float((target.probs * log_q).sum())
        term = np.exp(log_q)
        term *= target.weight
        term -= target.probs
        if target.temperature != 1.0:
            term /= target.temperature
        if i == 0:
            grad = term
        else:
            grad += term
    return (value if with_value else None), grad


def combined_loss(spec: LossSpec, student_logits: np.ndarray, labels: np.ndarray) -> float:
    """Evaluate the objective described by ``spec`` on one batch; checks the labels."""
    return loss_and_grad(resolve_targets(spec, _check_one_hot(labels)), student_logits)[0]


def combined_loss_grad(spec: LossSpec, student_logits: np.ndarray,
                       labels: np.ndarray) -> np.ndarray:
    """Gradient of :func:`combined_loss` with respect to the student logits."""
    targets = resolve_targets(spec, _check_one_hot(labels))
    return loss_and_grad(targets, student_logits, with_value=False)[1]
