"""
Distillation objectives and how the temperature softens them
=============================================================

Every objective in the simulator is a weighted sum of three pieces:
cross-entropy against the labels, distillation toward the client's
previous model, and distillation toward the server model.  This script
evaluates each piece on a small batch and shows how the combinations
behave at the edges.
"""

import numpy as np

from flwf import (LossSpec, classification_loss, combined_loss,
                  distillation_loss, softmax, temperature_scaled_probs)

rng = np.random.default_rng(0)
rows, n = 6, 4
student = 2.0 * rng.normal(size=(rows, n))
teacher_client = 2.0 * rng.normal(size=(rows, n))
teacher_server = 2.0 * rng.normal(size=(rows, n))
labels = np.eye(n)[rng.integers(0, n, size=rows)]

# -- temperature ---------------------------------------------------------------

# higher temperatures flatten the teacher distribution, which is what
# lets a student learn from the teacher's "dark knowledge" ordering
row = student[0]
print("one row of student logits:", np.round(row, 2))
for T in (1.0, 2.0, 8.0):
    print(f"  softened probabilities at T={T}:",
          np.round(temperature_scaled_probs(row[None, :], T)[0], 3))
print("  plain softmax matches T=1:",
      np.allclose(softmax(row[None, :]), temperature_scaled_probs(row[None, :], 1.0)))

# -- the three components ----------------------------------------------------------

T = 2.0
ce = classification_loss(student, labels)
dis_client = distillation_loss(teacher_client, student, T)
dis_server = distillation_loss(teacher_server, student, T)
print(f"\ncross-entropy (summed over {rows} rows): {ce:.4f}")
print(f"distillation toward client teacher:     {dis_client:.4f}")
print(f"distillation toward server teacher:     {dis_server:.4f}")

# distilling a model toward itself cannot reach zero: the floor is the
# entropy of its own softened distribution
probs = temperature_scaled_probs(student, T)
entropy = float(-(probs * np.log(probs)).sum())
self_dis = distillation_loss(student, student, T)
print(f"self-distillation {self_dis:.6f} equals tempered entropy {entropy:.6f}")

# -- the combined objectives -------------------------------------------------------

alpha, beta = 0.001, 0.7
one = combined_loss(LossSpec(mode="flwf1", alpha=alpha, temperature=T,
                             teacher_client_logits=teacher_client),
                    student, labels)
two = combined_loss(LossSpec(mode="flwf2", alpha=alpha, beta=beta, temperature=T,
                             teacher_client_logits=teacher_client,
                             teacher_server_logits=teacher_server),
                    student, labels)
print(f"\nwith alpha={alpha} (labels nearly mute) and beta={beta}:")
print(f"  one-teacher loss: {one:.4f}"
      f"  = {alpha} * CE + {1 - alpha} * client")
print(f"  two-teacher loss: {two:.4f}"
      f"  = {alpha} * CE + {beta} * client + {1 - alpha - beta:.3f} * server")
assert abs(one - (alpha * ce + (1 - alpha) * dis_client)) < 1e-12
assert abs(two - (alpha * ce + beta * dis_client
                  + (1 - alpha - beta) * dis_server)) < 1e-12

# on the very first round a client has no previous model of its own; the
# two-teacher objective folds onto the server teacher alone
spec = LossSpec(mode="flwf2", alpha=alpha, beta=beta, temperature=T,
                teacher_server_logits=teacher_server)
folded = combined_loss(spec, student, labels)
print(f"  first-round fold (no client teacher): {folded:.4f}"
      f"  = {alpha} * CE + {1 - alpha} * server")
assert abs(folded - (alpha * ce + (1 - alpha) * dis_server)) < 1e-12

# at alpha=1 every distillation term disappears and both reduce to CE
plain1 = combined_loss(LossSpec(mode="flwf1", alpha=1.0, temperature=T,
                                teacher_client_logits=teacher_client),
                       student, labels)
plain2 = combined_loss(LossSpec(mode="flwf2", alpha=1.0, beta=0.0, temperature=T,
                                teacher_client_logits=teacher_client,
                                teacher_server_logits=teacher_server),
                       student, labels)
print(f"  at alpha=1 both equal plain CE: {plain1:.4f}, {plain2:.4f}")
assert abs(plain1 - ce) < 1e-12 and abs(plain2 - ce) < 1e-12
