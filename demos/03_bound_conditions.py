"""Three equivalent answers to "is the system bound?".

For n = 3: the Sylvester minors of S, the explicit polynomial in the
couplings, and the sign pattern of the characteristic polynomial
coefficients (with the discriminant guaranteeing a real spectrum) must
all agree.  The polynomial route never touches an eigensolver, so it
doubles as an independent check on the numerics.
"""

import numpy as np

from cho import (
    OscillatorModel,
    classify,
    n3_charpoly,
    n3_conditions,
    n3_discriminant,
    n4_condition,
    necessary_coefficient_conditions,
    verify_condition_terms,
)

rng = np.random.default_rng(3)

print("   pair-cond  triple-cond  b>0  c>0  disc>=0   verdict")
for _ in range(8):
    masses = rng.uniform(0.5, 2.0, size=3)
    omega2 = rng.uniform(0.3, 3.0, size=3)
    model = OscillatorModel(
        masses=masses,
        stiffness_diag=masses * omega2,
        couplings={
            (0, 1): float(rng.uniform(-3.0, 3.0)),
            (0, 2): float(rng.uniform(-3.0, 3.0)),
            (1, 2): float(rng.uniform(-3.0, 3.0)),
        },
    )
    pair, triple = n3_conditions(model)
    route = necessary_coefficient_conditions(model)
    verdict = classify(model).verdict
    print(
        f"  {pair:9.4f}  {triple:11.4f}  {str(route.b_positive):>3}"
        f"  {str(route.c_positive):>3}  {str(route.discriminant_nonneg):>7}"
        f"   {verdict}"
    )

# the discriminant itself separates distinct from repeated eigenvalues
a, b, c = n3_charpoly(OscillatorModel.identical(3, d=1.0))
print(f"\nidentical case discriminant = {n3_discriminant(a, b, c):.3g}"
      "  (zero: doubly degenerate mode)")

# four sites: one polynomial in the couplings equals the scaled minor
m4 = OscillatorModel.identical(4, d=0.8)
print(f"n4 condition at D=0.8: {n4_condition(m4):.6f}  (> 0, so bound)")

# the term lists are derived from the exact Leibniz expansion of the scaled
# minor, so each one checks clean against it
print("term tables verify clean:",
      all(verify_condition_terms(n) == [] for n in (2, 3, 4, 5)))
