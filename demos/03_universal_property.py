"""The three-dimensional universal property, computed.

Restriction along the unit is a bijection between bounded strict functors
out of st A and pseudo functors out of A, and likewise at the three higher
levels; the inverse maps are the four extension operators.
"""

from strawcat.corpus import corpus
from strawcat.homs import check_functor, enumerate_functors, is_strict_functor
from strawcat.strictify import (counit, eta, extend_functor, restrict_extension,
                                st, triangle1_report, triangle2_report,
                                verify_3d_iso)

C = corpus()
N, M = C["nonstrict"], C["sigmaM"]
S = st(N)
T = S.table(3)          # st N on paths of length <= 3, as a table
etaN = eta(N, S)

for F in enumerate_functors(N, M):
    E = extend_functor(F, S, M)
    EF = E.functor(T)
    print(f"{F.name}: extension is a strict functor on bounded data:",
          check_functor(EF).ok and is_strict_functor(EF),
          "| restriction recovers F:",
          restrict_extension(E, etaN).key() == F.key())

rep = verify_3d_iso(N, M, 3)
print("\nfull bijection report:", rep.summary())
for k in ("objects_each_side", "vmors_each_side", "hmors_each_side",
          "cells_each_side"):
    print(f"  {k}: {rep.params[k]}")

print("\ntriangle identities (exact, on all bounded data):")
print("  st side:", triangle1_report(N, 3).ok)
print("  inclusion side:", triangle2_report(M).ok)
eps = counit(M)
print("the counit evaluates paths and takes payloads:",
      eps.on_path(st(M).unary("m1")) == "m1")
