"""Strictification without materialisation.

The strictification of a table has paths as horizontal morphisms and is
infinite, so it is represented lazily; every axiom instance lives in a
bounded degree and is checked exactly there.
"""

from strawcat.corpus import nonstrict
from strawcat.strictify import Path, StCell, eta, kappa, st, st_strict_report
from strawcat.homs import check_functor

N = nonstrict()
S = st(N)

p = Path("st", ("e", "j", "e"))
print("a path:", p)
print("its left-nested evaluation in N:", S.eps(p))
print("the empty path evaluates to the horizontal identity:",
      S.eps(S.h_id("st")))

k = kappa(S, p)
print("\nkappa collapses the path onto its evaluation:", k.cod)
print("its payload is the identity cell on the evaluation:", k.payload)
p1, f = Path(p.src, p.hmors[:-1]), p.hmors[-1]
first = S.hcomp_cell(S.vid_of(S.unary(f)), kappa(S, p1))
second = kappa(S, Path(p.src, (S.eps(p1), f)))
print("kappa factors as (1 . kappa) then the binary kappa:",
      S.vcomp_cells(first, second) == k)

c = S.cells(2)[5]
mid = StCell(S.unary(S.eps(c.dom)), S.unary(S.eps(c.cod)), c.payload)
print("\nevery st-cell is determined by its payload:",
      S.vcomp_cells(kappa(S, c.dom), mid, S.inv(kappa(S, c.cod))) == c)

print("\nthe unit is a pseudo functor with kappa constraints:",
      check_functor(eta(N, S)).ok)

rep = st_strict_report(S, 3)
print("st N passes every strict axiom instance at bound 3:", rep.ok)
print("instances checked:", sum(rep.params["instances"].values()))
