"""Hom double categories and the interchange grid.

The functors, transformations, and modifications between two tables again
form a pseudo double category, which the validator accepts like any other.
Horizontal composition of 2-cells is not primitive at this level; the
specified interchangers mediate it.  A grid of them is pasted from two
smaller grids at a time, and pasting it row by row or column by column
gives the same cell.
"""

from strawcat import validate
from strawcat.corpus import nonstrict
from strawcat.gray import GridContext, interchange_grid, st_hom
from strawcat.homs import hom_double, interchanger

N = nonstrict()
H = hom_double(N, N)
print(f"Hom(N,N): {len(H.table.objects)} functors, {len(H.table.vmors)} icons,"
      f" {len(H.table.hmors)} pseudonatural transformations,"
      f" {len(H.table.cells)} modifications")
print("it validates as a pseudo double category:", validate(H.table).ok)

al = H.horizontals["h1"]
be = H.horizontals["h2"]
m = interchanger(al, be)
print("\ninterchanger component at the object is the stored")
print("pseudonaturality cell:",
      m.at_obj["st"] == be.at_hmor[al.at_obj["st"]][0])

sh = st_hom(N, N)
ctx = GridContext(sh, sh.hom, sh.hom)
print("\nthe composition functor L stores that interchanger:",
      ctx.L.cell_hh[("h2", "h1")][0] == sh.hom.id_of(m))
single = interchange_grid(ctx, sh.S.unary("h1"), sh.S.unary("h2"))
print("and the 1x1 grid is it:", single.payload == sh.hom.id_of(m))
alphas = sh.S.paths(2)[9]
betas = sh.S.paths(2)[10]
row = interchange_grid(ctx, alphas, betas, "row")
col = interchange_grid(ctx, alphas, betas, "col")
print("\na grid of interchangers, both pasting orders agree:", row == col)
inv = sh.S.inv(row)
print("and it is invertible:",
      sh.S.vcomp_cell(inv, row) == sh.S.vid_of(row.dom))
