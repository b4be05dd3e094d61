"""Strictification of a pseudo double category.

st A is lazy: horizontal morphisms are paths over A's horizontal morphisms
under concatenation, and cells store their payload (a cell of A between the
left-nested evaluations of the boundary paths).  `StrictifiedDouble.table`
materialises its part on paths of bounded length as a `TableDouble`, so that
`homs`' functor and transformation checkers run on st A unchanged.
Horizontal composition of st-cells conjugates by the canonical coherence
isomorphism between the evaluation of a concatenation and the composite of
the evaluations; the bracketing is fixed left-nested throughout and order
independence is a tested property.

All st-level checks take a path-length bound; every axiom family states in
the report exactly which composable tuples it quantified over.

Because a cell of st A is a base cell between evaluations, bounded st A is
built once, as integers, by `_StKernel`: the base's integer form
(`TableDouble.interned`), which `validate` reads too, dense ids for the
bounded paths and the st-cells, and int32 tables for the forward and inverse
coherence isos xi.  `StrictifiedDouble.table` reads its composites from it,
and every family of the strictness oracle but the two that hold by
construction runs on it; each instance is still computed and compared, as
array gathers, in batches cut as `core.validate` cuts its own.  The kernel
validates the base on entry and refuses one that fails a structure, frame
or globularity family, so every composite it looks up is defined.

Every structure map on paths (the evaluation eps, the coherence iso xi, and
`StExtension`'s paths and comparison cells phi) is one memoised left-nested
recursion, `_fold`, given a nullary case, a unary case and a step; this is
st's path description (Gurski, *Coherence in Three-Dimensional Category
Theory*, CUP 2013).  `extend_vertical` and `extend_horizontal` build their
path components with it too, the component dict they return serving as its
memo.  Every walk over composable pairs of paths is
`StrictifiedDouble.composable_pairs`; the kernel joins them into triples.

Every map out of st A is a `StExtension` along eta_A: st f for f: A -> B
is the extension of eta_B . f, the counit of a strict B that of its
identity, and the extension of eta_A itself is the identity of st A.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .core import Frame, TableDouble, _ids, _parts, _ranges, is_strict, validate
from .homs import (
    HorizontalPseudoTransformation,
    Modification,
    PseudoDoubleFunctor,
    VerticalTransformation,
    check_functor,
    check_horizontal,
    check_modification,
    check_vertical,
    identity_functor,
    is_strict_functor,
    iter_functor_candidates,
    iter_horizontal_candidates,
    iter_modification_candidates,
    iter_vertical_candidates,
)
from .report import Report, StructuralError


class Path(tuple):
    """Composable sequence of horizontal morphisms, the tuple (src, hmors):
    hashing and equality are tuple's, len is the length, + concatenates."""

    __slots__ = ()
    src = property(itemgetter(0))
    hmors = property(itemgetter(1))

    def __new__(cls, src, hmors: tuple):
        return tuple.__new__(cls, (src, hmors))

    def __len__(self):
        return len(self.hmors)

    def __add__(self, other: "Path") -> "Path":
        return Path(self.src, self.hmors + other.hmors)

    def __repr__(self):
        return f"Path({self.src}, {self.hmors})"


def _fold(memo, key, p, rule):
    """memo[key], computed on a miss by the left-nested recursion over the
    path p that ``rule = (empty, one, step)`` gives: ``empty(key)`` for the
    empty path, ``one(key)`` for a unary one, otherwise ``step(key, p1, f)``
    for p = p1 + (f), which recurses on p1.  With ``one`` None a unary path
    is a step from the empty path.  The rules are bound once per object, so
    a hit allocates nothing."""
    out = memo.get(key)
    if out is None:
        empty, one, step = rule
        if not p.hmors:
            out = empty(key)
        elif one and len(p.hmors) == 1:
            out = one(key)
        else:
            out = step(key, Path(p.src, p.hmors[:-1]), p.hmors[-1])
        memo[key] = out
    return out


class StCell(tuple):
    """Cell of st A, the tuple (dom, cod, payload): boundary paths, base cell."""

    __slots__ = ()
    dom = property(itemgetter(0))
    cod = property(itemgetter(1))
    payload = property(itemgetter(2))

    def __new__(cls, dom: Path, cod: Path, payload):
        return tuple.__new__(cls, (dom, cod, payload))

    def __repr__(self):
        return f"StCell({self.dom}, {self.cod}, {self.payload})"


class StrictifiedDouble:
    """Lazy strict double category of paths over a validated table."""

    def __init__(self, A: TableDouble):
        self.base = A
        self.name = f"st({A.name})"
        self.objects = A.objects
        self.vmors = A.vmors
        self._eps = {}
        self._xi = {}
        self._eps_rule = (lambda p: A.h_id(p.src), lambda p: p.hmors[0],
                          lambda p, p1, f: A.hcomp_hmor(f, self.eps(p1)))
        self._xi_rule = (self._xi_unitor,
                         lambda pq: (A.vid_of(self.eps(pq[0] + pq[1])),) * 2,
                         self._xi_step)

    # -- vertical layer: identical to the base ------------------------------

    def vsrc(self, u):
        return self.base.vsrc(u)

    def vtgt(self, u):
        return self.base.vtgt(u)

    def v_id(self, a):
        return self.base.v_id(a)

    def vcomp_vmor(self, w, u):
        return self.base.vcomp_vmor(w, u)

    # -- paths ---------------------------------------------------------------

    def h_id(self, a):
        return Path(a, ())

    def unary(self, f):
        return Path(self.base.hsrc(f), (f,))

    def hsrc(self, p: Path):
        return p.src

    def htgt(self, p: Path):
        return p.src if not p.hmors else self.base.htgt(p.hmors[-1])

    def hcomp_hmor(self, q: Path, p: Path) -> Path:
        if self.htgt(p) != self.hsrc(q):
            raise StructuralError(f"{self.name}: paths not composable")
        return p + q

    def eps(self, p: Path):
        """Left-nested evaluation of a path in the base tables."""
        return _fold(self._eps, p, p, self._eps_rule)

    def paths(self, bound: int):
        """All composable paths of length <= bound, deterministic order."""
        A = self.base
        out = []
        frontier = [Path(a, ()) for a in A.objects]
        out.extend(frontier)
        for _ in range(bound):
            nxt = []
            for p in frontier:
                end = self.htgt(p)
                for f in A.hmors:
                    if A.hsrc(f) == end:
                        nxt.append(p + Path(end, (f,)))
            out.extend(nxt)
            frontier = nxt
        return out

    def composable_pairs(self, bound: int, paths=None):
        """The pairs (p, q) of ``paths(bound)`` with q starting where p ends
        and len(p) + len(q) <= bound, in the order of the double loop over
        them; each p's first pair is (p, the empty path at its end).  A
        caller that holds ``paths(bound)`` passes it as ``paths``."""
        if paths is None:
            paths = self.paths(bound)
        starting = {}
        for q in paths:
            starting.setdefault(q.src, []).append(q)
        out = []
        for p in paths:
            for q in starting[self.htgt(p)]:
                if len(p) + len(q) > bound:
                    break                       # paths come in length order
                out.append((p, q))
        return out

    # -- coherence isomorphism -----------------------------------------------

    def xi(self, p: Path, q: Path):
        """(cell, inverse): eps(p + q) -> eps(q).eps(p), fixed left-nesting;
        a fold over q, and the right unitor of eps(q) when p is empty."""
        return _fold(self._xi, (p, q), q if p.hmors else p, self._xi_rule)

    def _xi_unitor(self, pq):
        p, q = pq
        c, d = self.base.lunit_of(self.eps(p)) if p.hmors else self.base.runit_of(self.eps(q))
        return (d, c)

    def _xi_step(self, pq, q1, f):
        A, p = self.base, pq[0]
        sub, sub_inv = self.xi(p, q1)
        step = A.assoc_of(self.eps(p), self.eps(q1), f)
        return (A.vcomp_cells(A.hcomp_cell(A.vid_of(f), sub), step[1]),
                A.vcomp_cells(step[0], A.hcomp_cell(A.vid_of(f), sub_inv)))

    # -- cells ---------------------------------------------------------------

    def frame(self, c: StCell) -> Frame:
        fr = self.base.frame(c.payload)
        return Frame(c.dom, c.cod, fr.left, fr.right)

    def check_cell(self, c: StCell) -> bool:
        fr = self.base.frame(c.payload)
        return fr.top == self.eps(c.dom) and fr.bottom == self.eps(c.cod)

    def mk_cell(self, dom: Path, cod: Path, payload) -> StCell:
        c = StCell(dom, cod, payload)
        if not self.check_cell(c):
            raise StructuralError(f"{self.name}: payload frame does not match eps boundaries")
        return c

    def vid_of(self, p: Path) -> StCell:
        return StCell(p, p, self.base.vid_of(self.eps(p)))

    def hid_of(self, u) -> StCell:
        return StCell(self.h_id(self.base.vsrc(u)), self.h_id(self.base.vtgt(u)),
                      self.base.hid_of(u))

    def vcomp_cell(self, lo: StCell, up: StCell) -> StCell:
        if up.cod != lo.dom:
            raise StructuralError(f"{self.name}: st-cells not v-composable")
        return StCell(up.dom, lo.cod, self.base.vcomp_cell(lo.payload, up.payload))

    def vcomp_cells(self, *chain):
        out = chain[0]
        for c in chain[1:]:
            out = self.vcomp_cell(c, out)
        return out

    def hcomp_payload(self, dl: Path, cl: Path, pl, dr: Path, cr: Path, pr):
        """Payload of the horizontal composite, without allocating the cell."""
        A = self.base
        mid = A.hcomp_cell(pr, pl)
        return A.vcomp_cell(self.xi(cl, cr)[1], A.vcomp_cell(mid, self.xi(dl, dr)[0]))

    def hcomp_cell(self, r: StCell, l: StCell) -> StCell:
        A = self.base
        if A.frame(l.payload).right != A.frame(r.payload).left:
            raise StructuralError(f"{self.name}: st-cells not h-composable")
        payload = self.hcomp_payload(l.dom, l.cod, l.payload, r.dom, r.cod, r.payload)
        return StCell(l.dom + r.dom, l.cod + r.cod, payload)

    def assoc_of(self, p, q, r):
        c = self.vid_of(p + q + r)
        return (c, c)

    def lunit_of(self, p):
        c = self.vid_of(p)
        return (c, c)

    def runit_of(self, p):
        c = self.vid_of(p)
        return (c, c)

    def is_globular(self, c: StCell) -> bool:
        fr = self.base.frame(c.payload)
        ids = set(self.base.v_identity.values())
        return fr.left in ids and fr.right in ids

    def inverse_of(self, c: StCell):
        d = self.base.inverse_of(c.payload)
        if d is None:
            return None
        return StCell(c.cod, c.dom, d)

    def inv(self, c: StCell) -> StCell:
        d = self.inverse_of(c)
        if d is None:
            raise StructuralError(f"{self.name}: st-cell not invertible")
        return d

    def cells_with_frame(self, fr: Frame):
        want = Frame(self.eps(fr.top), self.eps(fr.bottom), fr.left, fr.right)
        return [StCell(fr.top, fr.bottom, c) for c in self.base.cells_with_frame(want)]

    def globular_cells(self, p: Path, q: Path):
        return [StCell(p, q, c) for c in self.base.globular_cells(self.eps(p), self.eps(q))]

    def cells(self, bound: int):
        """All st-cells whose boundary paths have length <= bound: dom in
        ``paths(bound)`` order, then cod in that order, then base order.  The
        payload frame fixes the vertical boundaries, so the paths need not
        share endpoints."""
        A, ps = self.base, self.paths(bound)
        ev = [self.eps(p) for p in ps]
        at = {}                                 # eps value -> its positions in ps
        for i, e in enumerate(ev):
            at.setdefault(e, []).append(i)
        below = {}                              # top -> bottom -> cells, base order
        for c in A.cells:
            fr = A.frame(c)
            below.setdefault(fr.top, {}).setdefault(fr.bottom, []).append(c)
        cods = {t: [(ps[i], bs[ev[i]]) for i in sorted(i for b in bs for i in at.get(b, ()))]
                for t, bs in below.items()}
        return [StCell(p, q, c) for p, e in zip(ps, ev) for q, cs in cods.get(e, ()) for c in cs]

    def table(self, bound: int) -> TableDouble:
        """The bounded part of st A as a table: A's objects and vertical
        data, ``paths(bound)``, ``cells(bound)``, every vertical composite,
        the horizontal composites whose dom and cod lengths each total
        <= bound, and identity constraints.  `homs`' checkers run on it, so
        Ps(st A, B) is decided by the same axioms as Hom(A, B).  Its cells
        and composites are `_StKernel`'s, which refuses an ill-framed base."""
        A, K = self.base, _StKernel(self, bound)
        paths, pairs, cells = K.paths, K.pairs, K.cells
        vcomp, hcomp = K.composites()
        return TableDouble(
            name=f"{self.name}<={bound}", objects=A.objects,
            vmors=A.vmors, vmor_src=A.vmor_src, vmor_tgt=A.vmor_tgt,
            v_identity=A.v_identity, vcomp_vmor_table=A.vcomp_vmor_table,
            hmors=tuple(paths), hmor_src={p: p.src for p in paths},
            hmor_tgt={p: self.htgt(p) for p in paths},
            h_identity={p.src: p for p in paths if not p.hmors},
            hcomp_hmor_table={(q, p): p + q for p, q in pairs},
            cells=tuple(cells), cell_frames={c: self.frame(c) for c in cells},
            vcomp_cell_table=vcomp, vid_cell={p: self.vid_of(p) for p in paths},
            hcomp_cell_table=hcomp, hid_cell={u: self.hid_of(u) for u in A.vmors},
            assoc={pqr: self.assoc_of(*pqr) for pqr in K.triples},
            lunit={p: self.lunit_of(p) for p in paths},
            runit={p: self.runit_of(p) for p in paths},
        )


def st(A: TableDouble) -> StrictifiedDouble:
    return StrictifiedDouble(A)


# ---------------------------------------------------------------------------
# kappa and the unit
# ---------------------------------------------------------------------------

def kappa(S: StrictifiedDouble, p: Path) -> StCell:
    """The invertible globular cell p -> (eps p), given by the identity cell
    on the evaluation."""
    e = S.eps(p)
    return StCell(p, S.unary(e), S.base.vid_of(e))


def eta(A: TableDouble, S: StrictifiedDouble | None = None) -> PseudoDoubleFunctor:
    """The unit A -> st A: identity on the underlying category, unary paths
    on horizontal morphisms; constraints are kappa cells."""
    S = S or st(A)
    phi2 = {}
    for (g, f) in A.hcomp_hmor_table:
        phi2[(f, g)] = kappa(S, Path(A.hsrc(f), (f, g)))
    return PseudoDoubleFunctor(
        dom=A, cod=S,
        obj_map={a: a for a in A.objects},
        vmor_map={u: u for u in A.vmors},
        hmor_map={f: S.unary(f) for f in A.hmors},
        cell_map={c: StCell(S.unary(A.frame(c).top), S.unary(A.frame(c).bottom), c)
                  for c in A.cells},
        phi0={a: kappa(S, S.h_id(a)) for a in A.objects},
        phi2=phi2,
        name=f"eta_{A.name}",
    )


# ---------------------------------------------------------------------------
# bounded strictness check (the st-side oracle)
# ---------------------------------------------------------------------------

class _StKernel:
    """Bounded st A as integer ids, built once: `StrictifiedDouble.table`
    reads its composites and triples, and `st_strict_report` runs every
    family but C7 and C8 on it.

    A cell of st A is a base cell between the evaluations of its boundary
    paths, so each composite is a few lookups in small tables:

    * ids: ``S.paths(bound)`` and ``S.cells(bound)`` in their construction
      order: the empty paths first, in ``A.objects`` order, then by length;
      the cells by (dom, cod, payload), so by (dom, cod length) too; base
      cells and vmors keep the numbers of the base's integer form;
    * per path: ``psrc``/``ptgt``, its ends as objects, which number the
      empty paths there, ``plen``, and ``vidp``, its vertical identity's
      payload; per st-cell: ``dom``, ``cod``, ``pay`` (payload), the
      boundary lengths, and the payload's vertical sides in ``sides``;
    * ``cv``/``ch``: that form's vertical/horizontal composition of base
      cells, whose sentinel ``undef`` stands for "undefined"; a composite
      with either factor undefined is undefined;
    * ``pp``/``pq``: ``S.composable_pairs``; ``XF``/``XB``: forward/inverse
      ``S.xi`` on each of them (``undef`` elsewhere); ``CAT`` the id of the
      concatenation, or the extra path id ``len(paths)`` where there is
      none; ``tp``/``tq``/``tr``, the composable triples as ids in the order
      of the walk over the pairs, and ``triples`` as paths.

    The payload of a horizontal composite is then
    ``cv(XB[cl, cr], cv(ch(pr, pl), XF[dl, dr]))``.  ``H`` lists every
    pair (c, c') with c' a right neighbour of c (its payload starts on c's
    right side, where c.dom ends) and both boundaries within the bound,
    ordered by c, then dom length, cod length and position of c'; per H
    pair, ``Hpay`` is its composite's payload, ``Hd``/``Hk`` its boundaries,
    and ``HXF``, ``HXB``, ``Hpl``, ``Hpr`` the other terms of an interchange
    grid that depend on that pair alone.  ``B`` indexes the bottom rows of
    interchange grids: ``H`` sorted by (dom of c, dom of c', c, c'), as the
    doms of an H pair are the cods of the H pair of their identity cells.
    A large family runs in batches of consecutive instances.  A base that
    fails a structure, frame or globularity family is refused on entry, so
    every composite is defined; an ``undef`` in a family, or a composite
    outside ``cells``, raises a `StructuralError`."""

    def __init__(self, S: StrictifiedDouble, bound: int):
        A = S.base
        for f in validate(A).failures():
            if f.check.startswith(("structure.", "frame.")) or f.check.endswith(".globular"):
                raise StructuralError(f"{S.name}: the base fails {f.check} at "
                                      f"({', '.join(map(str, f.witness))})")
        T = A.interned()
        self.name, self.bound = S.name, bound
        self.paths = paths = S.paths(bound)
        self.pairs = pairs = S.composable_pairs(bound, paths)
        self.cells = cells = S.cells(bound)
        self.cv, self.ch, self.undef = T.cv, T.ch, T.cv.undef
        pid = {p: i for i, p in enumerate(paths)}
        self.P = P = len(paths)
        self.psrc, self.ptgt = _ids(T.O, (p.src for p in paths)), _ids(T.O, map(S.htgt, paths))
        self.plen = plen = np.fromiter(map(len, paths), np.intp, P)
        self.vidp = T.vid[_ids(T.H, map(S.eps, paths))]
        cols = [(pid[p], pid[q], pid[p + q], *(T.C[x] for x in S.xi(p, q))) for p, q in pairs]
        pp, pq, cat, fwd, bwd = np.array(cols, np.intp).reshape(-1, 5).T.copy()
        self.pp, self.pq = pp, pq
        self.XF, self.XB = np.full((2, P + 1, P + 1), self.undef, np.int32)
        self.CAT = CAT = np.full((P + 1, P + 1), P, np.int32)
        CAT[pp, pq], self.XF[pp, pq], self.XB[pp, pq] = cat, fwd, bwd

        # triples: each pair (p, q), then the pairs (q, r) by length of r
        L1 = bound + 1
        key = pp * L1 + plen[pq]
        own, k = _ranges(key.searchsorted(pq * L1),
                         key.searchsorted(pq * L1 + bound - plen[pp] - plen[pq], "right"))
        self.tp, self.tq, self.tr = pp[own], pq[own], pq[k]
        self.triples = [(paths[i], paths[j], paths[k])
                        for i, j, k in zip(self.tp.tolist(), self.tq.tolist(), self.tr.tolist())]

        self.dom = dom = _ids(pid, (c.dom for c in cells))
        self.cod = cod = _ids(pid, (c.cod for c in cells))
        self.pay = pay = _ids(T.C, (c.payload for c in cells))
        self.sides = T.frame[2:]
        left, right = self.sides[:, pay]
        self.dlen, self.clen = dlen, clen = plen[dom], plen[cod]
        self._vkey = dom * L1 + clen

        # H: the right neighbours of each cell c within the bound; the cells
        # sorted by (left side, dom length, cod length) hold the right
        # neighbours of c with dom length dl in one run per dl (a cell's
        # left side fixes where its dom starts, the base being well-framed)
        key = left * L1 * L1 + dlen * L1 + clen
        order = np.argsort(key, kind="stable")
        self._skey = key[order]
        self._want = (right * L1 * L1)[:, None] + np.arange(L1) * L1
        lo, hi = self._rights(np.arange(len(cells)), bound - dlen, bound - clen)
        run, pos = _ranges(lo.ravel(), hi.ravel())
        self.Hl, self.Hr = Hl, Hr = run // L1, order[pos]
        n = np.maximum(hi - lo, 0).ravel()
        self._hbase = (np.cumsum(n) - n).reshape(lo.shape) - lo    # H index - pos
        self.Hpl, self.Hpr = pay[Hl], pay[Hr]
        self.Hd, self.Hk = CAT[dom[Hl], dom[Hr]], CAT[cod[Hl], cod[Hr]]
        self.HXF, self.HXB = self.XF[dom[Hl], dom[Hr]], self.XB[cod[Hl], cod[Hr]]
        self.Hpay = self.cv(self.HXB, self.cv(self.ch(self.Hpr, self.Hpl), self.HXF))
        self.B = B = np.lexsort((Hr, Hl, dom[Hr], dom[Hl]))
        self._bkey = (dom[Hl[B]] * P + dom[Hr[B]]) * L1 + clen[Hl[B]]

    def composites(self):
        """The vertical and horizontal composition tables of ``cells``: each
        pair (lo, up) with lo's dom up's cod, by up then lo, and each pair
        (r, l) in ``H``, by l then r."""
        dom, cod, pay, Hl, Hr = self.dom, self.cod, self.pay, self.Hl, self.Hr
        up, lo = _ranges(dom.searchsorted(cod), dom.searchsorted(cod, "right"))
        v = self._cell_ids(dom[up], cod[lo], self.cv(pay[lo], pay[up]))
        o = np.lexsort((Hr, Hl))
        h = self._cell_ids(self.Hd[o], self.Hk[o], self.Hpay[o])
        C = np.empty(len(self.cells), object)
        C[:] = self.cells
        return (dict(zip(zip(C[lo].tolist(), C[up].tolist()), C[v].tolist())),
                dict(zip(zip(C[Hr[o]].tolist(), C[Hl[o]].tolist()), C[h].tolist())))

    def _cell_ids(self, dom, cod, pay):
        """The ids of the st-cells (dom, cod, pay), each one of ``cells``."""
        width = self.undef + 1
        ckey = (self.dom * self.P + self.cod) * width + self.pay
        key = (dom.astype(np.int64) * self.P + cod) * width + pay
        i = ckey.searchsorted(key)
        if (ckey.take(i, mode="clip") != key).any():
            raise StructuralError(f"{self.name}: a composite is not a bounded st-cell")
        return i

    def _rights(self, cs, dmax, cmax):
        """The right neighbours of each c in cs with dom length <= dmax and
        cod length <= cmax: per dom length dl, a run [lo, hi) of the sorted
        cells, empty when dl > dmax."""
        want = self._want[cs]
        lo = np.searchsorted(self._skey, want)
        hi = np.searchsorted(self._skey, want + cmax[:, None], "right")
        return lo, np.where(np.arange(self.bound + 1) <= dmax[:, None], hi, lo)

    def _below(self, cs, shortest, longest):
        """Per c in cs, the run [lo, hi) of the cells on c's cod with cod
        length from shortest to longest (hi = lo where there is none)."""
        at, key = self.cod[cs] * (self.bound + 1), self._vkey
        lo = key.searchsorted(at + shortest)
        return lo, np.maximum(lo, key.searchsorted(at + longest, "right"))

    def hp(self, dl, cl, pl, dr, cr, pr):
        """Payload of the horizontal composite of the cells (dl, cl, pl) and
        (dr, cr, pr), on the right; ``StrictifiedDouble.hcomp_payload`` on ids."""
        cv = self.cv
        return cv(self.XB[cl, cr], cv(self.ch(pr, pl), self.XF[dl, dr]))

    def _require(self, rep: Report, family: str, ok, witness, *composites):
        """`Report.require` on a batch: one instance of family per entry of
        ok, and a finding with witness(n) for each n where ok is false, in
        order; an undefined composite raises."""
        if any((x == self.undef).any() for x in composites):
            raise StructuralError(f"{self.name}: undefined composite")
        if len(ok):
            rep.counts[family] = rep.counts.get(family, 0) + len(ok)
        for n in np.flatnonzero(~ok).tolist():
            rep.add(family, False, witness(n))

    # -- the families ----------------------------------------------------------

    def hmor(self, rep: Report):
        """P1: concatenation's units on every path, then its associativity
        on every composable triple."""
        CAT, paths, i = self.CAT, self.paths, np.arange(self.P)
        self._require(rep, "st.hmor.unit", (CAT[i, self.ptgt] == i) & (CAT[self.psrc, i] == i),
                      lambda n: (paths[n],))
        p, q, r = self.tp, self.tq, self.tr
        self._require(rep, "st.hmor.assoc", CAT[CAT[p, q], r] == CAT[p, CAT[q, r]],
                      self.triples.__getitem__)

    def vunit(self, rep: Report):
        """C1: each cell composed with the vertical identity of its cod, and
        with that of its dom."""
        cv, pay, vidp, cells = self.cv, self.pay, self.vidp, self.cells
        lo, up = cv(vidp[self.cod], pay), cv(pay, vidp[self.dom])
        self._require(rep, "st.cell.vunit", (lo == pay) & (up == pay), lambda n: (cells[n],),
                      lo, up)

    def vassoc(self, rep: Report):
        """C2 on every chain c1, c2, c3 of cells whose four boundary paths
        total <= bound, then on every chain of cells with unary boundaries,
        each in the order of the loops over c1, c2 and c3."""
        cv, pay, clen, cells = self.cv, self.pay, self.clen, self.cells
        unary = np.flatnonzero((self.dlen == 1) & (clen == 1))
        # (shortest cod of c2 and c3, the c1s, the budget for both cods)
        for m, c1, budget in ((0, np.arange(len(cells)), self.bound - self.dlen - clen),
                              (1, unary, np.full(len(unary), 2))):
            lo, hi = self._below(c1, m, budget - m)
            for a, z in _parts(hi - lo):
                own, c2 = _ranges(lo[a:z], hi[a:z])
                x1, rest = c1[a:z][own], budget[a:z][own] - clen[c2]
                lo3, hi3 = self._below(c2, m, rest)
                for b, y in _parts(hi3 - lo3):
                    own, c3 = _ranges(lo3[b:y], hi3[b:y])
                    i1, i2 = x1[b:y][own], c2[b:y][own]
                    p1, p2, p3 = pay[i1], pay[i2], pay[c3]
                    lhs, rhs = cv(p3, cv(p2, p1)), cv(cv(p3, p2), p1)
                    self._require(rep, "st.cell.vassoc", lhs == rhs,
                                  lambda n: (cells[i1[n]], cells[i2[n]], cells[c3[n]]), lhs, rhs)

    def hunit(self, rep: Report):
        """C3: each cell composed with the vertical identity of the empty
        path on its left, then on its right, where their sides meet."""
        d, k, pay, vidp, (lft, rgt) = self.dom, self.cod, self.pay, self.vidp, self.sides
        el, er = self.psrc[d], self.ptgt[d]
        c, right = np.nonzero(np.stack((rgt[vidp[el]] == lft[pay], rgt[pay] == lft[vidp[er]]), 1))
        e = np.where(right, er[c], el[c])
        cell, unit = (d[c], k[c], pay[c]), (e, e, vidp[e])
        (dl, cl, pl), (dr, cr, pr) = ([np.where(right, *xy) for xy in zip(*sides)]
                                      for sides in ((cell, unit), (unit, cell)))
        got = self.hp(dl, cl, pl, dr, cr, pr)
        ok = (got == pay[c]) & (self.CAT[dl, dr] == d[c]) & (self.CAT[cl, cr] == k[c])
        self._require(rep, "st.cell.hunit", ok, lambda n: (self.cells[c[n]],), got)

    def hassoc(self, rep: Report):
        """C4 on every triple (c1, c2, c3) of H-neighbours whose dom and cod
        lengths each total <= bound, except for c1 with both boundaries
        at the bound; counted even when there is none."""
        b, Hl, Hr, Hpay, Hd, Hk = self.bound, self.Hl, self.Hr, self.Hpay, self.Hd, self.Hk
        d, k, pay, dlen, clen, cells = self.dom, self.cod, self.pay, self.dlen, self.clen, self.cells
        rep.counts.setdefault("st.cell.hassoc", 0)
        outer = np.flatnonzero((dlen[Hl] < b) | (clen[Hl] < b))
        # each outer pair has b + 1 runs of right neighbours, one per dom length
        for a, z in _parts(np.full(len(outer), b + 1)):
            chunk = outer[a:z]
            c1, c2 = Hl[chunk], Hr[chunk]
            lo, hi = self._rights(c2, b - dlen[c1] - dlen[c2], b - clen[c1] - clen[c2])
            hbase = self._hbase[c2]
            for r0, r1 in _parts(np.maximum(hi - lo, 0).sum(1)):
                run, pos = _ranges(lo[r0:r1].ravel(), hi[r0:r1].ravel())
                h12 = chunk[r0:r1][run // (b + 1)]
                h23 = hbase[r0:r1].ravel()[run] + pos
                l, r = Hl[h12], Hr[h23]
                lhs = self.hp(Hd[h12], Hk[h12], Hpay[h12], d[r], k[r], pay[r])
                rhs = self.hp(d[l], k[l], pay[l], Hd[h23], Hk[h23], Hpay[h23])
                self._require(rep, "st.cell.hassoc", lhs == rhs,
                              lambda n: (cells[l[n]], cells[Hr[h12[n]]], cells[r[n]]), lhs, rhs)

    def vid_mult(self, rep: Report):
        """C5: the vertical identities of each composable pair of paths,
        composed, against that of the concatenation."""
        pp, pq, vidp, paths = self.pp, self.pq, self.vidp, self.paths
        got = self.hp(pp, pp, vidp[pp], pq, pq, vidp[pq])
        self._require(rep, "st.vid.mult", got == vidp[self.CAT[pp, pq]],
                      lambda n: (paths[pp[n]], paths[pq[n]]), got)

    def interchange(self, rep: Report):
        """C6 on every 2x2 grid: (l1, r1) in H, l2 below l1 and r2 below r1
        with l2's right side r2's left side, and the cod lengths of each row
        totalling <= bound; counted even when there is none."""
        Hl, Hr, Hpl, Hpr, cells, cv = self.Hl, self.Hr, self.Hpl, self.Hpr, self.cells, self.cv
        rep.counts.setdefault("st.interchange", 0)
        # the bottom rows under H pair h are a run of B, sorted by l2's cod
        # length (cells on one dom sort by cod), so the bounded ones lead it
        key = (self.cod[Hl] * self.P + self.cod[Hr]) * (self.bound + 1)
        lo = self._bkey.searchsorted(key)
        hi = self._bkey.searchsorted(key + self.bound - self.clen[Hr], "right")
        for a, z in _parts(hi - lo):
            own, bi = _ranges(lo[a:z], hi[a:z])
            h, b = own + a, self.B[bi]
            lhs = cv(self.Hpay[b], self.Hpay[h])
            mid = self.ch(cv(Hpr[b], Hpr[h]), cv(Hpl[b], Hpl[h]))
            rhs = cv(self.HXB[b], cv(mid, self.HXF[h]))
            self._require(rep, "st.interchange", lhs == rhs, lambda n: (
                cells[Hl[h[n]]], cells[Hr[h[n]]], cells[Hl[b[n]]], cells[Hr[b[n]]]), lhs, rhs)


def st_strict_report(S: StrictifiedDouble, bound: int) -> Report:
    """Verify every strict double-category axiom instance of st A within the
    stated bounds.  Instance bounds, per family (exact for each degree):

    * path associativity/unit: all triples/pairs with total length <= bound;
    * cell vcomp associativity: all chains whose four boundary paths have
      total length <= bound, plus the full unary stratum (which quantifies
      over every payload chain of the base);
    * cell vcomp units: all cells with boundary lengths <= bound;
    * hcomp of cells: all tuples with total boundary length <= bound on each
      side (so all instances whose composites have degree <= bound);
    * interchange: all 2x2 grids bounded the same way;
    * constraint cells: identity on all composable path tuples, total <= bound.

    The paths, cells and composites are `_StKernel`'s, which validates the
    base first: if it fails a ``structure.*``, ``frame.*`` or ``*.globular``
    family of `validate`, some composite of st A is undefined, and a
    `StructuralError` names the first such failure and its witness.  A base
    that fails only axiom families is checked as any other.  Every family
    but C7 and C8, which hold by construction, runs on the kernel's ids,
    an instance as a handful of array gathers; each is still computed and
    compared, and failures come in loop order with path and st-cell
    witnesses.
    """
    A, K = S.base, _StKernel(S, bound)
    rep = Report(f"strict({S.name})", params={"bound": bound})
    for family in (K.hmor, K.vunit, K.vassoc, K.hunit, K.hassoc, K.vid_mult, K.interchange):
        family(rep)                                 # P1, C1-C6

    # C7: horizontal identities functorial
    for a in A.objects:
        rep.require("st.hid.videntity",
                    S.hid_of(A.v_id(a)) == S.vid_of(S.h_id(a)), (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        rep.require("st.hid.functorial",
                    S.vcomp_cell(S.hid_of(w), S.hid_of(u)) == S.hid_of(wu), (u, w))

    # C8: all constraints are identity cells
    for p, q, r in K.triples:
        c, d = S.assoc_of(p, q, r)
        rep.require("st.constraint.identity",
                    c == S.vid_of(p + q + r) and d == c, (p, q, r))
    for p in K.paths:
        rep.require("st.constraint.identity",
                    S.lunit_of(p)[0] == S.vid_of(p) and S.runit_of(p)[0] == S.vid_of(p), (p,))

    rep.params["instances"] = dict(rep.counts)
    return rep


# ---------------------------------------------------------------------------
# extensions: the four operators of the universal property
# ---------------------------------------------------------------------------

class StExtension:
    """The strict double functor st A -> B induced by a pseudo functor
    F: A -> B into a strict B, a table or st B: paths go to their left-nested
    evaluations in B and a cell goes to the conjugate of its payload by the
    canonical comparison cells phi.  `functor` gives it as a
    `PseudoDoubleFunctor` on a bounded table of st A."""

    def __init__(self, F: PseudoDoubleFunctor, S: StrictifiedDouble, B):
        self.F = F
        self.S = S
        self.B = B
        self.name = f"ext({F.name})"
        self._phi = {}
        self._path = {}
        self._cell = {}
        self._path_rule = (lambda p: B.h_id(F.obj(p.src)), lambda p: F.hmor(p.hmors[0]),
                           lambda p, p1, f: B.hcomp_hmor(F.hmor(f), self.on_path(p1)))
        self._phi_rule = (self._phi_empty, lambda p: (B.vid_of(F.hmor(p.hmors[0])),) * 2,
                          self._phi_step)

    def obj(self, a):
        return self.F.obj(a)

    def vmor(self, u):
        return self.F.vmor(u)

    def on_path(self, p: Path):
        return _fold(self._path, p, p, self._path_rule)

    def phi(self, p: Path):
        """(cell, inverse): eps_B(F p) -> F(eps_A p)."""
        return _fold(self._phi, p, p, self._phi_rule)

    def _phi_empty(self, p):
        c = self.F.phi0[p.src]
        return (c, self.B.inv(c))

    def _phi_step(self, p, p1, f):
        B, F = self.B, self.F
        sub, sub_inv = self.phi(p1)
        c2 = F.phi2[(self.S.eps(p1), f)]
        return (B.vcomp_cells(B.hcomp_cell(B.vid_of(F.hmor(f)), sub), c2),
                B.vcomp_cells(B.inv(c2), B.hcomp_cell(B.vid_of(F.hmor(f)), sub_inv)))

    def on_cell(self, c: StCell):
        out = self._cell.get(c)
        if out is None:
            out = self._cell[c] = self.B.vcomp_cells(
                self.phi(c.dom)[0], self.F.cell(c.payload), self.phi(c.cod)[1])
        return out

    def functor(self, T: TableDouble) -> PseudoDoubleFunctor:
        """This strict functor on T = ``S.table(bound)``: on_path and on_cell,
        with identity constraints."""
        B, hmor_map = self.B, {p: self.on_path(p) for p in T.hmors}
        return PseudoDoubleFunctor(
            dom=T, cod=B, obj_map=self.F.obj_map, vmor_map=self.F.vmor_map,
            hmor_map=hmor_map, cell_map={c: self.on_cell(c) for c in T.cells},
            phi0={a: B.vid_of(hmor_map[p]) for a, p in T.h_identity.items()},
            phi2={(f, g): B.vid_of(hmor_map[gf]) for (g, f), gf in T.hcomp_hmor_table.items()},
            name=self.name)


def extend_functor(F: PseudoDoubleFunctor, S: StrictifiedDouble, B) -> StExtension:
    if isinstance(B, TableDouble) and not is_strict(B):
        raise StructuralError("extend_functor requires a strict codomain")
    return StExtension(F, S, B)


def restrict_extension(E: StExtension, etaA: PseudoDoubleFunctor) -> PseudoDoubleFunctor:
    """E . eta as a pseudo double functor A -> B."""
    S, B = E.S, E.B
    A = S.base
    return PseudoDoubleFunctor(
        dom=A, cod=B,
        obj_map={a: E.obj(a) for a in A.objects},
        vmor_map={u: E.vmor(u) for u in A.vmors},
        hmor_map={f: E.on_path(etaA.hmor(f)) for f in A.hmors},
        cell_map={c: E.on_cell(etaA.cell(c)) for c in A.cells},
        phi0={a: E.on_cell(etaA.phi0[a]) for a in A.objects},
        phi2={k: E.on_cell(v) for k, v in etaA.phi2.items()},
        name=f"{E.name}.eta",
    )


def extend_vertical(t: VerticalTransformation, E: PseudoDoubleFunctor,
                    E2: PseudoDoubleFunctor) -> VerticalTransformation:
    """t extended along eta to the strict functors E, E2 on a bounded table
    of st A (`StExtension.functor`): its component at a path is the
    horizontal composite of its components at the steps."""
    B, at = E.cod, {}
    rule = (lambda p: B.hid_of(t.at_obj[p.src]), None,
            lambda p, p1, f: B.hcomp_cell(t.at_hmor[f], _fold(at, p1, p1, rule)))
    for p in E.dom.hmors:
        _fold(at, p, p, rule)
    return VerticalTransformation(E, E2, dict(t.at_obj), at)


def extend_horizontal(t: HorizontalPseudoTransformation, E: PseudoDoubleFunctor,
                      E2: PseudoDoubleFunctor) -> HorizontalPseudoTransformation:
    """t extended along eta to the strict functors E, E2 on a bounded table
    of st A: its component at a path, (cell, inverse), pastes its
    components at the steps."""
    T, B, at = E.dom, E.cod, {}

    def step(p, p1, f):
        (sub, sub_inv), (tf, tf_inv) = _fold(at, p1, p1, rule), t.at_hmor[f]
        e1, e2 = B.vid_of(E.hmor(p1)), B.vid_of(E2.hmor(Path(T.htgt(p1), (f,))))
        return (B.vcomp_cells(B.hcomp_cell(tf, e1), B.hcomp_cell(e2, sub)),
                B.vcomp_cells(B.hcomp_cell(e2, sub_inv), B.hcomp_cell(tf_inv, e1)))

    rule = (lambda p: (B.vid_of(t.at_obj[p.src]),) * 2, None, step)
    for p in T.hmors:
        _fold(at, p, p, rule)
    return HorizontalPseudoTransformation(E, E2, dict(t.at_obj), dict(t.at_vmor), at)


def extend_modification(m: Modification, top, bottom, left, right) -> Modification:
    """m in the frame of the extended transformations: the same components."""
    return Modification(top, bottom, left, right, dict(m.at_obj))


def counit(B: TableDouble) -> StExtension:
    """st B -> B for strict B: evaluate paths, take payloads of cells."""
    return extend_functor(identity_functor(B), st(B), B)


def triangle1_report(A: TableDouble, bound: int) -> Report:
    """The extension of eta_A along eta_A is the identity of bounded st A."""
    S = st(A)
    E = StExtension(eta(A, S), S, S)
    rep = Report(f"triangle1({A.name})", params={"bound": bound})
    for p in S.paths(bound):
        rep.require("tri1.path", E.on_path(p) == p, (p,))
    for c in S.cells(bound):
        rep.require("tri1.cell", E.on_cell(c) == c, (c,))
    return rep


def triangle2_report(B: TableDouble) -> Report:
    """counit_B . eta_B equals the identity pseudo functor of a strict B,
    on the nose including constraints."""
    rep = Report(f"triangle2({B.name})")
    S = st(B)
    etaB = eta(B, S)
    eps = counit(B)
    F = restrict_extension(eps, etaB)
    I = identity_functor(B)
    rep.require("tri2.obj", F.obj_map == I.obj_map)
    rep.require("tri2.vmor", F.vmor_map == I.vmor_map)
    rep.require("tri2.hmor", F.hmor_map == I.hmor_map)
    rep.require("tri2.cell", F.cell_map == I.cell_map)
    rep.require("tri2.phi0", F.phi0 == I.phi0)
    rep.require("tri2.phi2", F.phi2 == I.phi2)
    return rep


# ---------------------------------------------------------------------------
# the three-dimensional universal property
# ---------------------------------------------------------------------------

def verify_3d_iso(A: TableDouble, B: TableDouble, bound: int,
                  max_candidates=None) -> Report:
    """Restriction along eta_A from bounded data of Ps(st A, B) to Hom(A, B)
    is bijective on objects, vertical morphisms, horizontal morphisms and
    cells, with inverse given by the four extension operators.

    Both sides are parameterised by the same finite tuples (the values on
    the generating data of st A, equivalently the full data of a pseudo
    functor A -> B and its transformations), so the verification runs over
    every frame-typed candidate and confirms that the two membership tests
    agree: `homs`' checkers over A on one side and, on the other, the same
    checkers on the extension over ``S.table(bound)``, the bounded st A, with
    a functor also strict there: Ps(st A, B) is the sub double category of
    Hom(st A, B) on the strict functors.  Round trips are exact by
    construction; the functor's is re-verified on the members.
    """
    if not is_strict(B):
        raise StructuralError("verify_3d_iso requires a strict codomain")
    S = st(A)
    T = S.table(bound)
    etaA = eta(A, S)
    rep = Report(f"3d-iso({A.name},{B.name})", params={"bound": bound})
    rep.params["inverse_maps"] = ("extend_functor", "extend_vertical",
                                  "extend_horizontal", "extend_modification")

    members = []        # (F, extension) for the valid tuples
    for F in iter_functor_candidates(A, B, False, max_candidates):
        a_ok = check_functor(F).ok
        E = StExtension(F, S, B)
        EF = E.functor(T)
        # functor() builds identity constraints, so check_functor's phi frames
        # already force strictness; is_strict_functor guards that construction
        b_ok = (check_functor(EF).ok and is_strict_functor(EF)
                and restrict_extension(E, etaA).key() == F.key())
        rep.require("iso.obj.agree", a_ok == b_ok, (F.key(),),
                    detail=f"hom-side={a_ok} st-side={b_ok}")
        if a_ok and b_ok:
            F.name = f"F{len(members)}"
            members.append((F, EF))
    rep.params["functor_candidates"] = rep.counts.get("iso.obj.agree", 0)
    rep.params["objects_each_side"] = len(members)

    def agreeing(family, candidates, check, extend, witness=()):
        """Every raw frame-typed candidate is an instance of `family`: its
        hom-side membership must agree with bounded st-side membership of its
        extension.  Returns the (hom-side, st-side) pairs both accept."""
        got = []
        for t in candidates:
            a_ok = check(t).ok
            st_t = extend(t)
            b_ok = check(st_t).ok
            rep.require(family, a_ok == b_ok, witness + (t.key(),),
                        detail=f"hom-side={a_ok} st-side={b_ok}")
            if a_ok and b_ok:
                got.append((t, st_t))
        return got

    vmembers, hmembers = {}, {}
    for i, (F, EF) in enumerate(members):
        for j, (G, EG) in enumerate(members):
            vmembers[(i, j)] = agreeing(
                "iso.vmor.agree", iter_vertical_candidates(F, G, max_candidates),
                check_vertical, lambda t: extend_vertical(t, EF, EG), (F.name, G.name))
            hmembers[(i, j)] = agreeing(
                "iso.hmor.agree", iter_horizontal_candidates(F, G, max_candidates),
                check_horizontal, lambda t: extend_horizontal(t, EF, EG), (F.name, G.name))
    rep.params["vmors_each_side"] = sum(map(len, vmembers.values()))
    rep.params["hmors_each_side"] = sum(map(len, hmembers.values()))
    rep.params["vmor_candidates"] = rep.counts.get("iso.vmor.agree", 0)
    rep.params["hmor_candidates"] = rep.counts.get("iso.hmor.agree", 0)

    # cells: modifications between enumerated boundaries
    cells = []
    for (i, j), tops in hmembers.items():
        for t, sh_t in tops:
            for (k, l), bottoms in hmembers.items():
                for b_, sh_b in bottoms:
                    for sg, ssg in vmembers[(i, k)]:
                        for ta, sta in vmembers[(j, l)]:
                            cells += agreeing(
                                "iso.cell.agree",
                                iter_modification_candidates(t, b_, sg, ta, max_candidates),
                                check_modification,
                                lambda m: extend_modification(m, sh_t, sh_b, ssg, sta))
    rep.params["cells_each_side"] = len(cells)
    rep.params["cell_candidates"] = rep.counts.get("iso.cell.agree", 0)
    return rep
