"""Deliberately broken structures, used as negative controls.

Each constructor returns a copy of the input structure with one documented
defect, patched in its frame (the aggregated-idempotent coordinates):

* :func:`corrupted_associator` scales one associator coefficient by q
  (the aggregated-idempotent triple (1,1,1)), which breaks the pentagon.
* :func:`corrupted_alpha` replaces the distinguished element alpha by 1,
  which breaks the antipode identities.
* :func:`corrupted_coproduct` drops the "wrap-around" term of the coproduct
  of x (the term pairing a^(-1) with the 0-th aggregated idempotent times x),
  which breaks the counit law.

The corresponding checks are expected to fail with a witness on these inputs;
the test suite asserts exactly that.
"""

from __future__ import annotations

from dataclasses import replace

from .algebra import Tensor, invert
from .twist import QuasiHopf

__all__ = ["corrupted_alpha", "corrupted_associator", "corrupted_coproduct"]


def corrupted_associator(S: QuasiHopf) -> QuasiHopf:
    t = S.taft
    m = t.m
    frame = S.frame
    key = (m, m, m)
    terms = dict(frame.associator.terms)
    terms[key] = terms[key] * t.q
    phi = Tensor(frame.descriptor, 3, terms)
    return replace(
        S,
        label=S.label + " [mutated associator]",
        frame=replace(frame, associator=phi, associator_inv=invert(phi)),
        meta={**S.meta, "corruption": "associator coefficient at (1,1,1) scaled by q"},
    )


def corrupted_alpha(S: QuasiHopf) -> QuasiHopf:
    return replace(
        S,
        label=S.label + " [alpha := 1]",
        frame=replace(S.frame, alpha=S.frame.descriptor.unit_tensor(1)),
        meta={**S.meta, "corruption": "alpha replaced by the unit"},
    )


def corrupted_coproduct(S: QuasiHopf) -> QuasiHopf:
    m = S.taft.m
    base = S.frame.coproduct

    def coproduct(idx: int) -> Tensor:
        out = base(idx)
        s, b = divmod(idx, m)
        if b == 1:
            kept = {k: c for k, c in out.terms.items() if k != (s * m, 1)}
            return Tensor(out.algebra, 2, kept)
        return out

    return replace(
        S,
        label=S.label + " [dropped coproduct term]",
        frame=replace(S.frame, coproduct=coproduct),
        meta={**S.meta, "corruption": "wrap-around term of Delta(x) dropped"},
    )
