"""SEAM001 — transform arithmetic must route through ``repro.dsp``.

Every FFT/IFFT of the burst datapaths runs through ``repro.dsp.fft``
(:func:`~repro.dsp.fft.fft`, :func:`~repro.dsp.fft.ifft` and the cached
:func:`~repro.dsp.fft.get_plan` tables): the in-house radix-2 transform
that mirrors the paper's hardware core and that the agreement tests pin
bit for bit.  A direct ``np.fft``/``scipy.fft`` call anywhere else in
``src/repro/`` silently swaps in pocketfft, whose results differ in the
last bits, so results would no longer match the recorded engine
version.  This rule bans the bypass everywhere outside ``repro/dsp``
itself (the one package allowed to *implement* transforms).
"""

from __future__ import annotations

import ast
from typing import List

from repro_lint.core import FileContext, Rule, Violation, register
from repro_lint.names import ImportMap, resolve

#: Module prefixes that constitute going around ``repro.dsp``.
_FORBIDDEN_PREFIXES = (
    "numpy.fft",
    "scipy.fft",
    "scipy.fftpack",
)


@register
class SeamPurityRule(Rule):
    rule_id = "SEAM001"
    name = "seam-purity"
    description = (
        "no np.fft/scipy.fft outside repro/dsp — route transforms through "
        "repro.dsp.fft (fft / ifft / get_plan)"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and not relpath.startswith(
            "src/repro/dsp/"
        )

    def check(self, ctx: FileContext) -> List[Violation]:
        imports = ImportMap(ctx.tree)
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            canonical = resolve(node, imports)
            if canonical is None:
                continue
            if any(
                canonical == prefix or canonical.startswith(prefix + ".")
                for prefix in _FORBIDDEN_PREFIXES
            ):
                # Report the outermost expression once, not every inner
                # Attribute of the same chain: anchor on Attribute nodes
                # whose parent chain we are the head of is handled by only
                # flagging nodes that resolve *exactly* into the forbidden
                # namespace at call/use sites.
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"{canonical} bypasses repro.dsp; route the "
                        "transform through repro.dsp.fft (fft / ifft / "
                        "get_plan)",
                    )
                )
        return _dedupe_chains(violations)


def _dedupe_chains(violations: List[Violation]) -> List[Violation]:
    """Collapse nested Attribute hits at one location into one finding.

    ``np.fft.fft(x)`` resolves for both the ``np.fft.fft`` chain and its
    inner ``np.fft`` node; they share (line, col) once the chain walk
    reaches the head, so keep the most specific (longest) message per
    location.
    """
    best = {}
    for violation in violations:
        key = (violation.path, violation.line, violation.col)
        kept = best.get(key)
        if kept is None or len(violation.message) > len(kept.message):
            best[key] = violation
    return sorted(best.values(), key=lambda v: (v.line, v.col))
