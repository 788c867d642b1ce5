"""Delta-debugging shrinker for divergent fuzz cases.

Classic ddmin adapted to the mini-C AST: instead of deleting source
*lines* (which mostly yields unparsable programs), candidate reductions
are structural — drop a statement from a block, pin an ``if`` condition
to a constant, zero or halve an integer literal, drop input lines — and
a candidate is kept only if the *same* divergence check still fires.
Because both CPU engines agree on error behavior, a reduction that
breaks the program (say, by deleting a declaration) produces an
identical error on both engines — no divergence — and is rejected
automatically; no validity checker is needed.

The reduction loop is deterministic: passes run in a fixed order and
restart after every accepted reduction, so a given (case, check) pair
always minimizes to the same program.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from ..minic import cast as A
from ..minic import parse
from ..minic.pretty import pprint_program
from .gen import FuzzCase
from .oracle import run_case


def _walk(node: A.Node) -> Iterator[A.Node]:
    yield node
    for child in node.children():
        yield from _walk(child)


def _render(program: A.Program) -> str:
    return pprint_program(program)


def _reparses(source: str) -> bool:
    try:
        parse(source)
        return True
    except Exception:
        return False


class _Shrinker:
    def __init__(self, case: FuzzCase, check: str, max_attempts: int):
        self.case = case
        self.check = check
        self.attempts_left = max_attempts

    def _holds(self, candidate: FuzzCase) -> bool:
        if self.attempts_left <= 0:
            return False
        self.attempts_left -= 1
        try:
            div = run_case(candidate)
        except Exception:
            return False
        return div is not None and div.check == self.check

    def _accept_if_holds(self, candidate: FuzzCase) -> bool:
        if self._holds(candidate):
            self.case = candidate
            return True
        return False

    # -- input reduction ---------------------------------------------------

    def _shrink_input(self) -> bool:
        progress = False
        while True:
            lines = self.case.input_text.splitlines()
            if len(lines) <= 1:
                break
            # Halving first (big strides), then single-line removal.
            half = len(lines) // 2
            cands = [lines[:half], lines[half:]]
            accepted = False
            for keep in cands:
                text = "\n".join(keep) + ("\n" if keep else "")
                if self._accept_if_holds(replace(self.case, input_text=text)):
                    accepted = progress = True
                    break
            if accepted:
                continue
            for i in reversed(range(len(lines))):
                keep = lines[:i] + lines[i + 1:]
                text = "\n".join(keep) + ("\n" if keep else "")
                if self._accept_if_holds(replace(self.case, input_text=text)):
                    accepted = progress = True
                    break
            if not accepted:
                break
        return progress

    # -- AST reduction -----------------------------------------------------

    def _source_fields(self) -> list[tuple[str, str]]:
        fields = [("source", self.case.source)]
        if self.case.combine_source:
            fields.append(("combine_source", self.case.combine_source))
        return fields

    def _mutate(self, field_name: str,
                mutator: Callable[[A.Program], bool]) -> bool:
        """Parse, apply one structural edit, re-render, test."""
        source = getattr(self.case, field_name)
        program = parse(source)
        if not mutator(program):
            return False
        new_source = _render(program)
        if new_source == source or not _reparses(new_source):
            return False
        return self._accept_if_holds(
            replace(self.case, **{field_name: new_source}))

    def _shrink_stmts(self) -> bool:
        progress = False
        for field_name, _src in self._source_fields():
            changed = True
            while changed:
                changed = False
                program = parse(getattr(self.case, field_name))
                blocks = [n for n in _walk(program) if isinstance(n, A.Block)]
                sites = [(bi, si)
                         for bi, b in enumerate(blocks)
                         for si in reversed(range(len(b.stmts)))]
                for bi, si in sites:
                    def drop(prog: A.Program, bi=bi, si=si) -> bool:
                        blks = [n for n in _walk(prog)
                                if isinstance(n, A.Block)]
                        if bi >= len(blks) or si >= len(blks[bi].stmts):
                            return False
                        del blks[bi].stmts[si]
                        return True
                    if self._mutate(field_name, drop):
                        changed = progress = True
                        break
        return progress

    def _shrink_exprs(self) -> bool:
        progress = False
        for field_name, _src in self._source_fields():
            changed = True
            while changed:
                changed = False
                program = parse(getattr(self.case, field_name))
                ifs = sum(isinstance(n, A.If) for n in _walk(program))
                for idx in range(ifs):
                    for pin in (0, 1):
                        def pin_cond(prog: A.Program, idx=idx,
                                     pin=pin) -> bool:
                            nodes = [n for n in _walk(prog)
                                     if isinstance(n, A.If)]
                            if idx >= len(nodes):
                                return False
                            cond = nodes[idx].cond
                            if isinstance(cond, A.IntLit):
                                return False
                            nodes[idx].cond = A.IntLit(value=pin)
                            return True
                        if self._mutate(field_name, pin_cond):
                            changed = progress = True
                            break
                    if changed:
                        break
                if changed:
                    continue
                lits = [n for n in _walk(program)
                        if isinstance(n, A.IntLit) and n.value not in (0, 1)]
                for idx in range(len(lits)):
                    for new_val in (0, lits[idx].value // 2):
                        def zero(prog: A.Program, idx=idx,
                                 new_val=new_val) -> bool:
                            nodes = [n for n in _walk(prog)
                                     if isinstance(n, A.IntLit)
                                     and n.value not in (0, 1)]
                            if idx >= len(nodes):
                                return False
                            nodes[idx].value = new_val
                            return True
                        if self._mutate(field_name, zero):
                            changed = progress = True
                            break
                    if changed:
                        break
        return progress

    def run(self) -> FuzzCase:
        while self.attempts_left > 0:
            progress = self._shrink_input()
            progress = self._shrink_stmts() or progress
            progress = self._shrink_exprs() or progress
            if not progress:
                break
        return self.case


def shrink_case(case: FuzzCase, check: str,
                max_attempts: int = 300) -> FuzzCase:
    """Minimize ``case`` while the divergence labelled ``check`` persists.

    Returns the smallest case found (possibly the original). The result
    still reproduces ``check`` — every accepted reduction was re-run
    through the full oracle.
    """
    # Normalize through the pretty-printer once so later textual
    # comparisons ("did this edit change anything?") are meaningful.
    normalized = replace(case, source=_render(parse(case.source)))
    if case.combine_source:
        normalized = replace(
            normalized,
            combine_source=_render(parse(case.combine_source)))
    shrinker = _Shrinker(case, check, max_attempts)
    if shrinker._holds(normalized):
        shrinker.case = normalized
    return shrinker.run()
