"""Vocabulary declarations and the derived ground-atom ordering."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

# Declared names and the formula tokenizer's identifiers share this syntax.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
RESERVED = frozenset({"forall", "exists"})


def _check_name(kind: str, name: str) -> None:
    if not re.fullmatch(NAME, name):
        raise ValueError(f"invalid {kind} name {name!r}")
    if name in RESERVED:
        raise ValueError(f"{kind} name {name!r} is a reserved word")


@dataclass(frozen=True)
class Signature:
    """Declares propositions, predicates and constants.

    The ground atoms are the propositions in declaration order followed by
    every predicate applied to each tuple of constants, tuples enumerated
    in lexicographic order over the declared constant order. This ordering
    fixes the meaning of world bit vectors and of dataset columns.
    """

    propositions: tuple[str, ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        names = itertools.chain(
            self.propositions, (n for n, _ in self.predicates), self.constants
        )
        for name in names:
            _check_name("declared", name)
            if name in seen:
                raise ValueError(f"duplicate declaration of {name!r}")
            seen.add(name)
        for name, arity in self.predicates:
            if not isinstance(arity, int) or arity < 1:
                raise ValueError(f"predicate {name!r} must have integer arity >= 1")

    @cached_property
    def atoms(self) -> tuple[str, ...]:
        """Ground-atom names in their canonical order."""
        out = list(self.propositions)
        for name, arity in self.predicates:
            for combo in itertools.product(self.constants, repeat=arity):
                out.append(f"{name}({','.join(combo)})")
        return tuple(out)

    @cached_property
    def atom_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.atoms)}

    @cached_property
    def proposition_set(self) -> frozenset[str]:
        return frozenset(self.propositions)

    @cached_property
    def predicate_arity(self) -> dict[str, int]:
        return dict(self.predicates)

    @cached_property
    def constant_set(self) -> frozenset[str]:
        return frozenset(self.constants)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse the line-oriented declaration format.

        Lines are ``prop <name>``, ``pred <name>/<arity>`` or
        ``const <name>``; blank lines and ``#`` comments are ignored.
        """
        props: list[str] = []
        preds: list[tuple[str, int]] = []
        consts: list[str] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected two fields, got {raw!r}")
            kind, rest = fields
            if kind == "prop":
                props.append(rest)
            elif kind == "pred":
                name, sep, arity_text = rest.partition("/")
                if not sep or not arity_text.isdecimal():
                    raise ValueError(
                        f"line {lineno}: predicate must look like name/arity, got {rest!r}"
                    )
                preds.append((name, int(arity_text)))
            elif kind == "const":
                consts.append(rest)
            else:
                raise ValueError(f"line {lineno}: unknown declaration kind {kind!r}")
        try:
            return cls(tuple(props), tuple(preds), tuple(consts))
        except ValueError as exc:
            raise ValueError(f"invalid signature: {exc}") from exc

    @classmethod
    def read(cls, path) -> "Signature":
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.parse(fh.read())
