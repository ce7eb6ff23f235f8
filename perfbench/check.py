"""Checks a rendered report against the answer its generator planted."""
from __future__ import annotations

import json
from fractions import Fraction

PASS, UNDECIDED = 0, 3


def parse_qpoly(s: str, names) -> dict:
    """{monomial: Fraction} from "3/2*a^2*b + -c" or "a - 3/2*b"; both the
    generator's and the program's printing rules are accepted."""
    s = s.strip()
    if s == "0":
        return {}
    idx = {n: k for k, n in enumerate(names)}
    out: dict = {}
    for term in s.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coef = Fraction(1)
        mono = [0] * len(names)
        for factor in term.split("*"):
            var, _, exp = factor.partition("^")
            if var in idx:
                mono[idx[var]] += int(exp) if exp else 1
            else:
                coef *= Fraction(factor)
        key = tuple(mono)
        out[key] = out.get(key, 0) + sign * coef
        if not out[key]:
            del out[key]
    return out


def check(expect: dict, code: int, text: str) -> str | None:
    """None when the report is right, else what is wrong with it.

    Exit 2 (violation) and 4 (input error) always fail; exit 3 (undecided)
    passes only for jobs without a planted answer."""
    kind = expect["kind"]
    if kind == "decided-or-undecided":
        return None if code in (PASS, UNDECIDED) else f"exit {code}"
    if code != PASS:
        return f"exit {code}"
    rep = json.loads(text)
    if kind == "delta2":
        names = expect["names"]
        delta = rep["delta"]
        if len(delta) != expect["truncation"]:
            return f"{len(delta)} discriminants for truncation " \
                   f"{expect['truncation']}"
        for i in (0, 1):
            want = parse_qpoly(expect[f"delta{i + 1}"], names)
            if parse_qpoly(delta[i], names) != want:
                return f"Delta_{i + 1} = {delta[i]}, planted " \
                       f"{expect[f'delta{i + 1}']}"
        return None
    if kind == "split":
        if rep["splitting_type"] != expect["type"]:
            return f"type {rep['splitting_type']}, planted {expect['type']}"
        if rep["degree"] != sum(expect["type"]):
            return f"degree {rep['degree']}, planted {sum(expect['type'])}"
        return None
    if kind == "flow":
        if rep["verdict"] != "periodic" or rep["bound_ok"] is not True:
            return f"verdict {rep['verdict']}, bound_ok {rep['bound_ok']}"
        return None
    if kind == "cartier":
        want = (expect["degree"], expect["p"] * expect["degree"])
        got = (rep["degree_E"], rep["degree_V"])
        return None if got == want else f"(deg E, deg V) = {got}, " \
                                        f"planted {want}"
    raise ValueError(f"unknown check {kind!r}")
