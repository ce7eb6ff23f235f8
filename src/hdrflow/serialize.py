"""Canonical text forms for polynomials and the JSON object schemas.

Printing rules (shared by every report): terms in descending degree, F_p
coefficients as least nonnegative residues, rational functions as
"(num)/(den)" with the denominator omitted when it is 1.  Parsing accepts the
same grammar plus harmless whitespace; it is strict about everything else so
round-trips are exact.
"""
from __future__ import annotations

from fractions import Fraction

from .exact.poly import Poly, RatFun
from .exact.laurent import Laurent
from .exact.bipoly import BiPoly


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _term_str(coef: str, powers: list[tuple[str, int]]) -> str:
    pieces = [f"{v}^{e}" if e != 1 else v for v, e in powers if e != 0]
    if not pieces:
        return coef
    if coef == "1":
        return "*".join(pieces)
    return "*".join([coef] + pieces)


def poly_str(f: Poly, var: str = "x") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for k in range(f.degree, -1, -1):
        a = f[k]
        if a:
            terms.append(_term_str(str(a), [(var, k)]))
    return " + ".join(terms)


def laurent_str(f: Laurent, var: str = "x") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for k in sorted(f.d, reverse=True):
        terms.append(_term_str(str(f.d[k]), [(var, k)]))
    return " + ".join(terms)


def ratfun_str(f: RatFun, var: str = "x") -> str:
    if f.den.is_one():
        return poly_str(f.num, var)
    return f"({poly_str(f.num, var)})/({poly_str(f.den, var)})"


def bipoly_str(f: BiPoly, uvar: str = "x", vvar: str = "y") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for (i, j), a in sorted(f.terms(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
        terms.append(_term_str(str(a), [(uvar, i), (vvar, j)]))
    return " + ".join(terms)


def qpoly_str(terms: dict[tuple[int, ...], Fraction], gens: list[str]) -> str:
    """Multivariate Q-polynomial: descending total degree, then lex."""
    if not terms:
        return "0"
    def key(mono):
        return (-sum(mono), tuple(-e for e in mono))
    out = []
    for mono in sorted(terms, key=key):
        c = terms[mono]
        out.append(_term_str(str(c), list(zip(gens, mono))))
    return " + ".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    pass


# Largest |exponent| a term may carry, summed over repeated factors: a
# polynomial is stored densely, so x^e costs e + 1 coefficients.  About 100
# times the largest exponent any test, selftest or benchmark document uses.
MAX_EXPONENT = 10_000


def _tokenize(s: str):
    toks = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(int(s[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(s[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}")
    return toks


def _parse_terms(toks, varnames, coeff_from_fraction):
    """Sum of terms: term := [coeff] {*? var [^ int]}*; returns list of
    (coeff, {var: exp}) with signs folded in."""
    out = []
    i, n = 0, len(toks)
    sign = 1
    expect_term = True
    while i < n:
        t = toks[i]
        if t == "+":
            sign, i, expect_term = sign, i + 1, True
            continue
        if t == "-":
            sign, i, expect_term = -sign, i + 1, True
            continue
        if not expect_term:
            raise ParseError("missing + or - between terms")
        # one term
        coeff_num, coeff_den = None, 1
        powers: dict[str, int] = {}
        while i < n and toks[i] not in ("+", "-"):
            t = toks[i]
            if t == "*":
                i += 1
                continue
            if isinstance(t, int):
                if coeff_num is None and not powers:
                    coeff_num = t
                    # optional fraction a/b for Q coefficients
                    if i + 2 < n and toks[i + 1] == "/" and isinstance(toks[i + 2], int):
                        coeff_den = toks[i + 2]
                        i += 2
                else:
                    raise ParseError("unexpected integer inside term")
                i += 1
            elif isinstance(t, str) and t in varnames:
                e = 1
                if i + 1 < n and toks[i + 1] == "^":
                    j = i + 2
                    esign = 1
                    if j < n and toks[j] == "-":
                        esign, j = -1, j + 1
                    if j >= n or not isinstance(toks[j], int):
                        raise ParseError("bad exponent")
                    e = esign * toks[j]
                    i = j
                else:
                    pass
                powers[t] = powers.get(t, 0) + e
                if abs(powers[t]) > MAX_EXPONENT:
                    raise ParseError(f"exponent of {t} exceeds {MAX_EXPONENT}"
                                     f" in absolute value")
                i += 1
            else:
                raise ParseError(f"unexpected token {t!r}")
        if coeff_num is None:
            if not powers:
                raise ParseError("empty term")
            coeff_num = 1
        out.append((coeff_from_fraction(sign * coeff_num, coeff_den), powers))
        sign = 1
        expect_term = False
    if expect_term and out:
        raise ParseError("dangling sign")
    return out


def parse_poly(s: str, p: int, var: str = "x") -> Poly:
    terms = _parse_terms(_tokenize(s), {var}, lambda a, b: _fp_frac(a, b, p))
    f = Poly.zero(p)
    for c, powers in terms:
        e = powers.get(var, 0)
        if e < 0:
            raise ParseError("negative exponent in a polynomial")
        f = f + Poly.monomial(p, e, c)
    return f


def parse_laurent(s: str, p: int, var: str = "x") -> Laurent:
    terms = _parse_terms(_tokenize(s), {var}, lambda a, b: _fp_frac(a, b, p))
    f = Laurent.zero(p)
    for c, powers in terms:
        f = f + Laurent.monomial(p, powers.get(var, 0), c)
    return f


def _fp_frac(a: int, b: int, p: int) -> int:
    if b % p == 0:
        raise ParseError("denominator divisible by p")
    return a * pow(b % p, p - 2, p) % p


def parse_ratfun(s: str, p: int, var: str = "x") -> RatFun:
    """Grammar: poly | (poly)/(poly) | poly/int; also accepts x^-k monomials."""
    s = s.strip()
    depth = 0
    slash = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            # coefficient fractions like 2/3 stay inside terms only when the
            # next char is a digit and the previous token was a digit; a
            # top-level polynomial split uses parentheses
            slash = i
            break
    if slash is not None and (s.startswith("(") or not s[slash + 1:].lstrip()[:1].isdigit()):
        nums, dens = s[:slash], s[slash + 1:]
        numpart = _strip_parens(nums)
        denpart = _strip_parens(dens)
        num = _poly_or_laurent(numpart, p, var)
        den = _poly_or_laurent(denpart, p, var)
        nf, nshift = num
        df, dshift = den
        if df.is_zero():
            raise ParseError("zero denominator")
        # x^-k shifts move across the fraction bar
        shift = nshift - dshift
        f = RatFun(nf, df)
        if shift > 0:
            f = f * RatFun(Poly.monomial(p, shift))
        elif shift < 0:
            f = f / RatFun(Poly.monomial(p, -shift))
        return f
    f, shift = _poly_or_laurent(s, p, var)
    out = RatFun(f)
    if shift > 0:
        out = out * RatFun(Poly.monomial(p, shift))
    elif shift < 0:
        out = out / RatFun(Poly.monomial(p, -shift))
    return out


def _strip_parens(s: str) -> str:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s  # closing paren not at the end: leave as-is
        return s[1:-1]
    return s


def _poly_or_laurent(s: str, p: int, var: str):
    """Parse allowing negative exponents; return (Poly, shift) with f = Poly*x^shift."""
    lf = parse_laurent(s, p, var)
    m = lf.min_exp()
    if m is None:
        return Poly.zero(p), 0
    if m >= 0:
        return lf.to_poly_x(), 0
    return lf.shift(-m).to_poly_x(), m


def parse_bipoly(s: str, p: int, uvar: str = "x", vvar: str = "y") -> BiPoly:
    terms = _parse_terms(_tokenize(s), {uvar, vvar}, lambda a, b: _fp_frac(a, b, p))
    f = BiPoly.zero(p)
    for c, powers in terms:
        i, j = powers.get(uvar, 0), powers.get(vvar, 0)
        if i < 0 or j < 0:
            raise ParseError("negative exponent in a polynomial")
        f = f + BiPoly.from_terms(p, {(i, j): c})
    return f


def _q_frac(a: int, b: int) -> Fraction:
    if b == 0:
        raise ParseError("zero denominator")
    return Fraction(a, b)


def parse_qpoly(s: str, gens: list[str]) -> dict[tuple[int, ...], Fraction]:
    """Multivariate polynomial with Fraction coefficients over named generators."""
    idx = {g: k for k, g in enumerate(gens)}
    terms = _parse_terms(_tokenize(s), set(gens), _q_frac)
    out: dict[tuple[int, ...], Fraction] = {}
    for c, powers in terms:
        mono = [0] * len(gens)
        for v, e in powers.items():
            if e < 0:
                raise ParseError("negative exponent")
            mono[idx[v]] += e
        key = tuple(mono)
        out[key] = out.get(key, Fraction(0)) + c
        if out[key] == 0:
            del out[key]
    return out
