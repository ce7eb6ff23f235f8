"""Command-line surface: one JSON document in, one deterministic report out.

Each subcommand reads its input (a file path or an inline JSON object),
runs a single exact computation and prints a report as JSON or flat text.
Reports are deterministic: fields keep a fixed order, polynomials print
with terms in descending degree and coefficients as least nonnegative
residues, so the same configuration and seed give byte-identical output.

Exit codes: 0 every contract passed, 2 a contract was violated (the report
carries a witness), 3 a guard ran out before a decision or the rank >= 3
semistability search found no destabilizer, 4 malformed input (the report
names the offending location).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .cartier import ThetaFault, inverse_cartier, p_curvature
from .chern import ChernData, GradedRing, RingTooLarge, check_equivalence
from .exact import matrix
from .exact.poly import Poly, RatFun
from .exact.rings import check_prime
from .flow import detect_periodicity
from .loghiggs import (INF, LogDivisor, _graded_semistability, higgs_bundle,
                       log_connection, nilpotency_level, residue,
                       residue_trace_sum)
from .monodromy import (NilpotentOperator, monodromy_filtration,
                        verify_filtration_axioms)
from .nearby import local_higgs_module, phi_restrict, upsilon0, z_model_compatibility
from .p1 import P1Bundle, birkhoff_split, degree_and_slope, split_memo
from .selftest import run_selftest
from .serialize import (MAX_EXPONENT, ParseError, laurent_str, parse_bipoly,
                        parse_laurent, parse_poly, parse_qpoly, parse_ratfun,
                        poly_str, qpoly_str, ratfun_str)

PASS, VIOLATION, UNDECIDED, BAD_INPUT = 0, 2, 3, 4

_EXIT_OF = {"pass": PASS, "violation": VIOLATION, "undecided": UNDECIDED,
            "input-error": BAD_INPUT}


class InputFault(Exception):
    """Malformed input; `location` names the offending field or file."""

    def __init__(self, message: str, location: str):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class RunConfig:
    command: str
    source: str | None   # --input value: a path or an inline JSON object
    p: int | None
    guard_enum: int
    guard_iter: int
    seed: int
    fmt: str             # "json" | "text"


# ---------------------------------------------------------------------------
# input decoding
# ---------------------------------------------------------------------------

_MISSING = object()


def _load_doc(cfg: RunConfig) -> dict:
    if cfg.source is None:
        raise InputFault("an input document is required", "--input")
    src = cfg.source.strip()
    if src.startswith("{"):
        text, where = src, "inline JSON"
    else:
        try:
            with open(cfg.source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputFault(f"cannot read input: {e.strerror or e}",
                             cfg.source)
        where = cfg.source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFault(f"invalid JSON: {e.msg}",
                         f"{where}, line {e.lineno} column {e.colno}")
    if not isinstance(doc, dict):
        raise InputFault("the top-level JSON value must be an object", where)
    return doc


def _field(doc: dict, key: str, loc: str, default=_MISSING):
    if key not in doc:
        if default is not _MISSING:
            return default
        raise InputFault(f"missing field {key!r}", loc)
    return doc[key]


def _int_field(doc: dict, key: str, loc: str):
    v = _field(doc, key, loc)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputFault(f"field {key!r} must be an integer", f"{loc}.{key}")
    return v


def _resolve_p(doc: dict, cfg: RunConfig) -> int:
    dp = doc.get("p")
    if dp is None and cfg.p is None:
        raise InputFault("a prime is required (field 'p' or --p)", "p")
    if dp is not None and not isinstance(dp, int):
        raise InputFault("field 'p' must be an integer", "input.p")
    if dp is not None and cfg.p is not None and dp != cfg.p:
        raise InputFault(f"input prime {dp} differs from --p {cfg.p}", "p")
    p = dp if dp is not None else cfg.p
    try:
        return check_prime(p)
    except ValueError as e:
        raise InputFault(str(e), "p")


def _matrix_shape(val, loc: str):
    if (not isinstance(val, list) or not val
            or not all(isinstance(r, list) and r for r in val)):
        raise InputFault("expected a nonempty matrix (list of rows)", loc)
    if any(len(r) != len(val[0]) for r in val):
        raise InputFault("matrix rows have unequal lengths", loc)
    return val


def _parse_matrix(val, loc: str, parse):
    out = []
    for i, row in enumerate(_matrix_shape(val, loc)):
        prow = []
        for j, e in enumerate(row):
            if not isinstance(e, (str, int)) or isinstance(e, bool):
                raise InputFault("matrix entries must be strings or integers",
                                 f"{loc}[{i}][{j}]")
            try:
                prow.append(parse(str(e)))
            except (ParseError, ValueError) as err:
                raise InputFault(f"bad entry: {err}", f"{loc}[{i}][{j}]")
        out.append(prow)
    return out


def _decode_divisor(val, p: int, loc: str) -> LogDivisor:
    if not isinstance(val, dict):
        raise InputFault("divisor must be an object with 'points'", loc)
    pts = _field(val, "points", loc)
    if not isinstance(pts, list):
        raise InputFault("divisor points must form a list", f"{loc}.points")
    conv = []
    for pt in pts:
        if pt == INF or (isinstance(pt, int) and not isinstance(pt, bool)):
            conv.append(pt)
        else:
            raise InputFault(f"bad divisor point {pt!r} (an integer or "
                             f"\"inf\")", f"{loc}.points")
    try:
        return LogDivisor(p, tuple(conv))
    except ValueError as e:
        raise InputFault(str(e), f"{loc}.points")


def _decode_bundle(val, p: int, loc: str) -> P1Bundle:
    if not isinstance(val, dict):
        raise InputFault("bundle must be an object with 'type' or 'rows'",
                         loc)
    if "type" in val:
        tp = val["type"]
        if (not isinstance(tp, list) or not tp
                or not all(isinstance(a, int) and not isinstance(a, bool)
                           for a in tp)):
            raise InputFault("bundle type must be a list of integers",
                             f"{loc}.type")
        for i, a in enumerate(tp):
            if abs(a) > MAX_EXPONENT:
                raise InputFault(f"splitting type entry exceeds {MAX_EXPONENT}"
                                 f" in absolute value", f"{loc}.type[{i}]")
        return P1Bundle.of_type(p, tuple(tp))
    if "rows" in val:
        rows = _parse_matrix(val["rows"], f"{loc}.rows",
                             lambda s: parse_laurent(s, p))
        if len(rows) != len(rows[0]):
            raise InputFault("transition matrix must be square",
                             f"{loc}.rows")
        try:
            return P1Bundle.from_rows(p, rows)
        except (ValueError, AssertionError) as e:
            raise InputFault(str(e), f"{loc}.rows")
    raise InputFault("bundle needs either 'type' or 'rows'", loc)


def _decode_higgs(doc: dict, cfg: RunConfig, loc: str = "input"):
    p = _resolve_p(doc, cfg)
    div = _decode_divisor(_field(doc, "divisor", loc), p, f"{loc}.divisor")
    b = _decode_bundle(_field(doc, "bundle", loc), p, f"{loc}.bundle")
    th = _parse_matrix(_field(doc, "theta", loc), f"{loc}.theta",
                       lambda s: parse_ratfun(s, p))
    try:
        return higgs_bundle(b, div, th)
    except (ValueError, AssertionError) as e:
        raise InputFault(str(e), f"{loc}.theta")


def _decode_connection(doc: dict, cfg: RunConfig, loc: str = "input"):
    p = _resolve_p(doc, cfg)
    div = _decode_divisor(_field(doc, "divisor", loc), p, f"{loc}.divisor")
    b = _decode_bundle(_field(doc, "bundle", loc), p, f"{loc}.bundle")
    a0 = _parse_matrix(_field(doc, "a0", loc), f"{loc}.a0",
                       lambda s: parse_ratfun(s, p))
    try:
        return log_connection(b, div, a0)
    except (ValueError, AssertionError) as e:
        raise InputFault(str(e), f"{loc}.a0")


# ---------------------------------------------------------------------------
# output encoding
# ---------------------------------------------------------------------------

def _encode_divisor(div: LogDivisor) -> dict:
    return {"points": list(div.points)}


def _encode_bundle(b: P1Bundle) -> dict:
    return {"rows": [[laurent_str(e) for e in row] for row in b.matrix()]}


def _encode_higgs(hb) -> dict:
    return {"kind": "higgs", "p": hb.p,
            "divisor": _encode_divisor(hb.divisor),
            "bundle": _encode_bundle(hb.bundle),
            "theta": [[ratfun_str(e) for e in row] for row in hb.theta0]}


def _encode_connection(con) -> dict:
    return {"kind": "connection", "p": con.p,
            "divisor": _encode_divisor(con.divisor),
            "bundle": _encode_bundle(con.bundle),
            "a0": [[ratfun_str(e) for e in row] for row in con.a0]}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_discriminants(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    rank = _int_field(doc, "rank", "input")
    if rank < 1:
        raise InputFault("rank must be >= 1", "input.rank")
    trunc = _int_field(doc, "truncation", "input")
    if trunc < 1:
        raise InputFault("truncation must be >= 1", "input.truncation")
    gens = _field(doc, "generators", "input", default=[["h", 1]])
    if not isinstance(gens, list):
        raise InputFault("generators must be [name, weight] pairs",
                         "input.generators")
    for i, g in enumerate(gens):
        if (not isinstance(g, list) or len(g) != 2
                or not isinstance(g[1], int) or isinstance(g[1], bool)):
            raise InputFault("a generator must be a [name, integer weight] "
                             "pair", f"input.generators[{i}]")
    try:
        ring = GradedRing([(str(n), w) for n, w in gens], trunc)
    except RingTooLarge as e:
        raise InputFault(str(e), "input.truncation")
    except ValueError as e:
        raise InputFault(str(e), "input.generators")
    raw = _field(doc, "classes", "input")
    if not isinstance(raw, list) or len(raw) != trunc:
        raise InputFault("need one class per degree 1..truncation",
                         "input.classes")
    cs = []
    for i, s in enumerate(raw):
        try:
            terms = parse_qpoly(str(s), ring.names)
        except ParseError as e:
            raise InputFault(str(e), f"input.classes[{i}]")
        if any(ring.weight(m) != i + 1 for m in terms):
            raise InputFault(f"c_{i + 1} is not homogeneous of degree {i + 1}",
                             f"input.classes[{i}]")
        cs.append(ring.from_terms(terms))
    eq = check_equivalence(ChernData(rank, tuple(cs), ring))
    report = {
        "command": "discriminants",
        "status": "pass" if eq.consistent else "violation",
        "rank": rank,
        "delta": [qpoly_str(x.terms, ring.names) for x in eq.deltas],
        "equivalence": {"chern_binomial": eq.chern_binomial,
                        "delta_vanishing": eq.delta_vanishing,
                        "log_linear": eq.log_linear},
    }
    if not eq.consistent:
        report["witness"] = "the three log-freeness tests disagree"
    return report


def _cmd_monodromy(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    p = _resolve_p(doc, cfg)
    raw = _matrix_shape(_field(doc, "matrix", "input"), "input.matrix")
    if len(raw) != len(raw[0]):
        raise InputFault("operator matrix must be square", "input.matrix")
    module = any(isinstance(e, str) for row in raw for e in row)
    if module:
        rows = _parse_matrix(raw, "input.matrix",
                             lambda s: parse_poly(s, p, "y"))
        op = NilpotentOperator.from_polys(p, rows)
    else:
        rows = _parse_matrix(raw, "input.matrix", lambda s: int(s))
        op = NilpotentOperator.from_ints(p, rows)
    try:
        filt = monodromy_filtration(op)
    except ValueError as e:
        raise InputFault(str(e), "input.matrix")
    rep = verify_filtration_axioms(op, filt)

    def vec(v):
        return [poly_str(e, "y") if isinstance(e, Poly) else e for e in v]

    report = {
        "command": "monodromy",
        "status": "pass" if rep.all_pass else "violation",
        "p": p,
        "dim": op.dim,
        "ring": "F_p[y]" if op.over_ring else "F_p",
        "weights": filt.weights(),
        "ranks": [filt.rank_at(w) for w in filt.weights()],
        "graded_ranks": [filt.graded_rank(w) for w in filt.weights()],
        "bases": {str(w): [vec(v) for v in filt.basis_at(w)]
                  for w in filt.weights()},
        "axioms": {"increasing": rep.increasing,
                   "exhaustive": rep.exhaustive,
                   "shift": rep.shift,
                   "graded_iso": rep.graded_iso,
                   "saturated": rep.saturated,
                   "torsion_free": rep.torsion_free},
    }
    if not rep.all_pass:
        report["witness"] = rep.witness
    return report


def _cmd_split(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    p = _resolve_p(doc, cfg)
    rows = _parse_matrix(_field(doc, "rows", "input"), "input.rows",
                         lambda s: parse_laurent(s, p))
    if len(rows) != len(rows[0]):
        raise InputFault("transition matrix must be square", "input.rows")
    try:
        b = P1Bundle.from_rows(p, rows)
        t, u, v = birkhoff_split(b)
    except ValueError as e:
        raise InputFault(str(e), "input.rows")
    except AssertionError as e:
        # the splitting carries its own certificate; a failure here is a
        # violated library contract, not bad input
        return {"command": "split", "status": "violation", "p": p,
                "witness": str(e)}
    d, mu = degree_and_slope(b)
    return {
        "command": "split",
        "status": "pass",
        "p": p,
        "splitting_type": list(t.entries),
        "degree": d,
        "slope": str(mu),
        "u_frame": [[laurent_str(e) for e in row] for row in u],
        "v_frame": [[laurent_str(e) for e in row] for row in v],
    }


def _cmd_residues(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    kind = doc.get("kind", "higgs")
    if kind == "higgs":
        obj = _decode_higgs(doc, cfg)
    elif kind == "connection":
        obj = _decode_connection(doc, cfg)
    else:
        raise InputFault("kind must be \"higgs\" or \"connection\"",
                         "input.kind")
    rep = residue_trace_sum(obj)
    per = []
    for pt in obj.divisor.points:
        mat = residue(obj, pt)
        per.append({"point": pt,
                    "matrix": [list(row) for row in mat],
                    "trace": sum(mat[i][i] for i in range(len(mat))) % obj.p})
    report = {
        "command": "residues",
        "status": "pass" if rep.ok else "violation",
        "p": obj.p,
        "kind": kind,
        "per_point": per,
        "trace_total": rep.total,
        "trace_expected": rep.expected,
    }
    if not rep.ok:
        report["witness"] = (f"residue traces sum to {rep.total}, "
                             f"expected {rep.expected}")
    return report


def _poly_strs(w):
    """A witness section (a vector of polynomials) or sub-bundle basis (a
    tuple of such vectors) as nested lists of printed polynomials."""
    return poly_str(w) if isinstance(w, Poly) else [_poly_strs(e) for e in w]


def _cmd_semistable(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    hb = _decode_higgs(doc, cfg)
    v = _graded_semistability(hb)
    report = {
        "command": "semistable",
        "status": "pass" if v.decided else "undecided",
        "p": hb.p,
        "verdict": v.status,
        "slope": str(v.slope),
        "detail": v.detail,
    }
    if v.candidates is not None:
        report["candidates"] = [{"rank": c.rank, "degree": c.degree,
                                 "slope": str(c.slope),
                                 "theta_invariant": c.theta_invariant,
                                 "destabilizing": c.destabilizing,
                                 "source": c.source} for c in v.candidates]
    if v.witness_degree is not None:
        report["witness_degree"] = v.witness_degree
    if v.witness is not None:
        report["witness"] = _poly_strs(v.witness)
    return report


def _cmd_cartier(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    hb = _decode_higgs(doc, cfg)
    p = hb.p
    try:
        con = inverse_cartier(hb)
    except ValueError as e:
        raise InputFault(str(e), "input.theta")
    ed = degree_and_slope(hb.bundle)[0]
    vd = degree_and_slope(con.bundle)[0]
    res_ok = all(residue(con, pt) == residue(hb, pt)
                 for pt in hb.divisor.points)
    psi = p_curvature(con)
    mlog = [[-(RatFun.x(p) * e).dilate(p) for e in row] for row in hb.theta0]
    psi_ok = matrix.eq(psi, mlog)
    lv = nilpotency_level(psi)
    lv_ok = lv is not None and lv <= p - 1
    checks = {"degree_scaling": vd == p * ed,
              "residues_preserved": res_ok,
              "p_curvature_is_pullback": psi_ok,
              "p_curvature_level_bounded": lv_ok}
    failed = [k for k, okv in checks.items() if not okv]
    report = {
        "command": "cartier",
        "status": "pass" if not failed else "violation",
        "p": p,
        "degree_E": ed,
        "degree_V": vd,
        "v_type": list(birkhoff_split(con.bundle)[0].entries),
        "p_curvature_level": lv,
        "checks": checks,
        "p_curvature": [[ratfun_str(e) for e in row] for row in psi],
        "connection": _encode_connection(con),
    }
    if failed:
        report["witness"] = "failed: " + ", ".join(failed)
    return report


def _cmd_flow(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    hb = _decode_higgs(doc, cfg)
    try:
        rep = detect_periodicity(hb, max_iter=cfg.guard_iter,
                                 enum_guard=cfg.guard_enum)
    except ThetaFault as e:
        raise InputFault(str(e), "input.theta")
    except ValueError as e:
        msg = str(e)
        if "unresolved" in msg:
            return {"command": "flow", "status": "undecided", "p": hb.p,
                    "reason": msg}
        raise InputFault(msg, "input")
    report = {
        "command": "flow",
        "status": "pass" if rep.decided else "undecided",
        "p": hb.p,
        "verdict": rep.status,
        "period": rep.period,
        "preperiod": rep.preperiod,
        "reason": rep.reason,
        "orbit": [list(t) for t in rep.orbit],
        "bound": str(rep.bound),
        "bound_ok": rep.bound_ok,
        "states": [{"index": st.index,
                    "type": list(st.higgs_type),
                    "degree": degree_and_slope(st.higgs.bundle)[0],
                    "level": st.level,
                    # "unknown": a rank >= 3 search that found no destabilizer
                    "semistability": (st.semistability.status
                                      if st.semistability.decided
                                      else "unknown")}
                   for st in rep.states],
    }
    if rep.states:
        report["final"] = _encode_higgs(rep.states[-1].higgs)
    return report


def _cmd_nearby_check(cfg: RunConfig) -> dict:
    doc = _load_doc(cfg)
    p = _resolve_p(doc, cfg)
    y_log = _field(doc, "y_log", "input", default=False)
    if not isinstance(y_log, bool):
        raise InputFault("y_log must be a boolean", "input.y_log")
    tx = _parse_matrix(_field(doc, "theta_x", "input"), "input.theta_x",
                       lambda s: parse_bipoly(s, p))
    ty = _parse_matrix(_field(doc, "theta_y", "input"), "input.theta_y",
                       lambda s: parse_bipoly(s, p))
    try:
        m = local_higgs_module(p, tx, ty, y_log=y_log)
    except (ValueError, TypeError) as e:
        raise InputFault(str(e), "input")
    try:
        rep = z_model_compatibility(m)
    except ValueError as e:
        raise InputFault(str(e), "input.theta_x")
    ups = None
    try:
        data = upsilon0(phi_restrict(m))
        ups = {"level": data.level,
               "pieces": [{"weight": pc.weight, "rank": pc.rank}
                          for pc in data.pieces]}
    except ValueError:
        pass  # restricted y-operator not nilpotent: no weight structure
    report = {
        "command": "nearby-check",
        "status": "pass" if rep.ok else "violation",
        "p": p,
        "y_log": y_log,
        "equal": rep.equal,
        "residue_square_ok": rep.residue_square_ok,
        "detail": rep.detail,
        "upsilon": ups,
    }
    if not rep.ok:
        report["witness"] = rep.detail or "residue square mismatch"
    return report


def _cmd_selftest(cfg: RunConfig) -> dict:
    checks = run_selftest(cfg.seed)
    return {
        "command": "selftest",
        "status": "pass" if all(c.ok for c in checks) else "violation",
        "seed": cfg.seed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in checks],
    }


_HANDLERS = {
    "discriminants": _cmd_discriminants,
    "monodromy": _cmd_monodromy,
    "split": _cmd_split,
    "residues": _cmd_residues,
    "semistable": _cmd_semistable,
    "cartier": _cmd_cartier,
    "flow": _cmd_flow,
    "nearby-check": _cmd_nearby_check,
    "selftest": _cmd_selftest,
}

COMMANDS = tuple(_HANDLERS)


def run(cfg: RunConfig):
    """Execute one command; returns (report, exit code).

    Certified splittings are memoized for the length of the command."""
    try:
        for flag, guard in (("--guard-enum", cfg.guard_enum),
                            ("--guard-iter", cfg.guard_iter)):
            if guard <= 0:
                raise InputFault(f"{flag} must be positive", flag)
        if cfg.p is not None:
            try:
                check_prime(cfg.p)
            except ValueError as e:
                raise InputFault(str(e), "--p")
        if cfg.command not in _HANDLERS:
            raise InputFault(f"unknown command {cfg.command!r}", "command")
        with split_memo():
            report = _HANDLERS[cfg.command](cfg)
    except InputFault as e:
        report = {"command": cfg.command, "status": "input-error",
                  "error": str(e), "location": e.location}
    return report, _EXIT_OF[report["status"]]


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _fmt_scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _is_flat(v) -> bool:
    return isinstance(v, list) and all(not isinstance(e, (dict, list))
                                       for e in v)


def _fmt_flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_scalar(e) for e in v) + "]"
    if isinstance(v, dict):
        return "{}"
    return _fmt_scalar(v)


def _text_lines(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.append(f"{pad}{k}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_fmt_flat(v)}")
    else:
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.append(f"{pad}-")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}- {_fmt_flat(v)}")


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = []
    _text_lines(report, 0, lines)
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(BAD_INPUT, f"{self.prog}: error: {message}\n")


_HELP = {
    "discriminants": "higher discriminants and the log-freeness equivalence",
    "monodromy": "weight filtration of a nilpotent operator, with audit",
    "split": "splitting type of a bundle on the projective line",
    "residues": "boundary residues and their trace sum",
    "semistable": "exact slope-semistability verdict",
    "cartier": "inverse Cartier transform with the p-curvature contract",
    "flow": "iterate the flow and look for a periodic orbit",
    "nearby-check": "local two-variable model against its z-side transform",
    "selftest": "seeded cross-module invariant suite",
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hdrflow",
                 description="exact computations for logarithmic Higgs "
                             "bundles and connections over small primes")
    sub = ap.add_subparsers(dest="command", metavar="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--input", metavar="DOC",
                        help="path to a JSON document, or an inline JSON "
                             "object")
        sp.add_argument("--p", type=int, default=None,
                        help="working prime (may also come from the input)")
        sp.add_argument("--guard-enum", type=int, default=200000,
                        help="bound on the flow's isomorphism search")
        sp.add_argument("--guard-iter", type=int, default=10,
                        help="bound on iteration counts")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const",
                         const="json", help="emit the report as JSON")
        fmt.add_argument("--text", dest="fmt", action="store_const",
                         const="text", help="emit the report as flat text")
        sp.set_defaults(fmt="text")
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    seed = ns.seed
    env = os.environ.get("HDR_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            report = {"command": ns.command, "status": "input-error",
                      "error": f"HDR_SEED must be an integer, got {env!r}",
                      "location": "HDR_SEED"}
            sys.stdout.write(render(report, ns.fmt))
            return BAD_INPUT
    cfg = RunConfig(command=ns.command, source=ns.input, p=ns.p,
                    guard_enum=ns.guard_enum, guard_iter=ns.guard_iter,
                    seed=seed, fmt=ns.fmt)
    report, code = run(cfg)
    sys.stdout.write(render(report, cfg.fmt))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
