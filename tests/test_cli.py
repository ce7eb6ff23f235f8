import hashlib
import json
import random
import sys
import time

import pytest

from hdrflow import chern
from hdrflow.exact import polymat
from hdrflow.cli import RunConfig, main, render, run
from hdrflow.serialize import (MAX_EXPONENT, ParseError, parse_laurent,
                               parse_poly)

UNI3 = {
    "p": 3,
    "divisor": {"points": [0, 1, 2, "inf"]},
    "bundle": {"type": [1, -1]},
    "theta": [["0", "0"], ["(1)/(x^3 + 2*x)", "0"]],
}

UNI5 = {
    "p": 5,
    "divisor": {"points": [0, 1, 2, "inf"]},
    "bundle": {"type": [1, -1]},
    "theta": [["0", "0"], ["(1)/(x^3 + 2*x^2 + 2*x)", "0"]],
}


def run_text(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code = main([argv[0], "--json", *argv[1:]])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- split ----------------------------------------------------------------------

def test_split_identity(capsys):
    code, rep = run_json(capsys, "split", "--p", "3",
                         "--input", '{"rows": [["1", "0"], ["0", "1"]]}')
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["splitting_type"] == [0, 0]
    assert rep["degree"] == 0


def test_split_reports_type_and_frames(capsys):
    doc = {"p": 3, "rows": [["x + x^-1", "x^-1"], ["1", "1"]]}
    code, rep = run_json(capsys, "split", "--input", json.dumps(doc))
    assert code == 0
    assert rep["splitting_type"] == [0, -1]
    assert rep["degree"] == -1 and rep["slope"] == "-1/2"
    assert len(rep["u_frame"]) == 2 and len(rep["v_frame"]) == 2


def test_split_rejects_degenerate_matrix(capsys):
    doc = {"p": 3, "rows": [["x + 1", "1"], ["x + 1", "1"]]}
    code, rep = run_json(capsys, "split", "--input", json.dumps(doc))
    assert code == 4
    assert rep["status"] == "input-error"


# -- discriminants ----------------------------------------------------------------

def test_discriminants_closed_form(capsys):
    doc = {"rank": 2, "truncation": 2, "classes": ["h", "h^2"]}
    code, rep = run_json(capsys, "discriminants", "--input", json.dumps(doc))
    assert code == 0
    # Delta_1 = c_1 and Delta_2 = 2 r c_2 - (r - 1) c_1^2 = 4h^2 - h^2
    assert rep["delta"] == ["h", "3*h^2"]
    assert rep["equivalence"] == {"chern_binomial": False,
                                  "delta_vanishing": False,
                                  "log_linear": False}


def test_discriminants_rejects_inhomogeneous_class(capsys):
    doc = {"rank": 2, "truncation": 2, "classes": ["h", "h"]}
    code, rep = run_json(capsys, "discriminants", "--input", json.dumps(doc))
    assert code == 4
    assert "classes" in rep["location"]


@pytest.mark.parametrize("doc, location", [
    ({"rank": 2, "truncation": 0, "classes": []}, "input.truncation"),
    ({"rank": 0, "truncation": 1, "classes": ["h"]}, "input.rank"),
    # a term above the truncation must not be dropped before the check
    ({"rank": 2, "truncation": 2, "classes": ["h", "h^3"]},
     "input.classes[1]"),
    # three weight-1 generators at truncation 20: a product table of
    # 230230 entries, above the ring size bound
    ({"rank": 2, "truncation": 20,
      "generators": [["a", 1], ["b", 1], ["c", 1]],
      "classes": ["a", "a*b"] + ["0"] * 18}, "input.truncation"),
    # a zero denominator in a Q coefficient
    ({"rank": 2, "truncation": 2, "classes": ["1/0*h", "h^2"]},
     "input.classes[0]"),
])
def test_discriminants_input_errors_carry_the_location(capsys, doc, location):
    code, rep = run_json(capsys, "discriminants", "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == location


@pytest.mark.parametrize("weight", [1.5, True, "1"])
def test_discriminants_generator_weight_must_be_an_integer(capsys, weight):
    doc = {"rank": 2, "truncation": 2, "generators": [["h", 1], ["g", weight]],
           "classes": ["h", "h^2"]}
    code, rep = run_json(capsys, "discriminants", "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == "input.generators[1]"


def test_discriminants_computes_log_ch_once(capsys, monkeypatch):
    calls = {"chern_character": 0, "_log1p": 0}
    for name in calls:
        inner = getattr(chern, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(chern, name, counted)
    doc = {"rank": 3, "truncation": 4, "generators": [["a", 1], ["b", 2]],
           "classes": ["a", "b", "a*b", "b^2"]}
    code, rep = run_json(capsys, "discriminants", "--input", json.dumps(doc))
    assert code == 0 and len(rep["delta"]) == 4
    assert calls == {"chern_character": 1, "_log1p": 1}


# -- monodromy --------------------------------------------------------------------

def test_monodromy_jordan_block(capsys):
    doc = {"p": 3, "matrix": [[0, 1], [0, 0]]}
    code, rep = run_json(capsys, "monodromy", "--input", json.dumps(doc))
    assert code == 0
    assert rep["ring"] == "F_p"
    assert rep["weights"] == [-1, 0, 1]
    assert rep["ranks"] == [1, 1, 2]
    assert rep["graded_ranks"] == [1, 0, 1]
    assert all(rep["axioms"].values())


def test_monodromy_module_case(capsys):
    # multiplication by y in the off-diagonal slot: the filtration step is
    # the saturation of the image, not the image itself
    doc = {"p": 3, "matrix": [["0", "y"], ["0", "0"]]}
    code, rep = run_json(capsys, "monodromy", "--input", json.dumps(doc))
    assert code == 0
    assert rep["ring"] == "F_p[y]"
    assert rep["bases"]["-1"] == [["1", "0"]]


def test_monodromy_non_nilpotent_is_input_error(capsys):
    doc = {"p": 3, "matrix": [[1, 0], [0, 1]]}
    code, rep = run_json(capsys, "monodromy", "--input", json.dumps(doc))
    assert code == 4
    assert "not nilpotent" in rep["error"]
    assert rep["location"] == "input.matrix"


# -- residues ---------------------------------------------------------------------

def test_residues_of_the_uniformizing_field(capsys):
    code, rep = run_json(capsys, "residues", "--input", json.dumps(UNI3))
    assert code == 0
    assert rep["trace_total"] == 0 and rep["trace_expected"] == 0
    finite = [e for e in rep["per_point"] if e["point"] != "inf"]
    assert all(e["matrix"] == [[0, 0], [2, 0]] for e in finite)


@pytest.mark.parametrize("command", ["residues", "semistable", "flow",
                                     "cartier"])
@pytest.mark.parametrize("entry", ["(x)/(0)", "(x)/(3)", "(x)/(x - x)"])
def test_zero_denominator_is_input_error(capsys, command, entry):
    doc = dict(UNI3, theta=[["0", entry], ["0", "0"]])
    code, rep = run_json(capsys, command, "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == "input.theta[0][1]"


@pytest.mark.parametrize("command", ["residues", "semistable", "cartier"])
@pytest.mark.parametrize("a", [10001, -10001, 10**30, -10**30])
def test_bundle_type_is_bounded(capsys, command, a):
    doc = dict(UNI3, bundle={"type": [0, a]})
    code, rep = run_json(capsys, command, "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == "input.bundle.type[1]"


def test_bundle_type_at_the_bound_is_accepted(capsys):
    doc = dict(UNI3, bundle={"type": [10000, -10000]},
               theta=[["0", "0"], ["0", "0"]])
    code, rep = run_json(capsys, "residues", "--input", json.dumps(doc))
    assert code == 0 and rep["status"] == "pass"


# -- semistable -------------------------------------------------------------------

def test_semistable_rank2_verdicts(capsys):
    code, rep = run_json(capsys, "semistable", "--input", json.dumps(UNI3))
    assert code == 0 and rep["verdict"] == "semistable"

    flat = dict(UNI3, theta=[["0", "0"], ["0", "0"]])
    code, rep = run_json(capsys, "semistable", "--input", json.dumps(flat))
    assert code == 0 and rep["verdict"] == "unstable"
    assert rep["witness_degree"] == 1
    assert rep["witness"] == ["1", "0"]


def test_semistable_rank3_is_honestly_undecided(capsys):
    doc = {"p": 3, "divisor": {"points": [0, 1, 2, "inf"]},
           "bundle": {"type": [0, 0, 0]},
           "theta": [["0"] * 3 for _ in range(3)]}
    code, rep = run_json(capsys, "semistable", "--input", json.dumps(doc))
    assert code == 3
    assert rep["status"] == "undecided"

    doc["bundle"] = {"type": [1, 0, -1]}
    code, rep = run_json(capsys, "semistable", "--input", json.dumps(doc))
    assert code == 0 and rep["verdict"] == "unstable"
    assert any(c["source"] == "hn step 1" for c in rep["candidates"])


# -- cartier ----------------------------------------------------------------------

def test_cartier_uniformizing_contract(capsys):
    code, rep = run_json(capsys, "cartier", "--input", json.dumps(UNI3))
    assert code == 0
    assert rep["degree_E"] == 0 and rep["degree_V"] == 0
    assert rep["v_type"] == [1, -1]
    assert rep["p_curvature_level"] == 1
    assert all(rep["checks"].values())
    assert rep["p_curvature"][1][0] == "(2)/(x^6 + 2)"


def test_cartier_non_nilpotent_names_the_level(capsys):
    doc = {"p": 3, "divisor": {"points": [0, "inf"]},
           "bundle": {"type": [0, 0]},
           "theta": [["(1)/(x)", "0"], ["0", "(2)/(x)"]]}
    code, rep = run_json(capsys, "cartier", "--input", json.dumps(doc))
    assert code == 4
    assert "not nilpotent" in rep["error"] and "p-1 = 2" in rep["error"]
    assert rep["location"] == "input.theta"


def test_cartier_output_feeds_residues(capsys):
    # the emitted connection document round-trips through the residues
    # command's own input schema
    code, rep = run_json(capsys, "cartier", "--input", json.dumps(UNI3))
    assert code == 0
    code2, rep2 = run_json(capsys, "residues", "--input",
                           json.dumps(rep["connection"]))
    assert code2 == 0
    assert rep2["kind"] == "connection"
    assert rep2["trace_total"] == rep2["trace_expected"]


# -- flow -------------------------------------------------------------------------

def test_flow_periodic_orbit(capsys):
    code, rep = run_json(capsys, "flow", "--input", json.dumps(UNI3))
    assert code == 0
    assert rep["verdict"] == "periodic"
    assert rep["period"] == 1 and rep["preperiod"] == 0
    assert rep["orbit"] == [[1, -1], [1, -1]]
    assert rep["bound_ok"] is True
    assert all(s["semistability"] == "semistable" for s in rep["states"])


def test_flow_final_state_round_trips(capsys):
    code, rep = run_json(capsys, "flow", "--input", json.dumps(UNI3))
    assert code == 0
    final = rep["final"]
    code2, rep2 = run_json(capsys, "semistable", "--input",
                           json.dumps(final))
    assert code2 == 0 and rep2["verdict"] == "semistable"
    code3, rep3 = run_json(capsys, "flow", "--input", json.dumps(final))
    assert code3 == 0 and rep3["verdict"] == "periodic"


def test_flow_degree_divergence_is_definitive(capsys):
    doc = {"p": 3, "divisor": {"points": [0, 1, 2, "inf"]},
           "bundle": {"type": [1]}, "theta": [["0"]]}
    code, rep = run_json(capsys, "flow", "--input", json.dumps(doc))
    assert code == 0
    assert rep["verdict"] == "no period"
    assert rep["reason"].startswith("degree diverges")


def test_flow_stops_at_its_first_unstable_state(capsys):
    # theta = 0 on O(1) + O(-1): degree 0, but O(1) destabilizes, and
    # stepping on would multiply the type by p at every step
    doc = {"p": 5, "divisor": {"points": [0, 3, 4, "inf"]},
           "bundle": {"type": [1, -1]}, "theta": [["0", "0"], ["0", "0"]]}
    start = time.perf_counter()
    code, rep = run_json(capsys, "flow", "--input", json.dumps(doc))
    assert time.perf_counter() - start < 1
    assert code == 0 and rep["status"] == "pass"
    assert rep["verdict"] == "no period" and rep["period"] is None
    assert rep["reason"].startswith("state 0 is unstable")
    assert "degree 1" in rep["reason"]
    assert rep["orbit"] == [[1, -1]]
    assert [s["semistability"] for s in rep["states"]] == ["unstable"]


def test_rank3_flow_stops_at_a_found_destabilizer(capsys):
    # at rank 3 the verdict comes from the candidate search, and a found
    # invariant destabilizer (the HN line O(1)) stops the flow just as an
    # exact rank-2 verdict does; a flow that ran on would take seconds for
    # five steps and end undecided
    doc = {"p": 3, "divisor": {"points": [0, 1, "inf"]},
           "bundle": {"type": [1, 0, -1]},
           "theta": [["0"] * 3 for _ in range(3)]}
    start = time.perf_counter()
    code, rep = run_json(capsys, "flow", "--guard-iter", "5",
                         "--input", json.dumps(doc))
    assert time.perf_counter() - start < 1
    assert code == 0 and rep["verdict"] == "no period"
    assert rep["reason"] == ("state 0 is unstable: a theta-invariant "
                             "sub-bundle of degree 1 exceeds the slope 0")
    assert rep["orbit"] == [[1, 0, -1]]
    assert [s["semistability"] for s in rep["states"]] == ["unstable"]


def test_flow_iteration_guard_is_undecided(capsys):
    # at p = 5 the first return happens after the preperiod, so a single
    # allowed step cannot close the orbit
    code, rep = run_json(capsys, "flow", "--guard-iter", "1",
                         "--input", json.dumps(UNI5))
    assert code == 3
    assert rep["status"] == "undecided"
    assert "no recurrence within 1 steps" in rep["reason"]


# theta faults the flow refuses at its first state, before any transform:
# the rank bound is checked before nilpotency (the rank-4 field below is
# not nilpotent either)
FLOW_THETA_FAULTS = [
    ({"p": 3, "divisor": {"points": [0, 1, 2, "inf"]},
      "bundle": {"type": [0, 0]}, "theta": [["1/x", "0"], ["0", "0"]]},
     "field is not nilpotent of level <= p-1 = 2"),
    ({"p": 3, "divisor": {"points": [0, 1, 2, "inf"]},
      "bundle": {"type": [0, 0, 0, 0]},
      "theta": [["1/x", "0", "0", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"]]},
     "rank 4 exceeds the prime 3"),
]


@pytest.mark.parametrize("doc, message", FLOW_THETA_FAULTS)
def test_flow_theta_fault_is_an_input_error(capsys, doc, message):
    code, rep = run_json(capsys, "flow", "--input", json.dumps(doc))
    assert code == 4
    assert rep["status"] == "input-error"
    assert rep["error"] == message


@pytest.mark.parametrize("doc", [doc for doc, _ in FLOW_THETA_FAULTS])
def test_flow_theta_fault_names_the_field(capsys, doc):
    code, rep = run_json(capsys, "flow", "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == "input.theta"


# -- nearby-check -----------------------------------------------------------------

def test_nearby_check_reports_upsilon(capsys):
    doc = {"p": 5, "y_log": True,
           "theta_x": [["0", "1"], ["0", "0"]],
           "theta_y": [["0", "y"], ["0", "0"]]}
    code, rep = run_json(capsys, "nearby-check", "--input", json.dumps(doc))
    assert code == 0
    assert rep["equal"] is True and rep["residue_square_ok"] is True
    assert rep["upsilon"]["pieces"] == [{"weight": -1, "rank": 1},
                                        {"weight": 1, "rank": 1}]


def test_nearby_check_rejects_non_commuting_pair(capsys):
    doc = {"p": 5,
           "theta_x": [["0", "1"], ["0", "0"]],
           "theta_y": [["0", "0"], ["1", "0"]]}
    code, rep = run_json(capsys, "nearby-check", "--input", json.dumps(doc))
    assert code == 4
    assert "commute" in rep["error"]


# -- config plumbing --------------------------------------------------------------

def test_selftest_is_byte_deterministic(capsys):
    code1, out1 = run_text(capsys, "selftest", "--seed", "42")
    code2, out2 = run_text(capsys, "selftest", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, rep = run_json(capsys, "selftest", "--seed", "42")
    assert code3 == 0 and rep["seed"] == 42
    assert all(c["ok"] for c in rep["checks"])
    assert [c["name"] for c in rep["checks"]] == [
        "discriminants", "monodromy", "split", "cartier",
        "functoriality", "nearby", "flow"]


def test_hdr_seed_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("HDR_SEED", "9")
    code, rep = run_json(capsys, "selftest", "--seed", "0")
    assert code == 0 and rep["seed"] == 9
    monkeypatch.setenv("HDR_SEED", "not-a-number")
    code, rep = run_json(capsys, "selftest")
    assert code == 4 and rep["location"] == "HDR_SEED"


def test_malformed_json_names_the_position(capsys):
    code, rep = run_json(capsys, "split", "--p", "3",
                         "--input", '{"rows": ')
    assert code == 4
    assert "line" in rep["location"]


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"p": 3, "rows": [["x^-2"]]}))
    code, rep = run_json(capsys, "split", "--input", str(path))
    assert code == 0 and rep["splitting_type"] == [2]
    code, rep = run_json(capsys, "split", "--input",
                         str(tmp_path / "missing.json"))
    assert code == 4


def test_prime_mismatch_and_bad_prime(capsys):
    code, rep = run_json(capsys, "split", "--p", "5",
                         "--input", json.dumps({"p": 3, "rows": [["1"]]}))
    assert code == 4 and rep["location"] == "p"
    code, rep = run_json(capsys, "split", "--p", "4",
                         "--input", '{"rows": [["1"]]}')
    assert code == 4 and rep["location"] == "--p"


def test_entry_errors_carry_the_location(capsys):
    doc = dict(UNI3, theta=[["0", "0"], ["(1)/(x^3 + 2*x)", "what?"]])
    code, rep = run_json(capsys, "residues", "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == "input.theta[1][1]"


# one exponent past the bound, so a missing bound costs seconds, not memory
OVER = f"{MAX_EXPONENT + 1}"


@pytest.mark.parametrize("command, doc, location", [
    ("monodromy", {"p": 3, "matrix": [["0", "y^" + OVER], ["0", "0"]]},
     "input.matrix[0][1]"),
    ("split", {"p": 3, "rows": [["1", "0"], ["0", "x^-" + OVER]]},
     "input.rows[1][1]"),
    ("flow", dict(UNI3, theta=[["0", "0"], ["(1)/(x^" + OVER + " + 2*x)",
                                            "0"]]),
     "input.theta[1][0]"),
    ("cartier", dict(UNI5, theta=[["0", "0"], ["x^" + OVER, "0"]]),
     "input.theta[1][0]"),
    ("nearby-check", {"p": 5, "theta_x": [["0", "1"], ["0", "0"]],
                      "theta_y": [["0", "x*y^" + OVER], ["0", "0"]]},
     "input.theta_y[0][1]"),
])
def test_oversized_exponent_is_refused_at_its_entry(capsys, command, doc,
                                                    location):
    code, rep = run_json(capsys, command, "--input", json.dumps(doc))
    assert code == 4
    assert rep["location"] == location
    assert str(MAX_EXPONENT) in rep["error"]


def test_exponent_bound_is_inclusive_and_sums_repeated_factors():
    assert parse_poly(f"y^{MAX_EXPONENT}", 3, "y").degree == MAX_EXPONENT
    half = MAX_EXPONENT // 2 + 1
    with pytest.raises(ParseError):
        parse_poly(f"y^{half}*y^{half}", 3, "y")
    with pytest.raises(ParseError):
        parse_laurent("x^-" + OVER, 3)


@pytest.mark.parametrize("flag", ["--guard-enum", "--guard-iter"])
def test_nonpositive_guard_names_its_flag(capsys, flag):
    code, rep = run_json(capsys, "flow", flag, "0",
                         "--input", json.dumps(UNI3))
    assert code == 4
    assert rep["location"] == flag
    assert rep["error"] == f"{flag} must be positive"


def test_unknown_flag_exits_with_input_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["split", "--bogus"])
    assert exc.value.code == 4
    capsys.readouterr()


def test_text_mode_matches_json_content(capsys):
    code, out = run_text(capsys, "split", "--p", "3",
                         "--input", '{"rows": [["1", "0"], ["0", "1"]]}')
    assert code == 0
    assert "splitting_type: [0, 0]" in out
    assert "status: pass" in out


# -- frozen reports ---------------------------------------------------------------
# Printed frames, flow and discriminants reports, byte for byte: any change
# to how a bundle is split or a Chern class computed must reproduce these.

FROZEN_SPLITS = [
    # the non-split extension of O(1) by O(-1)
    ({"p": 5, "rows": [["x", "1"], ["0", "x^-1"]]},
     {"command": "split", "status": "pass", "p": 5,
      "splitting_type": [0, 0], "degree": 0, "slope": "0",
      "u_frame": [["1", "0"], ["x^-1", "4"]],
      "v_frame": [["0", "1"], ["1", "4*x"]]}),
    # O(2) + O(2) + O(-1) hidden behind random frames
    ({"p": 97, "rows": [
        ["94*x + 50 + 86*x^-1 + 93*x^-2 + 91*x^-3 + 77*x^-4 + 55*x^-5",
         "96*x^-2 + 32*x^-3 + 25*x^-4 + 30*x^-5",
         "31*x + 33 + 49*x^-1 + 95*x^-2 + 26*x^-3 + 45*x^-4 + 46*x^-5"],
        ["54*x + 31 + 49*x^-1 + 18*x^-2", "x^-2",
         "24*x + 3 + 11*x^-1 + 8*x^-2"],
        ["46*x + 22 + 61*x^-1 + 74*x^-3 + 55*x^-4",
         "75*x^-2 + 41*x^-3 + 30*x^-4",
         "42*x + 96 + 81*x^-1 + 61*x^-2 + 76*x^-3 + 46*x^-4"]]},
     {"command": "split", "status": "pass", "p": 97,
      "splitting_type": [2, 2, -1], "degree": 3, "slope": "1",
      "u_frame": [["66*x^-3", "1 + 75*x^-3 + 92*x^-4 + 12*x^-5",
                   "93*x^-3 + 31*x^-4"],
                  ["5*x^-3",
                   "91 + 20*x^-1 + 17*x^-2 + 63*x^-3 + 54*x^-4 + 45*x^-5",
                   "35 + 82*x^-3 + 92*x^-4"],
                  ["16", "27 + 37*x^-1 + 47*x^-2", "49 + 81*x^-1"]],
      "v_frame": [["0", "75", "72*x^3 + 82*x^2 + 16*x"],
                  ["1", "0", "73*x^3 + 94*x^2 + 86*x"],
                  ["0", "1", "32*x^3 + 58*x^2 + 61*x + 1"]]}),
    ({"p": 5, "rows": [["x^7", "0"], ["0", "x^-3"]]},
     {"command": "split", "status": "pass", "p": 5,
      "splitting_type": [3, -7], "degree": -4, "slope": "-2",
      "u_frame": [["0", "1"], ["1", "0"]],
      "v_frame": [["0", "1"], ["1", "0"]]}),
]

FROZEN_FLOWS = [
    (UNI3, "b7859c88c07bfd51887096bd9abc81440b579b2530dce49750d940763fb5d3d8"),
    (UNI5, "477892734d2ccdad2c6782b7527accc5922ecf6513367fa6c5d895b0772a15d9"),
    # rank 3: one flow step back to the start, through an intertwiner
    # search and the rank-3 candidate test of every state
    ({"p": 5, "divisor": {"points": [0, 1, 2, 4]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "0", "0"],
                ["(2*x + 3)/(x^4 + 3*x^3 + 4*x^2 + 2*x)", "0", "0"],
                ["0", "(3*x + 2)/(x^4 + 3*x^3 + 4*x^2 + 2*x)", "0"]]},
     "324df4be1af785a2f27f4b91cc83720df26d4221dd18278b4406488bdc8b433b"),
    ({"p": 7, "divisor": {"points": [2, 4, 5, 6]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "0", "0"],
                ["(3*x + 6)/(x^4 + 4*x^3 + 6*x^2 + 5*x + 2)", "0", "0"],
                ["0", "(5*x + 4)/(x^4 + 4*x^3 + 6*x^2 + 5*x + 2)", "0"]]},
     "172e619c02c9f8af6dd2bf12d282b376448f8ee810f3d49b272dcfc9ab1a4237"),
]

# Rank-3 semistability at p = 3, 5, 7 and 11, infinity and two or three
# finite points on every divisor: the rendered reports (exit code, digest),
# which print every candidate's rank, slope and theta-invariance.  Among
# the candidates are invariant and non-invariant lines and planes; the
# verdicts are "unstable" and "undecided".
FROZEN_SEMISTABLE = [
    ({"p": 3, "divisor": {"points": [0, 1, "inf"]},
      "bundle": {"type": [2, 1, 0]},
      "theta": [["0", "0", "0"],
                ["(2)/(x^2 + 2*x)", "0", "(x)/(x^2 + 2*x)"],
                ["0", "(2)/(x^2 + 2*x)", "0"]]},
     3, "0d66ba55db6a3eef3bde5ed6e5b9a9c821daab61b2349be4dd294537187b7e01"),
    ({"p": 3, "divisor": {"points": [0, 1, 2, "inf"]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "(2*x^3 + 2*x)/(x^3 + 2*x)", "(x^4 + x^3)/(x^3 + 2*x)"],
                ["0", "0", "(2*x^2)/(x^3 + 2*x)"],
                ["(2)/(x^3 + 2*x)", "(x + 2)/(x^3 + 2*x)", "0"]]},
     3, "d473b1ecdd0600ee0691dfee0559695f6c0e8f183b16831ac17dafc6571014ba"),
    ({"p": 5, "divisor": {"points": [0, 1, "inf"]},
      "bundle": {"type": [0, -1, -1]},
      "theta": [["(2*x + 2)/(x^2 + 4*x)", "0", "0"], ["0", "0", "0"],
                ["(3)/(x^2 + 4*x)", "0", "0"]]},
     3, "046b41666d4c0087febb96df8c80d9a6da33ee02cadfedcc3ac931067ce1a4fa"),
    ({"p": 5, "divisor": {"points": [2, 3, 4, "inf"]},
      "bundle": {"type": [-1, -1, -2]},
      "theta": [["0", "0", "0"],
                ["(4*x^2 + 3*x + 4)/(x^3 + x^2 + x + 1)", "0", "0"],
                ["(4)/(x^3 + x^2 + x + 1)", "0",
                 "(x^2 + 3*x + 2)/(x^3 + x^2 + x + 1)"]]},
     0, "d6f4552b24e729bd0f82234463fd0a6b8cdb9f74c858892365410247c7633729"),
    ({"p": 7, "divisor": {"points": [3, 6, "inf"]},
      "bundle": {"type": [0, -1, -2]},
      "theta": [["0", "(5*x^2 + 5*x + 4)/(x^2 + 5*x + 4)", "0"],
                ["0", "(x)/(x^2 + 5*x + 4)", "0"],
                ["0", "(3)/(x^2 + 5*x + 4)", "(4*x + 4)/(x^2 + 5*x + 4)"]]},
     0, "8a8e4c962d7c9dd27da208f7d8f0bb99de5732dd2e1bc3b584281e5939ae1100"),
    ({"p": 7, "divisor": {"points": [0, 2, 3, "inf"]},
      "bundle": {"type": [1, 1, 0]},
      "theta": [["(4*x^2 + 6*x + 4)/(x^3 + 2*x^2 + 6*x)", "0",
                 "(2*x^3 + x^2 + 2*x + 3)/(x^3 + 2*x^2 + 6*x)"],
                ["0", "0", "0"],
                ["(4*x + 2)/(x^3 + 2*x^2 + 6*x)", "(2*x)/(x^3 + 2*x^2 + 6*x)",
                 "0"]]},
     3, "0c31e81e7ec6d0f63020725f5d5c1da869cb3df9fd679d232dfff3067253d97f"),
    ({"p": 11, "divisor": {"points": [0, 3, "inf"]},
      "bundle": {"type": [1, 0, -2]},
      "theta": [["0", "0", "0"],
                ["(4)/(x^2 + 8*x)", "0",
                 "(4*x^3 + 10*x^2 + 3*x + 8)/(x^2 + 8*x)"],
                ["0", "0", "(9*x + 7)/(x^2 + 8*x)"]]},
     0, "6aae96060c743da9de010cae9e1a767eef0e3f01226f4d9bc41e235c15034099"),
    ({"p": 11, "divisor": {"points": [1, 8, 9, "inf"]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "0", "0"], ["0", "0", "0"],
                ["0", "(6*x + 7)/(x^3 + 4*x^2 + x + 5)",
                 "(7*x^2 + 9*x + 8)/(x^3 + 4*x^2 + x + 5)"]]},
     0, "a4acec6090d4c35c5af7a0a7db53704dfc87d4760e03c67c0f8ce275b948659b"),
]


# One discriminants document per benchmark ring, two of them at truncation
# 10, and one log-free datum: the rendered reports, byte for byte.
FROZEN_DISCRIMINANTS = [
    ({"rank": 3, "truncation": 10, "generators": [["h", 1]],
      "classes": ["-1*h", "-2*h^2", "2*h^3", "-2*h^4", "-1*h^5", "0",
                  "-3*h^7", "1/2*h^8", "0", "-2*h^10"]},
     "38c2c44a8a55172bf5857417fca6376ba6a32bc79d38c54b5c363c91ab735dc4"),
    ({"rank": 2, "truncation": 4, "generators": [["a", 1], ["b", 1]],
      "classes": ["1*b + -3*a", "-1*b^2", "-1*b^3 + 2*a^3",
                  "-3*b^4 + 3*a^3*b"]},
     "90d275f82cd20cddf41e1e871460d148d7e6cbd8cacb9048de4bd7386c369bc3"),
    ({"rank": 4, "truncation": 5, "generators": [["a", 1], ["b", 2]],
      "classes": ["1/2*a", "1*b + -3*a^2", "2*a*b + -2*a^3", "0", "0"]},
     "67bd3ca5197e69c44022d111650453139d14add0cac56d1964fb92808c0365fe"),
    ({"rank": 5, "truncation": 6, "generators": [["a", 1], ["b", 3]],
      "classes": ["-2/3*a", "-2/3*a^2", "0", "-3*a*b", "0", "0"]},
     "069cdad258df589415e5c4691b91fea4d356a8b6cdbec38226793c5ac5317912"),
    ({"rank": 6, "truncation": 10,
      "generators": [["a", 1], ["b", 2], ["c", 2]],
      "classes": ["1*a", "-2*c + -3*b + 1/2*a^2", "1/2*a*b + -2*a^3", "0",
                  "-2*a^5", "0", "2*a^3*c^2", "0", "-3*a*c^4 + -3*a^9",
                  "1/2*a^4*c^3 + 1*a^8*b"]},
     "53bfc8a499d251bf068785e623273fd61e7dabd33c45fdb6056f8ee42fd4b329"),
    ({"rank": 1, "truncation": 6,
      "generators": [["a", 1], ["b", 2], ["c", 3]],
      "classes": ["1*a", "-1*b + -2/3*a^2", "0", "1/2*a^2*b", "0", "0"]},
     "cd4c46803733bf7d0fe54ffd32e705e09e9980353a5a6bce7fb337f929ae1fc1"),
    ({"rank": 2, "truncation": 2, "classes": ["2*h", "h^2"]},
     "160860b64d6d99da76f1a1d4f8860634d753b50b6303a5823b5effaf4272a78b"),
]


# Monodromy over F_p[y] in dimensions 3, 4 and 5 (p = 3, 5, 7), one operator
# over F_p, and nearby-check at ranks 2 and 3 with and without the log pole
# along y = 0: the rendered reports, byte for byte.
MONODROMY_DIM5 = {"p": 7, "matrix": [
    ["y^2 + y", "5*y^3 + 4*y^2 + 3*y", "6*y^3 + 6*y^2",
     "4*y^3 + 2*y^2 + 6*y + 6", "y^3 + 2*y^2 + 4*y + 6"],
    ["3*y", "y^2 + 2*y", "4*y^2", "5*y^2 + y + 5", "3*y^2 + 4*y + 1"],
    ["2*y + 3", "3*y^2 + 3*y + 2", "5*y^2 + 4*y", "y^2 + y + 2",
     "2*y^2 + 4*y + 1"],
    ["0", "0", "0", "0", "6*y + 2"],
    ["0", "0", "0", "0", "0"]]}

NEARBY_RANK3 = {"p": 7, "y_log": True,
                "theta_x": [["0", "6*x*y + y", "4*x*y + x + 5*y + 1"],
                            ["0", "0", "6*x*y + y"], ["0", "0", "0"]],
                "theta_y": [["0", "4*x*y + 5*x + 3*y + 4",
                             "3*x*y + 4*x + 4*y + 6"],
                            ["0", "0", "4*x*y + 5*x + 3*y + 4"],
                            ["0", "0", "0"]]}

FROZEN_LOCAL = [
    ("monodromy", {"p": 3, "matrix": [
        ["y + 2", "y + 2", "y + 2"],
        ["y^3 + 2*y^2 + 2*y + 1", "y^3 + 2*y^2 + 2*y + 1", "y^3 + 2*y + 1"],
        ["2*y^3 + 2*y^2 + 2*y", "2*y^3 + 2*y^2 + 2*y", "2*y^3 + y^2"]]},
     "3f2238eaaa65d796dad829577017710a34e7d0aab127236623eb012d615fbfd1"),
    ("monodromy", {"p": 5, "matrix": [
        ["0", "4*y^2 + 4*y + 3", "3*y^2 + y + 3", "4*y^3 + 2*y^2"],
        ["0", "3*y^4 + y^3 + 2*y^2 + 4*y", "y^4 + 4*y^3 + 2*y",
         "3*y^5 + 2*y^4 + 2*y^3 + 4*y^2 + 4"],
        ["0", "4*y^2 + y", "3*y^2 + 2", "4*y^3 + 4*y^2 + y + 1"],
        ["0", "2*y^3 + 3*y", "4*y^3 + 3*y^2 + 4*y + 1",
         "2*y^4 + 4*y^3 + y + 3"]]},
     "3405f8f557accfac9f266e9db9180a27ff0238336bbdcbd86b5890e75c9c85e2"),
    ("monodromy", {"p": 7, "matrix": [
        ["3*y^5 + 6*y^4 + 5*y^3 + 4*y + 4", "6*y + 1", "y^2 + 4", "y^3 + y",
         "y^4 + y^3 + y^2 + 6*y + 6"],
        ["4*y^4 + 5*y^2 + y + 2", "0", "6*y + 2", "6*y^2 + 2*y + 3",
         "6*y^3 + y^2 + 5*y + 3"],
        ["3*y^6 + 6*y^5 + 5*y^4 + 2*y^3 + y^2 + 6*y", "6*y^2 + y",
         "y^3 + 4*y", "y^4 + y^2", "y^5 + y^4 + y^3 + 2*y^2 + 2*y"],
        ["5*y^2 + 3*y + 5", "0", "0", "0", "4*y + 4"],
        ["5*y^6 + y^5 + 2*y^4 + 6*y^3 + 2*y^2 + 4*y + 2", "3*y^2 + 4",
         "4*y^3 + 4*y^2 + 2*y + 2", "4*y^4 + 4*y^3 + 4*y^2 + 4*y",
         "4*y^5 + y^4 + y^3 + 6*y + 3"]]},
     "65470bc45401c7e04902eda95a44bbe864087be6ee356d91c592a30382657f30"),
    ("monodromy", MONODROMY_DIM5,
     "4f7bc6a81aba947955a7adf515b19703284268e68f51b07be79a09786c96f32b"),
    # Jordan type (3, 2, 1) over F_5 behind a random frame
    ("monodromy", {"p": 5, "matrix": [
        [2, 2, 3, 0, 2, 4], [0, 4, 2, 2, 2, 3], [4, 1, 1, 3, 1, 3],
        [2, 3, 3, 4, 3, 4], [0, 2, 0, 3, 2, 0], [4, 2, 2, 0, 1, 2]]},
     "4a207c5560afc6b45ef365753960ba2f458179624c31e4453343dba234ffa3d4"),
    ("nearby-check", {"p": 3, "y_log": False,
                      "theta_x": [["0", "y + 1"], ["0", "0"]],
                      "theta_y": [["0", "x*y + 2*x + 2"], ["0", "0"]]},
     "b5c4680a56f40640011b6b7b0136f2e3c84875335d1328e00bd01648743389ce"),
    ("nearby-check", {"p": 5, "y_log": True,
                      "theta_x": [["0", "4*x*y + 4*y + 2"], ["0", "0"]],
                      "theta_y": [["0", "x*y + x + 2*y"], ["0", "0"]]},
     "c9cd4f07648c0e8fbc37e17854def271b24473a0503afb66fbe8e904a9284698"),
    ("nearby-check", {"p": 5, "y_log": False,
                      "theta_x": [["0", "4*x*y + y", "2*x*y + x + 2*y + 4"],
                                  ["0", "0", "4*x*y + y"], ["0", "0", "0"]],
                      "theta_y": [["0", "3*x*y + 2*x + y + 2",
                                   "x*y + 2*x + 4*y"],
                                  ["0", "0", "3*x*y + 2*x + y + 2"],
                                  ["0", "0", "0"]]},
     "da3ad4ced46d5b676919bbc3d69182043cbe611414499e82a7cd57d5eccff126"),
    ("nearby-check", NEARBY_RANK3,
     "c736a96c9c62ae6bbab775b64ccc00579c79d1a8451f9fb20ae752d2e43b1d65"),
    # the zero operator over F_5
    ("monodromy", {"p": 5, "matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
     "fe4fb64c05b0471bb681e69114ab45acdf630ff861169252b567b7f802f91543"),
    # J_3 over F_7
    ("monodromy", {"p": 7, "matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]},
     "8e56ff46cc8ea8623f7575377fb9da19e5bf07782e99c6533a71bf2dd4cad23e"),
    # Jordan type (2, 2) over F_3
    ("monodromy", {"p": 3, "matrix": [
        [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]},
     "94f11bbc2337ff7eadbd6c407b8b81cfe69f1198d7d3b57262eddd30715006e0"),
    # Jordan type (3, 2, 1) over F_11 behind a random frame
    ("monodromy", {"p": 11, "matrix": [
        [6, 4, 9, 6, 8, 8], [0, 1, 0, 4, 6, 6], [6, 0, 6, 6, 6, 10],
        [4, 4, 0, 1, 6, 3], [2, 4, 0, 3, 4, 8], [1, 6, 7, 4, 4, 4]]},
     "9c85f4a2b283e49f1f7cf0d8f1f38bc533ea9d0a7c537ad3868bb00111249365"),
]

# Inverse Cartier transforms at p = 3, 5, 7 and 97, ranks 2 and 3, with and
# without infinity on the divisor: the rendered reports, which print the
# p-curvature and the connection matrices entry by entry.  Where a finite
# divisor point other than 0 makes the two canonical liftings differ, the
# charts are glued by a nontrivial exp(tau).
FROZEN_CARTIER = [
    ({"p": 3, "divisor": {"points": [0, 1, "inf"]}, "bundle": {"type": [0, 0]},
      "theta": [["0", "(2*x + 1)/(x^2 + 2*x)"], ["0", "0"]]},
     "63be3c4400f5ca2cc5fb91442da6b95b5e82bf4213081914991bcaa140beca0b"),
    ({"p": 3, "divisor": {"points": [1, 2]}, "bundle": {"type": [0, 0]},
      "theta": [["0", "0"], ["(1)/(x^2 + 2)", "0"]]},
     "892e13d9e5ce90449cc46b5164996d49be240ee24586062bed90bf427612ee09"),
    ({"p": 5, "divisor": {"points": [0, 2]}, "bundle": {"type": [0, 0]},
      "theta": [["0", "(3)/(x^2 + 3*x)"], ["0", "0"]]},
     "9d28eff86dfcdbd04b235b89d0d6c3ebf07660efc56b68b921b395435733157c"),
    ({"p": 5, "divisor": {"points": [0, 1, 2, "inf"]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "0", "0"],
                ["(x + 4)/(x^3 + 2*x^2 + 2*x)", "0", "0"],
                ["(2)/(x^3 + 2*x^2 + 2*x)", "(3*x + 1)/(x^3 + 2*x^2 + 2*x)",
                 "0"]]},
     "2d3caeb9834e1a898aa1d5abb5996654b23a1b24119c8dd4569aa0e6197fcb7d"),
    ({"p": 7, "divisor": {"points": [0, 3, 5, "inf"]},
      "bundle": {"type": [1, 0, -1]},
      "theta": [["0", "0", "0"],
                ["(x + 2)/(x^3 + 6*x^2 + x)", "0", "0"],
                ["(4)/(x^3 + 6*x^2 + x)", "(2*x + 1)/(x^3 + 6*x^2 + x)",
                 "0"]]},
     "6b32da75550e3094a8696a17f3fac9b4f9914fec89f1a88f316b3c09112bc1d1"),
    ({"p": 7, "divisor": {"points": [2, 4, 6]}, "bundle": {"type": [0, 0, 0]},
      "theta": [["0", "(1)/(x^3 + 2*x^2 + 2*x + 1)",
                 "(3*x)/(x^3 + 2*x^2 + 2*x + 1)"],
                ["0", "0", "(x + 5)/(x^3 + 2*x^2 + 2*x + 1)"],
                ["0", "0", "0"]]},
     "9df348130a522cfab9e4b80e59eb6dbe8c74bc5eeb1564275bf687e11be12633"),
    ({"p": 97, "divisor": {"points": [0, "inf"]}, "bundle": {"type": [0, 0]},
      "theta": [["0", "0"], ["(7)/(x)", "0"]]},
     "e449750cde3ac9fe3cbd3df0f5bde33329eb9e9b6882aafd1a7eab13b015800d"),
    ({"p": 97, "divisor": {"points": [0, 5, "inf"]},
      "bundle": {"type": [0, 0]},
      "theta": [["0", "0"], ["(7)/(x^2 + 92*x)", "0"]]},
     "19f3066fb9250db5e84621aa3ab11889765523af7d410508b6d0a9233746a71e"),
]


@pytest.mark.parametrize("doc, want", FROZEN_SPLITS)
def test_split_report_is_frozen(capsys, doc, want):
    code, out = run_text(capsys, "split", "--json", "--input", json.dumps(doc))
    assert code == 0
    assert out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("doc, digest", FROZEN_FLOWS)
def test_flow_report_is_frozen(capsys, doc, digest):
    code, out = run_text(capsys, "flow", "--json", "--input", json.dumps(doc))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc, code, digest", FROZEN_SEMISTABLE)
def test_semistable_report_is_frozen(capsys, doc, code, digest):
    got, out = run_text(capsys, "semistable", "--json",
                        "--input", json.dumps(doc))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc, digest", FROZEN_DISCRIMINANTS)
def test_discriminants_report_is_frozen(capsys, doc, digest):
    code, out = run_text(capsys, "discriminants", "--json",
                         "--input", json.dumps(doc))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc, digest", FROZEN_CARTIER)
def test_cartier_report_is_frozen(capsys, doc, digest):
    code, out = run_text(capsys, "cartier", "--json",
                         "--input", json.dumps(doc))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, doc, digest", FROZEN_LOCAL)
def test_local_report_is_frozen(capsys, command, doc, digest):
    code, out = run_text(capsys, command, "--json", "--input", json.dumps(doc))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, doc, bound", [
    ("monodromy", MONODROMY_DIM5, 54),
    ("nearby-check", NEARBY_RANK3, 29),
])
def test_local_work_is_frozen(capsys, monkeypatch, command, doc, bound):
    """U^-1 comes out of the Smith elimination, never from an adjugate, and
    one Smith form serves every right-hand side against the same matrix."""
    smith, inverse = polymat.smith_form, polymat.pmat_inverse
    eliminations = []
    callers = []

    def counted_smith(M):
        eliminations.append(len(M))
        return smith(M)

    def counted_inverse(M):
        callers.append(sys._getframe(1).f_code.co_name)
        return inverse(M)
    monkeypatch.setattr(polymat, "smith_form", counted_smith)
    monkeypatch.setattr(polymat, "pmat_inverse", counted_inverse)
    code, rep = run_json(capsys, command, "--input", json.dumps(doc))
    assert code == 0 and rep["status"] == "pass"
    assert not {"saturate", "complete_unimodular"} & set(callers)
    assert len(eliminations) <= bound


# -- robustness -------------------------------------------------------------------

MUTATION_BASES = {
    "discriminants": {"rank": 2, "truncation": 2, "generators": [["h", 1]],
                      "classes": ["h", "h^2"]},
    "monodromy": {"p": 3, "matrix": [["0", "y"], ["0", "0"]]},
    "split": {"p": 3, "rows": [["x + x^-1", "x^-1"], ["1", "1"]]},
    "residues": {"kind": "connection", "p": 3,
                 "divisor": {"points": [0, "inf"]},
                 "bundle": {"rows": [["x", "0"], ["0", "x^-1"]]},
                 "a0": [["0", "0"], ["(1)/(x)", "0"]]},
    "semistable": UNI3,
    "cartier": UNI3,
    "flow": UNI5,
    "nearby-check": {"p": 5, "y_log": True,
                     "theta_x": [["0", "1"], ["0", "0"]],
                     "theta_y": [["0", "y"], ["0", "0"]]},
}

MALFORMED = ("1/", "(x", "x^", "1/0", "x^-1/x", "", "y^2", "2/(x-x)", "abc",
             "x^99999999999", "1//x", "-", "x^1.5", "((1)/(x))/(0)", "inf")


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _mutated(rng, doc):
    """One seeded edit at a random place of a copy of `doc`: a malformed
    rational, an int of +-10^30, a wrong shape, or a deleted key or entry."""
    doc = json.loads(json.dumps(doc))
    *head, key = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for k in head:
        parent = parent[k]
    node = parent[key]
    kind = rng.choice(("rational", "huge", "shape", "delete"))
    if kind == "rational":
        parent[key] = rng.choice(MALFORMED)
    elif kind == "huge":
        parent[key] = rng.choice((10 ** 30, -10 ** 30))
    elif kind == "shape":
        parent[key] = rng.choice((node[:-1] if isinstance(node, list)
                                  else [node], [node], [[]], {}, None, 1.5,
                                  True))
    else:
        del parent[key]
    return doc


def test_mutated_documents_end_in_a_documented_exit():
    """200 seeded mutations of small documents of every command that reads
    one: each ends in a report with exit 0, 2, 3 or 4, never a traceback,
    and all of them together take well under a second."""
    rng = random.Random(2712)
    start = time.perf_counter()
    for command in sorted(MUTATION_BASES) * 25:
        src = json.dumps(_mutated(rng, MUTATION_BASES[command]))
        print(command, src)  # shown by pytest when a run fails
        report, code = run(RunConfig(command=command, source=src, p=None,
                                     guard_enum=200000, guard_iter=10,
                                     seed=0, fmt="json"))
        render(report, "json")
        assert code in (0, 2, 3, 4)
    assert time.perf_counter() - start < 1.0
