import copy
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_ALPHA_I, SQRT3, THETA2, lambda_atom, n_qubit_generator,
                      random_diagonal, random_gks, reference_dumps, reference_json_to_matrix)
from lindbladsim import cli, serialize
from lindbladsim.cli import main
from lindbladsim.decompose import decompose_generator
from lindbladsim.lindblad import GksGenerator, liouvillian_matrix, maximally_mixed
from lindbladsim.sud import adjoint_matrix, gell_mann_basis


def write_generator(path, g):
    path.write_text(serialize.dumps(serialize.generator_to_json(g)) + "\n")


def lambda_doc(tmp_path, g1=1.0, g2=1.0):
    path = tmp_path / "gen.json"
    write_generator(path, lambda_atom(g1, g2))
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_accepts_lambda_atom(tmp_path, capsys):
    path = lambda_doc(tmp_path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "m = 2" in out


def test_validate_rejects_non_hermitian_h(tmp_path):
    doc = serialize.generator_to_json(lambda_atom())
    doc["H"][0][1] = [0.0, 0.0]
    doc["H"][1][0] = [1e-3, 0.0]  # asymmetric perturbation
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert main(["validate", str(path)]) == 1


def test_validate_rejects_overflowing_non_hermitian_h(tmp_path, capsys):
    # both norms in the Hermiticity check overflow for this H
    zero = [0.0, 0.0]
    doc = {"d": 2, "H": [[zero, [1e200, 0.0]], [zero, zero]], "terms": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1  # a warning would raise here
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: H is not Hermitian within tolerance\n"


ZERO, HUGE = [0.0, 0.0], [1e308, 0.0]
NEAR_OVERFLOW = {
    # the Hermitian part of A, its Frobenius norm and its spectrum must not overflow
    "huge-A": ({"d": 2, "H": [[ZERO, ZERO], [ZERO, ZERO]],
                "A": [[HUGE if i == j else ZERO for j in range(3)] for i in range(3)]}, 0),
    # H - H† overflows unless it is formed from halves
    "huge-anti-hermitian-H": ({"d": 2, "H": [[ZERO, HUGE], [[-1e308, 0.0], ZERO]], "terms": []},
                              1),
}


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("name", NEAR_OVERFLOW)
def test_near_overflow_generators_exit_cleanly(tmp_path, capsys, command, name):
    doc, code = NEAR_OVERFLOW[name]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == code  # a warning or a traceback would raise here
    assert ("error: " in capsys.readouterr().err) == (code == 1)


@pytest.mark.parametrize("mode", ["oracle", "trotter"])
def test_simulate_refuses_overflowing_liouvillian(tmp_path, capsys, mode):
    # validate and decompose accept huge-A, but its generator matrix overflows
    doc = {"generator": NEAR_OVERFLOW["huge-A"][0],
           "rho0": serialize.matrix_to_json(maximally_mixed(2).rho),
           "t": 1e-300, "epsilon": 1e-3, "mode": mode}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1  # a warning would raise here
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the generator matrix overflows\n"


@pytest.mark.parametrize("t", [1e15, 1e20])
@pytest.mark.parametrize("mode", ["oracle", "trotter"])
def test_simulate_refuses_times_beyond_the_exponential(tmp_path, capsys, mode, t):
    # amplitude damping, ||tL||_1 = 2t: past the exponential's domain, a
    # refusal and not a state the exponential cannot vouch for
    zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    jump = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc = {"generator": {"d": 2, "H": zero2, "terms": [{"gamma": 1.0, "L": jump}]},
           "rho0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
           "t": t, "epsilon": 1e-3, "mode": mode}
    path = tmp_path / "damping.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: matrix exponential needs ||A||_1 <= ")


@pytest.mark.parametrize("g1", [1.0, 0.0], ids=["lambda", "zero"])
@pytest.mark.parametrize("mode", ["oracle", "trotter"])
def test_simulate_refuses_dimension_mismatch(tmp_path, capsys, mode, g1):
    doc = {"generator": serialize.generator_to_json(lambda_atom(g1, g1)),
           "rho0": serialize.matrix_to_json(maximally_mixed(2).rho),
           "t": 1.0, "epsilon": 1e-3, "mode": mode}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: state has d = 2 but the generator has d = 3\n"


@pytest.mark.parametrize("key", ["d", "rho"])
def test_a_state_object_missing_a_key_is_refused_as_a_state(tmp_path, capsys, key):
    # the state document is blamed, not the request, which has its 'rho0'
    state = {"d": 3, "rho": serialize.matrix_to_json(maximally_mixed(3).rho)}
    del state[key]
    doc = {"generator": LAMBDA_DOC, "rho0": state, "t": 1.0, "epsilon": 1e-3}
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: state document is missing {key!r}\n"


@pytest.mark.parametrize("d", [0, 1, -3])
def test_a_dimension_below_2_is_refused_by_its_dimension(tmp_path, capsys, d):
    # d = 0 read "H must be 0x0, got (1, 1)" and d = -3 "H must be -3x-3, ..."
    doc = {"d": d, "H": [[[0.0, 0.0]]], "terms": []}
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "decompose"):
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: dimension must be >= 2, got {d}\n"


def with_entry(entry):
    """A 2 x 2 zero matrix whose first entry is `entry`."""
    return [[entry, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


# malformed matrices, each refused by serialize.json_to_matrix; the last six are
# the entries that one np.array(..., float) conversion would misread or trip on
MALFORMED_MATRICES = {
    "text-entry": [[[0.0, 0.0], "x"], [[0.0, 0.0], [0.0, 0.0]]],
    "ragged-h": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    "nan-h": with_entry([float("nan"), 0.0]),
    # only JSON numbers are numbers: no numeric text, no booleans
    "numeric-text-entry": with_entry(["0.5", 0.0]),
    "bool-entry": with_entry([True, 0.0]),
    "bool-imaginary-part": with_entry([0.0, False]),
    "400-digit-entry": with_entry([0.0, 10 ** 400]),
    "1e400-entry": json.loads("[[[1e400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"),
    "bare-numbers": [[0.0, 0.0], [0.0, 0.0]],
    "three-part-pair": with_entry([0.0, 0.0, 0.0]),
}


def test_validate_rejects_malformed_json(tmp_path):
    zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    jump = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    term = {"gamma": 1.0, "L": jump}
    documents = {
        "broken": "{not json",
        "not-utf8": b'{"d": 2, "H": "\xff"}',
        "too-deep": "[" * 100000,
        "no-gamma": {"d": 2, "H": zero2, "terms": [{"L": jump}]},
        "string-gamma": {"d": 2, "H": zero2, "terms": [{**term, "gamma": "x"}]},
        "string-d": {"d": "two", "H": zero2, "terms": [term]},
        "float-d": {"d": 2.5, "H": zero2, "terms": [term]},
        "terms-number": {"d": 2, "H": zero2, "terms": 5},
        "numeric-text-d": {"d": "2", "H": zero2, "terms": [term]},
        "numeric-text-gamma": {"d": 2, "H": zero2, "terms": [{**term, "gamma": "1"}]},
        **{name: {"d": 2, "H": H, "terms": [term]} for name, H in MALFORMED_MATRICES.items()},
    }
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for command in ("validate", "decompose"):
            assert main([command, str(path)]) == 2, (name, command)


def test_refusals_quote_at_most_80_characters(tmp_path, capsys):
    """A refused entry or mode is quoted in at most 80 characters, however large it is."""
    deep = json.loads("[" * 500 + "1" + "]" * 500)
    zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    term = {"gamma": 1.0, "L": zero2}
    g = lambda_atom()
    req = json.loads(simulation_request(tmp_path, g, maximally_mixed(3).rho, 1.0, 1e-3,
                                        "oracle").read_text())
    cases = [("validate", {"d": 2, "H": with_entry(deep), "terms": [term]}, 2),
             ("validate", {"d": 2, "H": with_entry([0.0, 10 ** 400]), "terms": [term]}, 2),
             ("validate", {"d": 2, "H": zero2, "terms": [{**term, "gamma": "x" * 1000}]}, 2),
             ("simulate", {**req, "mode": [[0] * 1000]}, 2),
             ("simulate", {**req, "mode": "x" * 1000}, 1)]
    for i, (command, doc, code) in enumerate(cases):
        path = tmp_path / f"long-{i}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(path)]) == code, i
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("...") and len(line) <= 80 + 60, (i, line)
    assert serialize.quoted("x" * 78) == repr("x" * 78)
    assert serialize.quoted("x" * 79) == "'" + "x" * 76 + "..."


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.json"]) == 2


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_lambda_atom_thetas(tmp_path):
    path = lambda_doc(tmp_path, 1.0, 1.0)
    out = tmp_path / "plans.json"
    assert main(["decompose", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["plans"]) == 2
    thetas = sorted(p["theta"] for p in doc["plans"])
    assert thetas == pytest.approx(sorted([math.pi / 4, THETA2]), abs=1e-10)
    assert all(r <= 1e-8 for r in doc["residuals"])


def test_decompose_hamiltonian_only(tmp_path):
    b = gell_mann_basis(2)
    g = GksGenerator(basis=b, H=np.diag([0.5, -0.5]).astype(complex), A=np.zeros((3, 3)))
    path = tmp_path / "h.json"
    write_generator(path, g)
    out = tmp_path / "plans.json"
    assert main(["decompose", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["plans"] == []


def _hyperspherical(angles, size):
    x = np.zeros(size)
    if size == 1:
        x[0] = 1.0
        return x
    sin_prod = 1.0
    for i in range(size - 2):
        x[i] = sin_prod * math.cos(angles[i])
        sin_prod *= math.sin(angles[i])
    x[size - 2] = sin_prod * math.cos(angles[-1])
    x[size - 1] = sin_prod * math.sin(angles[-1])
    return x


def test_decompose_plan_file_reassembles_liouvillian(tmp_path, rng):
    # reassemble from the emitted JSON only, with the angle embedding
    # recomputed here rather than through the library's reconstruction
    g = random_gks(4, rng)
    path = tmp_path / "gen.json"
    write_generator(path, g)
    out = tmp_path / "plans.json"
    assert main(["decompose", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    b = g.basis
    d = doc["d"]
    excluded = [b.index_y(j, d) for j in range(1, d)]
    support = [i for i in range(b.n) if i not in excluded]
    A = np.zeros((b.n, b.n), dtype=complex)
    for p in doc["plans"]:
        aR = np.zeros(b.n)
        aR[: d - 1] = _hyperspherical(p["alphaR"], d - 1)
        aI = np.zeros(b.n)
        aI[support] = _hyperspherical(p["alphaI"], len(support))
        v = math.cos(p["theta"]) * aR + 1j * math.sin(p["theta"]) * aI
        U = serialize.json_to_matrix(p["U"])
        G = adjoint_matrix(U, b)
        A += p["lambda"] * (G @ np.outer(v, np.conj(v)) @ G.T)
    H = serialize.json_to_matrix(doc["H"])
    S_in = liouvillian_matrix(g)
    S_re = liouvillian_matrix(GksGenerator(basis=b, H=H, A=A))
    assert np.max(np.abs(S_in - S_re)) < 1e-8


@pytest.mark.parametrize("case", ["lambda"] + [f"random-d{d}" for d in range(2, 7)])
def test_decompose_file_matches_library_plans(tmp_path, case):
    """The plans decompose --out writes (17-digit JSON, which round-trips every
    float) are those of decompose_generator: the CLI and the library run one
    decomposition."""
    d = 3 if case == "lambda" else int(case[-1])
    g = lambda_atom() if case == "lambda" else random_gks(d, np.random.default_rng(d))
    path, out = tmp_path / "gen.json", tmp_path / "plans.json"
    write_generator(path, g)
    assert main(["decompose", str(path), "--out", str(out)]) == 0
    written = json.loads(out.read_text())["plans"]
    plans = decompose_generator(g)
    assert len(written) == len(plans) > 0
    for doc, plan in zip(written, plans):
        assert doc["lambda"] == plan.lam and doc["theta"] == plan.params.theta
        assert tuple(doc["alphaR"]) == plan.params.alphaR
        assert tuple(doc["alphaI"]) == plan.params.alphaI
        assert np.array_equal(serialize.json_to_matrix(doc["U"]), plan.U)


def test_decompose_random_d4_residuals(tmp_path, rng):
    g = random_gks(4, rng)
    path = tmp_path / "gen.json"
    write_generator(path, g)
    out = tmp_path / "plans.json"
    assert main(["decompose", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(r <= 1e-8 for r in doc["residuals"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulation_request(tmp_path, g, rho, t, eps, mode):
    req = {
        "generator": serialize.generator_to_json(g),
        "rho0": serialize.matrix_to_json(rho),
        "t": t,
        "epsilon": eps,
        "mode": mode,
    }
    path = tmp_path / "request.json"
    path.write_text(serialize.dumps(req))
    return path


@pytest.mark.parametrize("command, counts", [
    ("validate", {"gks_spectrum": 1}),
    ("decompose", {"gks_spectrum": 1, "decompose_terms": 1}),
    # a Trotter run decomposes each candidate split once: the lambda atom's spectral and
    # DFT splits (its Cholesky split is its spectral split)
    ("simulate", {"gks_spectrum": 1, "decompose_terms": 2}),
    ("example-lambda", {"gks_spectrum": 1, "decompose_terms": 2}),
    ("oracle", {}),  # no split at all
])
def test_each_subcommand_decomposes_its_generator_once(tmp_path, decompositions, command,
                                                       counts):
    path = (simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 1e-3,
                               "trotter") if command == "simulate" else lambda_doc(tmp_path))
    out = ["--out", str(tmp_path / "out.json")]
    if command == "oracle":
        path = simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 1e-3,
                                  "oracle")
    argv = {"validate": ["validate", str(path)], "decompose": ["decompose", str(path), *out],
            "simulate": ["simulate", str(path), *out], "example-lambda": ["example-lambda", *out],
            "oracle": ["simulate", str(path), *out]}
    assert main(argv[command]) == 0
    assert decompositions == counts


@pytest.mark.parametrize("command", ["validate", "decompose", "simulate", "example-lambda"])
def test_each_subcommand_diagonalizes_a_once(tmp_path, monkeypatch, command):
    # the generator's one numerics.eigh of A serves the positivity check, validate's
    # minimum eigenvalue and the spectral split; the lambda atom's A is 8 x 8
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, fn=getattr(np.linalg, name), name=name, **kwargs):
            if np.shape(a)[-2:] == (8, 8):
                calls.append(name)
            return fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    path = (simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 1e-3,
                               "trotter") if command == "simulate" else lambda_doc(tmp_path))
    calls.clear()  # building the documents above diagonalized A too
    out = ["--out", str(tmp_path / "out.json")]
    argv = {"validate": ["validate", str(path)], "decompose": ["decompose", str(path), *out],
            "simulate": ["simulate", str(path), *out], "example-lambda": ["example-lambda", *out]}
    assert main(argv[command]) == 0
    assert calls == ["eigh"]


def test_simulate_time_zero_echoes_state(tmp_path):
    g = lambda_atom()
    rho = maximally_mixed(3).rho
    req = simulation_request(tmp_path, g, rho, 0.0, 1e-3, "trotter")
    out = tmp_path / "state.json"
    assert main(["simulate", str(req), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert np.max(np.abs(serialize.json_to_matrix(doc["rho"]) - rho)) < 1e-14


def test_simulate_lambda_atom_trotter(tmp_path):
    g = lambda_atom()
    req = simulation_request(tmp_path, g, maximally_mixed(3).rho, 1.0, 1e-3, "trotter")
    out = tmp_path / "state.json"
    assert main(["simulate", str(req), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cost = doc["cost"]
    assert doc["trace_distance_to_oracle"] <= 1e-3
    assert cost["N_exp_actual"] <= cost["N_exp_bound_res"]
    assert cost["k"] == 1 and cost["certificate"] <= cost["target"]
    # the target is eps less the residual's and the rounding's parts, both positive
    assert cost["target"] == 1e-3 - cost["residual_bound"] - cost["rounding_allowance"]
    assert 0.0 < cost["residual_bound"] < 1e-13 and 0.0 < cost["rounding_allowance"] < 1e-13
    # the DFT split's coin flip, 6 exponentials, where the spectral split's fixed block,
    # the cheapest of its candidates, needs 9
    assert (cost["split"], cost["formula"], cost["N_exp_actual"]) == ("dft", "mixed-orders", 6)


def test_simulate_names_the_coin_flip_formula_and_repeats_its_bytes(tmp_path):
    # every call parses a new generator; a mixture's map is computed, not sampled, so
    # the output is the same bytes on every run.  The coin flip is the mixture of one
    # pair, the norm order's; on random d = 4 the run draws from four chosen pairs
    cases = ((n_qubit_generator(2), 1), (random_gks(4, np.random.default_rng(4)), 4))
    for g, pairs in cases:
        req = simulation_request(tmp_path, g, maximally_mixed(g.d).rho, 1.0, 1e-3, "trotter")
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        for out in outs:
            assert main(["simulate", str(req), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        cost = doc["cost"]
        assert (cost["formula"], cost["pairs"]) == ("mixed-orders", pairs)
        assert doc["trace_distance_to_oracle"] <= 1e-3
        # the worst case over the blocks drawn: no two of the n_reps blocks merge
        assert cost["N_exp_actual"] == cost["N_exp_unmerged"]


def test_simulate_reports_the_certificate_search(tmp_path):
    req = simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 1e-6,
                             "trotter")
    out = tmp_path / "state.json"
    assert main(["simulate", str(req), "--out", str(out)]) == 0
    cost = json.loads(out.read_text())["cost"]
    assert cost["builds"] == 1 and cost["certificate"] <= cost["target"]
    assert cost["target"] == 1e-6 - cost["residual_bound"] - cost["rounding_allowance"]
    assert cost["predicted_certificate"] == pytest.approx(cost["certificate"], rel=0.1)


def test_simulate_oracle_damping_fixed_point(tmp_path):
    b = gell_mann_basis(2)
    L = np.zeros((2, 2), dtype=complex)
    L[0, 1] = 1.0
    from lindbladsim.lindblad import DiagonalGenerator, from_diagonal
    g = from_diagonal(DiagonalGenerator(d=2, H=np.zeros((2, 2)), terms=((1.0, L),)), b)
    req = simulation_request(tmp_path, g, maximally_mixed(2).rho, 50.0, 1e-3, "oracle")
    out = tmp_path / "state.json"
    assert main(["simulate", str(req), "--out", str(out)]) == 0
    rho = serialize.json_to_matrix(json.loads(out.read_text())["rho"])
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-9


def test_simulate_rejects_bad_request(tmp_path):
    g = lambda_atom()
    req = simulation_request(tmp_path, g, maximally_mixed(3).rho, -1.0, 1e-3, "oracle")
    assert main(["simulate", str(req)]) == 1
    doc = json.loads(req.read_text())
    for name, bad in (("list", [1, 2]), ("text-t", {**doc, "t": "x"}),
                      ("text-d", {**doc, "rho0": {"d": "x", "rho": doc["rho0"]}}),
                      ("float-d", {**doc, "rho0": {"d": 3.7, "rho": doc["rho0"]}}),
                      ("numeric-text-t", {**doc, "t": "1"}),
                      ("bool-eps", {**doc, "t": 1.0, "epsilon": True}),
                      # a mode that is not text is mistyped like any other field
                      ("number-mode", {**doc, "t": 1.0, "mode": 5}),
                      ("null-mode", {**doc, "t": 1.0, "mode": None}),
                      ("list-mode", {**doc, "t": 1.0, "mode": [1]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == 2, name
    path = tmp_path / "unknown-mode.json"
    path.write_text(json.dumps({**doc, "t": 1.0, "mode": "fast"}))
    assert main(["simulate", str(path)]) == 1
    for name, text in (("not-utf8", json.dumps(doc).encode() + b"\xff"),
                       ("too-deep", b'{"generator": ' + b"[" * 100000)):
        path = tmp_path / f"{name}.json"
        path.write_bytes(text)
        assert main(["simulate", str(path)]) == 2, name
    path = tmp_path / "nan-eps.json"
    path.write_text(json.dumps({**doc, "t": 1.0, "epsilon": float("nan"), "mode": "trotter"}))
    assert main(["simulate", str(path)]) == 1
    path = tmp_path / "nan-t.json"
    path.write_text(json.dumps({**doc, "t": float("nan")}))
    assert main(["simulate", str(path)]) == 1


def test_simulate_refuses_an_eps_whose_paper_plan_cannot_be_built(tmp_path, capsys):
    req = simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 1e-3,
                             "trotter")
    assert main(["simulate", str(req), "--eps", "1e-300"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_m1_trivial(capsys):
    assert main(["cost", "--m", "1", "--t", "1.0", "--L1", "1.0", "--L2", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N_exp"] == 1


def test_cost_spot_values_match_formulas(capsys):
    m, t, eps, L1, L2 = 2, 1.0, 1e-3, 2.0, 1.0
    assert main(["cost", "--m", str(m), "--t", str(t), "--eps", str(eps),
                 "--L1", str(L1), "--L2", str(L2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    x = 4.0 * math.e * m * t * L2 / eps
    k = max(1, round(math.sqrt(0.5 * math.log(x) / math.log(25.0 / 3.0))))
    d_k = m * (4.0 / 3.0) * k * (5.0 / 3.0) ** (k - 1)
    r = t * x ** (1.0 / (2 * k)) * 2.0 * math.e * d_k / (2 * k + 1)
    assert doc["k"] == k
    assert doc["r"] == pytest.approx(r, rel=1e-12)
    assert doc["n_reps"] == math.ceil(r * L1)
    res = (2 * m - 1) * 5 ** (k - 1) * (
        L1 * t * x ** (1.0 / (2 * k)) * (4 * m * math.e / 3.0) * (5.0 / 3.0) ** (k - 1))
    assert doc["N_exp_bound_res"] == pytest.approx(res, rel=1e-12)


def test_cost_bound_increases_as_eps_shrinks(capsys):
    vals = []
    for eps in ("1e-2", "5e-3"):
        assert main(["cost", "--m", "3", "--t", "1.0", "--eps", eps,
                     "--L1", "1.0", "--L2", "0.5"]) == 0
        vals.append(json.loads(capsys.readouterr().out)["N_exp_bound_closed_form"])
    assert vals[1] >= vals[0]


def test_cost_sweep_csv(capsys):
    assert main(["cost", "--m", "2", "--t", "1.0", "--L1", "1.0", "--L2", "0.5",
                 "--sweep", "1e-2,1e-3,1e-4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("epsilon,k,r,n_reps,N_exp")
    assert len(lines) == 4
    assert main(["cost", "--m", "0", "--t", "1.0", "--L1", "1.0", "--L2", "0.5",
                 "--sweep", ","]) == 2


# ---------------------------------------------------------------------------
# eps so large that x = 4 e m t L2 / eps < 1: no bound applies
# ---------------------------------------------------------------------------

NO_BOUNDS = ["N_exp_bound_res", "N_exp_bound_closed_form"]


def test_cost_bounds_null_below_their_regime(capsys):
    argv = ["cost", "--m", "2", "--t", "1.5", "--L1", "2.5", "--L2", "1.25"]
    assert main([*argv, "--eps", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [doc[c] for c in NO_BOUNDS] == [None, None]
    assert main([*argv, "--sweep", "1e-3,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and not lines[1].endswith(",")
    assert lines[2].endswith(",,")


def test_simulate_and_example_bounds_null_below_their_regime(tmp_path):
    req = simulation_request(tmp_path, lambda_atom(), maximally_mixed(3).rho, 1.0, 100.0,
                             "trotter")
    out = tmp_path / "state.json"
    assert main(["simulate", str(req), "--out", str(out)]) == 0
    sim = json.loads(out.read_text())
    assert main(["example-lambda", "--eps", "100", "--out", str(out)]) == 0
    for doc in (sim, json.loads(out.read_text())["simulation"]):
        assert [doc["cost"][c] for c in NO_BOUNDS] == [None, None]
        assert doc["trace_distance_to_oracle"] <= 100.0


COST = ["cost", "--m", "2", "--t", "1", "--L1", "2", "--L2", "1"]


@pytest.mark.parametrize("argv", [
    [*COST, "--eps", "nan"], [*COST, "--t", "nan"], [*COST, "--L1", "inf"],
    [*COST, "--eps", "inf"], [*COST, "--sweep", "1e-3,nan"],
    ["example-lambda", "--eps", "nan"], ["example-lambda", "--t", "inf"],
    ["example-lambda", "--t", "0", "--eps", "nan"], ["example-lambda", "--gamma1", "nan"],
    ["example-lambda", "--gamma2", "inf"], ["example-lambda", "--phi", "nan"],
    ["example-lambda", "--alpha", "inf"],
    # finite inputs that overflow the planner: x = 4 e m t L2 / eps, r L1, the N_exp bounds
    ["cost", "--m", "2", "--t", "1e300", "--eps", "1e-300", "--L1", "1", "--L2", "1"],
    ["cost", "--m", "2", "--t", "1", "--L1", "1e308", "--L2", "1"],
    ["cost", "--m", "2", "--t", "1", "--L1", "1e306", "--L2", "1"],  # r L1 finite, bounds not
    ["cost", "--m", "1" + "0" * 400, "--t", "1", "--L1", "2", "--L2", "1"],  # m beyond a float
], ids=" ".join)
def test_non_finite_inputs_exit_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# example-lambda
# ---------------------------------------------------------------------------

def test_example_lambda_golden_entries(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["example-lambda", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    A = serialize.json_to_matrix(doc["generator"]["A"])
    assert A[3, 5] == pytest.approx((-3 + 1j * SQRT3) / 16, abs=1e-12)
    assert A[4, 7] == pytest.approx(0.25j, abs=1e-12)
    alphaI = {tuple(np.round(p["alphaI"], 9)) for p in doc["plans"]["plans"]}
    assert tuple(np.round(GOLDEN_ALPHA_I, 9)) in alphaI
    assert doc["simulation"]["trace_distance_to_oracle"] <= 1e-3


def test_example_lambda_zero_rates_identity_dynamics(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["example-lambda", "--gamma1", "0", "--gamma2", "0",
                 "--t", "2.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rho0 = serialize.json_to_matrix(doc["simulation"]["rho0"])
    rho = serialize.json_to_matrix(doc["simulation"]["rho"])
    assert np.max(np.abs(rho - rho0)) < 1e-12
    assert doc["spectral"] == []


def test_example_lambda_rejects_negative_rate():
    assert main(["example-lambda", "--gamma1", "-1"]) == 1


# ---------------------------------------------------------------------------
# serialization round-trips and determinism
# ---------------------------------------------------------------------------

def test_emitted_json_roundtrips_byte_identical(tmp_path, rng):
    g = random_gks(3, rng)
    path = tmp_path / "gen.json"
    write_generator(path, g)
    out1 = tmp_path / "a.json"
    assert main(["decompose", str(path), "--out", str(out1)]) == 0
    text = out1.read_text()
    reparsed = json.loads(text)
    assert serialize.dumps(reparsed) + "\n" == text


def test_decompose_deterministic_bytes(tmp_path, rng, capsys):
    # both document forms, {d, H, A} and {d, H, terms}; stdout carries the same bytes
    for g in (random_gks(3, rng), random_diagonal(3, 2, rng)):
        path = tmp_path / "gen.json"
        write_generator(path, g)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["decompose", str(path), "--out", str(out1)]) == 0
        assert main(["decompose", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == out1.read_text()


def test_console_entry_point(tmp_path):
    path = lambda_doc(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "lindbladsim.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "m = 2" in proc.stdout


def test_float_formatting_17_digits():
    assert serialize.dumps(1 / 3) == "0.33333333333333331"
    assert float(serialize.dumps(0.1)) == 0.1


def emitted_documents(tmp_path, monkeypatch):
    """Every (object, text) pair that serialize.dumps encodes while the test writes
    random_gks(d, ·) and random_diagonal(d, d, ·), d = 2..6, with their requests, and
    the CLI runs decompose and simulate on each, then cost and example-lambda."""
    seen = []

    def recording(obj, dumps=serialize.dumps):
        seen.append((obj, dumps(obj)))
        return seen[-1][1]

    monkeypatch.setattr(serialize, "dumps", recording)
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        for g in (random_gks(d, rng), random_diagonal(d, d, rng)):
            path = tmp_path / "gen.json"
            write_generator(path, g)
            assert main(["decompose", str(path), "--out", str(tmp_path / "plans.json")]) == 0
            assert main(["decompose", str(path)]) == 0
            for mode in ("oracle", "trotter"):
                req = simulation_request(tmp_path, g, maximally_mixed(d).rho, 0.5, 1e-3, mode)
                assert main(["simulate", str(req), "--out", str(tmp_path / "out.json")]) == 0
    cost = ["cost", "--m", "3", "--t", "1.0", "--L1", "2.0", "--L2", "0.5"]
    assert main(cost) == 0
    assert main([*cost, "--sweep", "1e-3,1e-6,100"]) == 0
    assert main(["example-lambda", "--out", str(tmp_path / "bundle.json")]) == 0
    return seen


def test_dumps_matches_the_per_scalar_reference(tmp_path, monkeypatch, capsys):
    seen = emitted_documents(tmp_path, monkeypatch)
    assert len(seen) > 40
    for obj, text in seen:
        assert text == reference_dumps(obj)
    scalars = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 0, -7, 10 ** 30,
               np.float64(-0.0), np.float64(0.1), np.float32(0.1), np.int64(-3), np.int32(5),
               None, True, False, "", "text é \"quoted\"\n", [], (), {},
               [-0.0, 5e-324], (0.25, -1.5), [1, 2.0], [0.5, np.float64(2.0)], [True, 1.0],
               np.array([[1.5, -0.0]]), {"b": [{"a": (1, 2.5)}, None], "a": {"z": -0.0, "3": {}}}, {2: "x", 1: [0.5, 0.25]}]
    for obj in scalars:
        assert serialize.dumps(obj) == reference_dumps(obj), obj
    for bad in (float("nan"), float("inf"), -np.inf, np.float32("nan")):
        for obj in (bad, [bad, 0.0], [0.0, bad], [[[0.0, bad]]], {"a": {"b": (1.0, bad)}},
                    np.array([1.0, bad])):
            with pytest.raises(serialize.SerializeError) as new:
                serialize.dumps(obj)
            with pytest.raises(serialize.SerializeError) as ref:
                reference_dumps(obj)
            assert str(new.value) == str(ref.value)
    for bad in (1j, np.complex128(1), np.bool_(True), object(), {1, 2}):
        with pytest.raises(serialize.SerializeError) as new:
            serialize.dumps([bad])
        with pytest.raises(serialize.SerializeError) as ref:
            reference_dumps([bad])
        assert str(new.value) == str(ref.value)


def test_json_to_matrix_matches_the_per_entry_reference(rng):
    def bits(a):
        return a.dtype, a.shape, a.tobytes()

    valid = [with_entry([-0.0, 0.0]), with_entry([0.0, -0.0]), with_entry([-0.0, -0.0]),
             with_entry([1, -2]), with_entry([2 ** 63 + 1, 10 ** 300 + 1]),
             with_entry((0.5, 1.5)), with_entry([np.float64(0.5), np.int64(3)]),
             [[[5e-324, 1.7976931348623157e308]]], [[]], [[], []]]
    valid += [serialize.matrix_to_json(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
              for d in range(1, 7)]
    for obj in valid:
        assert bits(serialize.json_to_matrix(obj)) == bits(reference_json_to_matrix(obj))
    malformed = [*MALFORMED_MATRICES.values(), [], {}, "x", [[]] + [[[0.0, 0.0]]],
                 [[[0.0, 0.0]], "row"], with_entry({"re": 0.0}), with_entry(np.zeros(2)),
                 with_entry([[0.0, 0.0], 0.0]), with_entry([0.0]), with_entry(None)]
    for obj in malformed:
        with pytest.raises(serialize.SerializeError) as new:
            serialize.json_to_matrix(obj)
        with pytest.raises(serialize.SerializeError) as ref:
            reference_json_to_matrix(obj)
        assert str(new.value) == str(ref.value)


def test_main_builds_its_parser_once_and_runs_the_bound_handler(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.generator) or 5)
    assert main(["validate", "x.json"]) == 5
    assert calls == ["x.json"]


# ---------------------------------------------------------------------------
# fuzzing: every invocation exits 0, 1 or 2, and no exception escapes main
# ---------------------------------------------------------------------------

FUZZ_NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(),
                         st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]))
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), FUZZ_NUMBERS, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)

DAMPING_DOC = {"d": 2, "H": [[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [-0.5, 0.0]]],
               "terms": [{"gamma": 1.0, "L": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}]}
LAMBDA_DOC = serialize.generator_to_json(lambda_atom())
FUZZ_REQUESTS = [
    {"generator": DAMPING_DOC, "rho0": {"d": 2, "rho": serialize.matrix_to_json(np.eye(2) / 2)},
     "t": 0.5, "epsilon": 1e-3, "mode": "trotter"},
    {"generator": LAMBDA_DOC, "rho0": serialize.matrix_to_json(maximally_mixed(3).rho),
     "t": 1.0, "epsilon": 1e-6, "mode": "oracle"},
]


def mutated(draw, doc):
    """A copy of doc with one value, at any depth, replaced by a drawn value or dropped."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    # descends into a drawn child three times in four, so that leaves are reached too
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    value = draw(st.one_of(FUZZ_NUMBERS, FUZZ_VALUES))
    if parent is None:
        return value
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = value
    return doc


@st.composite
def document_invocations(draw):
    """(document, argv lists with None for its path): validate and decompose on a
    generator document, or simulate in the request's own mode and in both --mode
    values; one or two values of the document are replaced or dropped."""
    if draw(st.booleans()):
        doc = draw(st.sampled_from([DAMPING_DOC, LAMBDA_DOC]))
        argvs = [["validate", None], ["decompose", None]]
    else:
        doc = draw(st.sampled_from(FUZZ_REQUESTS))
        argvs = [["simulate", None], ["simulate", None, "--mode", "oracle"],
                 ["simulate", None, "--mode", "trotter"]]
    for _ in range(draw(st.integers(1, 2))):
        doc = mutated(draw, doc)
    return doc, argvs


@st.composite
def number_invocations(draw):
    """(None, [argv]): cost or example-lambda with extreme, negative and non-finite
    numbers, each passed as --name=value, since argparse reads --t -inf as a
    missing value."""
    numbers = FUZZ_NUMBERS.map(repr)
    if draw(st.booleans()):
        argv = ["cost", f"--m={draw(st.integers(-2, 2 ** 70))}"]
        argv += [f"--{name}={draw(numbers)}" for name in ("t", "L1", "L2")]
        if draw(st.booleans()):
            argv.append(f"--eps={draw(numbers)}")
        if draw(st.booleans()):
            argv.append(f"--sweep={','.join(draw(st.lists(numbers, max_size=3)))}")
    else:
        names = ("gamma1", "gamma2", "phi", "eta", "alpha", "t", "eps")
        argv = ["example-lambda"] + [f"--{name}={draw(numbers)}"
                                     for name in draw(st.lists(st.sampled_from(names),
                                                               unique=True))]
    return None, [argv]


def run_main(argv):
    """main(argv) with its output captured: the exit code and the stderr text."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(st.one_of(document_invocations(), number_invocations()))
def test_fuzzed_invocations_exit_0_1_or_2(fuzz_dir, invocation):
    """Mutated generator documents and simulation requests, and cost and
    example-lambda with extreme numbers: main returns 0, 1 or 2, raises nothing,
    and an exit 2 comes with an error line."""
    doc, argvs = invocation
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in argvs:
        argv = [str(path) if arg is None else arg for arg in argv]
        code, err = run_main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)


@pytest.mark.parametrize("argv, code", [
    # the residual's bound of maps near the smallest subnormal raised OverflowError
    (["example-lambda", "--gamma1=5e-324", "--gamma2=5e-324", "--alpha=-838050"], 0),
    # the oracle's t L overflowed with a warning before expm refused it
    (["example-lambda", "--gamma2=1e308", "--t=28216541"], 1),
], ids=["subnormal-rates", "overflowing-tL"])
def test_extreme_lambda_rates_exit_cleanly(tmp_path, argv, code):
    exit_code, err = run_main([*argv, "--out", str(tmp_path / "bundle.json")])
    assert exit_code == code
    assert err.startswith("error: ") == (code == 1)


@pytest.mark.parametrize("doc", [
    # one overflowing entry of L overflowed A with a warning
    {**DAMPING_DOC, "terms": [{"gamma": 1.0, "L": with_entry([1e308, 0.0])}]},
    # a state with eigenvalues 0.5 +- 1e308 was accepted
    {**FUZZ_REQUESTS[0], "rho0": [[[0.5, 0.0], [1e308, 0.0]], [[1e308, 0.0], [0.5, 0.0]]]},
], ids=["overflowing-L", "huge-rho0"])
def test_overflowing_documents_exit_1(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in ([["simulate", str(path)]] if "rho0" in doc
                 else [["validate", str(path)], ["decompose", str(path)]]):
        code, err = run_main(argv)
        assert code == 1, argv
        assert err.startswith("error: "), argv
