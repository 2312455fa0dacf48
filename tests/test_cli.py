import json
import re

import pytest
from jsonschema import validate

from mmeslab import decomposition, reports
from mmeslab.cli import main
from mmeslab.states import load_state

REPORT_SCHEMA = {
    "type": "object",
    "required": ["format", "command", "inputs", "results", "errata_flags"],
    "properties": {
        "format": {"const": "mmeslab-report-v1"},
        "command": {"type": "array", "items": {"type": "string"}},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "errata_flags": {"type": "array", "items": {"type": "string"}},
    },
}

STATE_SCHEMA = {
    "type": "object",
    "required": ["format", "n", "amplitudes"],
    "properties": {
        "format": {"const": "mmeslab-state-v1"},
        "n": {"type": "integer"},
        "amplitudes": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    if doc is not None:
        validate(doc, REPORT_SCHEMA)
    return code, doc, captured.err


def test_state_ghz(tmp_path, capsys):
    out = tmp_path / "g6.json"
    code, doc, _ = run(capsys, "state", "--kind", "ghz", "--n", "6", "--out", str(out))
    assert code == 0
    file_doc = json.loads(out.read_text())
    validate(file_doc, STATE_SCHEMA)
    assert len(file_doc["amplitudes"]) == 64
    nonzero = [pair for pair in file_doc["amplitudes"] if pair != [0.0, 0.0]]
    assert len(nonzero) == 2


def test_state_psi_m8_norm_note(tmp_path, capsys):
    out = tmp_path / "m8.json"
    code, doc, err = run(capsys, "state", "--kind", "psi_m8", "--out", str(out))
    assert code == 0
    assert load_state(out).n == 8
    assert "raw" in err and "norm" in err


def test_state_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "state", "--kind", "random", "--n", "4", "--seed", "7", "--out", str(a))
    run(capsys, "state", "--kind", "random", "--n", "4", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_state_bad_args(tmp_path, capsys):
    code, _, _ = run(capsys, "state", "--kind", "ghz", "--out", str(tmp_path / "x"))
    assert code == 2
    code, _, _ = run(
        capsys, "state", "--kind", "psi_m8", "--n", "4", "--out", str(tmp_path / "x")
    )
    assert code == 2


def test_state_too_many_qubits(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, doc, err = run(capsys, "state", "--kind", "random", "--n", "40", "--out", str(out))
    assert code == 2 and doc is None
    assert "qubit count" in err
    assert not out.exists()


def test_state_into_missing_directory_names_the_destination(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, doc, err = run(capsys, "state", "--kind", "ghz", "--n", "2", "--out", "missing/x.json")
    assert code == 2 and doc is None
    assert "missing/x.json" in err
    assert ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_invariants_roundtrip_and_errata(tmp_path, capsys):
    out = tmp_path / "g10.json"
    run(capsys, "state", "--kind", "ghz", "--n", "10", "--out", str(out))
    code, doc, _ = run(capsys, "invariants", "--in", str(out), "--max-weight", "2")
    assert code == 0  # errata are data, not failures
    assert doc["errata_flags"]
    assert doc["results"]["n_tangle"] == pytest.approx(1.0, abs=1e-9)
    assert doc["results"]["purity"]["pi_me_mean"] == pytest.approx(0.5, abs=1e-9)
    assert doc["results"]["weight_sums"]["m"] == pytest.approx([0, 45], abs=1e-9)


def test_invariants_ghz8_model_values(tmp_path, capsys):
    out = tmp_path / "g8.json"
    run(capsys, "state", "--kind", "ghz", "--n", "8", "--out", str(out))
    code, doc, _ = run(capsys, "invariants", "--in", str(out))
    assert code == 0
    assert not doc["errata_flags"]
    model = doc["results"]["printed_model"]
    assert model["k_model"] == pytest.approx(29 / 70, abs=1e-10)
    assert abs(model["residual_oracle_minus_model"]) <= 1e-10


@pytest.mark.parametrize("kind", ["basis", "ghz"])
def test_state_report_records_the_basis_index(tmp_path, capsys, kind):
    out = tmp_path / "s.json"
    code, doc, _ = run(capsys, "state", "--kind", kind, "--n", "3", "--index", "5", "--out", str(out))
    assert code == 0
    if kind == "basis":
        assert doc["inputs"]["index"] == 5
        assert load_state(out).amplitudes[0b101] == 1.0
    else:  # --index is read by --kind basis only
        assert "index" not in doc["inputs"]


def test_invariants_one_qubit_skips_purity(tmp_path, capsys):
    out = tmp_path / "b1.json"
    run(capsys, "state", "--kind", "basis", "--n", "1", "--out", str(out))
    code, doc, _ = run(capsys, "invariants", "--in", str(out), "--max-weight", "1")
    assert code == 0
    assert doc["results"]["weight_sums"]["m"] == [1.0]
    assert "purity" not in doc["results"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invariants_default_max_weight_fits_small_states(tmp_path, capsys, n):
    out = tmp_path / f"g{n}.json"
    kind = "basis" if n == 1 else "ghz"
    run(capsys, "state", "--kind", kind, "--n", str(n), "--out", str(out))
    code, doc, _ = run(capsys, "invariants", "--in", str(out))
    assert code == 0
    assert len(doc["results"]["weight_sums"]["m"]) == n
    assert doc["inputs"]["max_weight"] == n


def test_invariants_explicit_max_weight_above_n_exits_2(tmp_path, capsys):
    out = tmp_path / "g3.json"
    run(capsys, "state", "--kind", "ghz", "--n", "3", "--out", str(out))
    code, doc, err = run(capsys, "invariants", "--in", str(out), "--max-weight", "5")
    assert code == 2
    assert doc is None
    assert "--max-weight 5 is not an int in [1, 3]" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["state", "--kind", "psi_m8", "--n", "4", "--out", "x.json"], "psi_m8 fixes n=8"),
        (["state", "--kind", "ghz", "--out", "x.json"], "--n is required for --kind ghz"),
        (
            ["invariants", "--in", "g3.json", "--max-weight", "5"],
            "--max-weight 5 is not an int in [1, 3]",
        ),
        (["invariants", "--in", "missing.json"], "missing.json"),
        (["invariants", "--in", "bad.json"], "bad.json"),
        (["verify", "--n", "14", "--samples", "2"], "n=14"),
        (["search", "--n", "2", "--seed", "-1"], "seed -1 "),
        (["state", "--kind", "random", "--n", "40", "--out", "x.json"], "qubit count"),
        (["verify", "--n", "4", "--samples", "0"], "error: samples 0 "),
        (["search", "--n", "4", "--restarts", "0"], "error: restarts 0 "),
        (["search", "--n", "3"], "error: n 3 is not even"),
        (["invariants", "--in", "utf16.json"], "error: malformed state file utf16.json: "),
    ],
    ids=[
        "psi_m8-n4", "ghz-no-n", "max-weight-5", "missing", "malformed",
        "verify-14", "seed-1", "n40", "samples-0", "restarts-0", "search-odd-n", "undecodable",
    ],
)
def test_every_usage_error_is_one_error_line(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    main(["state", "--kind", "ghz", "--n", "3", "--out", "g3.json"])
    (tmp_path / "bad.json").write_text("{broken")
    (tmp_path / "utf16.json").write_text("{}", encoding="utf-16")  # starts ff fe
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith("error: ") and named in captured.err, captured.err


def test_invariants_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "invariants", "--in", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"format": "mmeslab-state-v1", "n": 1, "amplitudes": [[NaN, 0], [0, 0]]}',
        '{"format": "mmeslab-state-v1", "n": true, "amplitudes": [[1, 0], [0, 0]]}',
    ],
    ids=["nan-amplitude", "bool-n"],
)
def test_invariants_rejects_invalid_state(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, doc, err = run(capsys, "invariants", "--in", str(path))
    assert code == 2
    assert doc is None
    assert "error" in err


@pytest.mark.parametrize(
    "entries",
    ['["1.0", 0]', "[true, false]", "[1.0, false]", "[1.0, null]"],
    ids=["string", "bools", "bool-among-numbers", "null"],
)
def test_invariants_rejects_mistyped_amplitudes(tmp_path, capsys, entries):
    path = tmp_path / "state.json"
    amps = f"[{entries}, [0, 0], [0, 0], [0, 0]]"
    path.write_text(f'{{"format": "mmeslab-state-v1", "n": 2, "amplitudes": {amps}}}')
    code, doc, err = run(capsys, "invariants", "--in", str(path), "--max-weight", "2")
    assert code == 2
    assert doc is None
    assert "error" in err and str(path) in err


def test_report_json_refuses_nan():
    with pytest.raises(ValueError):
        reports.dumps({"value": float("nan")})


def test_invariants_missing_file(capsys):
    code, _, _ = run(capsys, "invariants", "--in", "/nonexistent/state.json")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, doc, _ = run(capsys, "verify", "--n", "4", "--samples", "10", "--tol", "1e-9")
    assert code == 0
    assert doc["results"]["passed"] is True
    code, doc, _ = run(capsys, "verify", "--n", "10", "--samples", "2", "--tol", "1e-9")
    assert code == 1
    assert doc["errata_flags"]
    code, _, _ = run(capsys, "verify", "--n", "7", "--samples", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fit", "--n", "7"], "n 7 is not even"),
        (["fit", "--n", "14"], "n=14"),
        (["verify", "--n", "14", "--samples", "2"], "n=14"),
    ],
    ids=["fit-7", "fit-14", "verify-14"],
)
def test_unsupported_n_exits_2_without_drawing_a_state(monkeypatch, capsys, argv, named):
    # the library rejects the n; the CLI only turns its error into exit 2
    def no_draw(*args):
        raise AssertionError("a state was drawn before n was checked")

    monkeypatch.setattr(decomposition, "random_state", no_draw)
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc is None
    assert err.startswith("error:")
    assert re.search(rf"\b{named}\b", err)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_rejects_bad_tol(capsys, tol):
    code, doc, err = run(capsys, "verify", "--n", "4", "--samples", "2", "--tol", tol)
    assert code == 2 and doc is None
    assert "tol" in err


def test_pretty_fit_marks_the_n10_erratum_row(capsys):
    code, _, err = run(capsys, "--pretty", "fit", "--n", "10", "--samples", "40")
    assert code == 0
    lines = err.splitlines()
    header = [i for i, line in enumerate(lines) if line.startswith("coefficient")]
    assert len(header) == 1, err
    rows = lines[header[0] + 1 :]
    names = [row[:12].strip() for row in rows]
    assert names == ["C", "M_1", "M_2", "M_3", "M_4", "tau", "tau offset"]
    marked = [row[:12].strip() for row in rows if "printed differs from derived" in row]
    assert marked == ["M_4"]
    assert rows[4].split()[1:3] == ["1/1008", "1/2016"]  # printed, derived


def test_invariants_has_no_tangle_switch(tmp_path, capsys):
    out = tmp_path / "g4.json"
    run(capsys, "state", "--kind", "ghz", "--n", "4", "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--in", str(out), "--no-tangle"])
    assert exc.value.code == 2
    assert "--no-tangle" in capsys.readouterr().err


def test_fit_command(capsys):
    code, doc, _ = run(capsys, "fit", "--n", "4", "--samples", "40", "--seed", "3")
    assert code == 0
    result = doc["results"]
    assert result["holdout_max_residual"] <= 1e-9
    assert result["model"]["constant"]["rational"] == [1, 3]


def test_search_command(capsys):
    code, doc, _ = run(
        capsys, "search", "--n", "2", "--restarts", "2", "--max-iters", "500", "--seed", "1"
    )
    assert code == 0
    result = doc["results"]
    assert result["best_pi_me"] == pytest.approx(0.5, abs=1e-6)
    validate(result["best_state"], STATE_SCHEMA)
    assert result["restart_stops"] == ["converged", "converged"]
    assert max(result["restart_grad_norms"]) <= 1e-9
    assert "objective" not in doc["inputs"] and "objective" not in result


@pytest.mark.parametrize(
    "argv, tangle",
    [
        (["--n", "2", "--restarts", "2", "--seed", "1"], 1.0),
        (["--n", "4", "--restarts", "8", "--seed", "5"], 0.0),
        (["--n", "6", "--restarts", "8", "--seed", "3"], 1.0),
        (["--n", "8", "--restarts", "4", "--max-iters", "300", "--seed", "5"], 0.0),
    ],
    ids=["n2", "n4", "n6", "n8"],
)
def test_search_reports_n_tangle_of_best_state(capsys, argv, tangle):
    # the paper's conjecture: minima have n-tangle 1 at n = 4m + 2, 0 at n = 4m
    code, doc, _ = run(capsys, "search", *argv)
    assert code == 0
    assert doc["results"]["best_n_tangle"] == pytest.approx(tangle, abs=1e-9)


def test_search_has_no_objective_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "2", "--objective", "model"])
    assert exc.value.code == 2
    assert "--objective" in capsys.readouterr().err


def test_pretty_search_labels_derived_constant(monkeypatch, capsys):
    # the gap is to derived_model's C: search reads no printed table
    def no_printed(n):
        raise AssertionError("search read a printed table")

    monkeypatch.setattr("mmeslab.cli.printed_model", no_printed)
    code, doc, err = run(
        capsys, "--pretty", "search", "--n", "6", "--restarts", "1", "--max-iters", "5"
    )
    assert code == 0
    match = re.search(r"best pi_ME = (\S+)  \(C = 0\.125, gap to C = (\S+)\)", err)
    assert match, err
    best, gap = map(float, match.groups())
    assert gap == best - 0.125 and gap > 0  # five steps do not reach C
    assert "floor" not in err
    tangle = re.search(r"n-tangle of best state = (\S+)", err)
    assert tangle, err
    assert float(tangle.group(1)) == doc["results"]["best_n_tangle"]


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["state", "--kind", "random", "--n", "4", "--seed", "-1", "--out", "x.json"], "-1"),
        (["search", "--n", "2", "--seed", str(2**64)], str(2**64)),
        (["verify", "--n", "4", "--samples", "1", "--seed", str(2**64)], str(2**64)),
        (["fit", "--n", "4", "--seed", "-1"], "-1"),
    ],
    ids=["state-negative", "search-2**64", "verify-2**64", "fit-negative"],
)
def test_seed_out_of_range(tmp_path, monkeypatch, capsys, argv, seed):
    monkeypatch.chdir(tmp_path)
    code, doc, err = run(capsys, *argv)
    assert code == 2
    assert doc is None
    assert err.startswith(f"error: seed {seed} ") and len(err.splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("seed", [-5, 2**64])
@pytest.mark.parametrize("kind", ["ghz", "w", "basis", "psi_m8"])
def test_state_checks_the_seed_for_every_kind(tmp_path, capsys, kind, seed):
    # kinds that draw nothing still write the seed into the report's inputs
    out = tmp_path / "s.json"
    size = [] if kind == "psi_m8" else ["--n", "2"]
    code = main(["state", "--kind", kind, *size, "--seed", str(seed), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: seed {seed} ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_audit_command(capsys):
    code, doc, _ = run(capsys, "audit")
    assert code == 0
    rows = doc["results"]["rows"]
    assert [r["n"] for r in rows] == [2, 4, 6, 8, 10, 12]
    assert [r["required_tau_at_k_zero"] for r in rows] == [1, 0, 1, 0, 1, 0]
    assert len(doc["errata_flags"]) == 2


def test_pretty_goes_to_stderr(capsys):
    code, doc, err = run(capsys, "--pretty", "audit")
    assert code == 0
    assert "required tau" in err


def test_parser_keeps_no_option_between_calls(capsys):
    # the parser is built once per process; --pretty must not outlive its call
    assert run(capsys, "--pretty", "audit")[2]
    code, _, err = run(capsys, "audit")
    assert code == 0 and err == ""


def test_floats_roundtrip_through_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(capsys, "state", "--kind", "random", "--n", "4", "--seed", "9", "--out", str(out))
    _, doc, _ = run(capsys, "invariants", "--in", str(out), "--max-weight", "4")
    # serialized floats parse back to the exact same value (shortest repr)
    reparsed = json.loads(json.dumps(doc))
    assert reparsed == doc
