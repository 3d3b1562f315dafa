import json
import time

import pytest

from rectpas import cli, fileio
from rectpas.cli import cli_dispatch
from rectpas.generators import (
    gen_figure_counterexample,
    gen_gknap_packed,
    gen_misr,
)
from rectpas.geometry import (
    GknapInstance,
    Item,
    MisrInstance,
    Packing,
    Placement,
    normalize_instance,
    validate_packing,
)
from rectpas.misr import build_grid
from rectpas.oracles import mis_rectangles_exact
from rectpas.svg import render_svg
from tests.conftest import MISR_BUDGET


# ---------------------------------------------------------------------------
# File formats


def test_instance_roundtrip(tmp_path):
    f = gen_misr(n=6, seed=1)
    path = fileio.save(f, tmp_path / "i.json")
    loaded = fileio.load_instance(path)
    assert loaded == f
    assert loaded.hash == f.hash
    # canonical form is stable across a save/load cycle
    assert fileio.save(loaded, tmp_path / "i2.json").read_text() == path.read_text()


def test_solution_roundtrip(tmp_path):
    f = gen_misr(n=6, seed=1)
    sol = fileio.SolutionFile(
        "misr-solution", f.hash, (0, 2), None, {"algorithm": "misr-exact", "assertions": []}
    )
    path = fileio.save(sol, tmp_path / "s.json")
    loaded = fileio.load_solution(path)
    assert loaded == sol


def test_malformed_files_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(fileio.FileFormatError):
        fileio.load(p)
    p.write_text(json.dumps({"type": "misr", "rects": [[0, 0, 0, 1]]}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load(p)
    p.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load(p)


@pytest.mark.parametrize(
    "payload",
    [
        # Read with int() these would truncate: 1.9 to 1, x = 2.5 to 2.
        {"type": "gknap", "N": 4, "items": [[1.9, 1.9]]},
        {"type": "gknap", "N": 4.0, "items": [[1, 1]]},
        {"type": "gknap", "N": True, "items": [[1, 1]]},
        {"type": "misr", "rects": [[0, 0, 1.5, 1]]},
        {"type": "misr", "rects": [[0, 0, "1", 1]]},
        {"type": "misr-solution", "instance_hash": "h", "selected": [0.0]},
        {"type": "gknap-packing", "instance_hash": "h", "N": 4, "placements": [[1, 2.5, 1, False]]},
        {"type": "gknap-packing", "instance_hash": "h", "N": 4, "placements": [[False, 0, 0, False]]},
        # bool("false") is True.
        {"type": "gknap-packing", "instance_hash": "h", "N": 4, "placements": [[0, 0, 0, "false"]]},
        {"type": "gknap-packing", "instance_hash": "h", "N": 4, "placements": [[0, 0, 0, 0]]},
    ],
)
def test_files_take_integers_and_flags_as_json_types(tmp_path, payload):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(fileio.FileFormatError, match="must be"):
        fileio.load(p)


def test_cli_verify_rejects_a_fractional_placement(tmp_path, capsys):
    # The box of item 1 at x = 2.5 leaves the 4 x 4 board; read as x = 2 it
    # would fit. The file is malformed, not a failed verification.
    inst = GknapInstance(4, (Item(2, 1),) * 2, rotations=False)
    g = fileio.save(fileio.InstanceFile("gknap", inst), tmp_path / "g.json")
    s = tmp_path / "s.json"
    payload = {"type": "gknap-packing", "instance_hash": fileio.load_instance(g).hash, "N": 4,
               "placements": [[0, 0, 0, False], [1, 2.5, 1, False]]}
    s.write_text(json.dumps(payload))
    assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == 1
    assert "x must be an integer, got 2.5" in capsys.readouterr().err


def test_fractional_coordinates_not_serializable():
    from fractions import Fraction

    sol = fileio.SolutionFile(
        "gknap-packing", "sha256:x", None, Packing(4, (Placement(0, Fraction(1, 2), 0),))
    )
    with pytest.raises(fileio.FileFormatError):
        sol.to_payload()


# ---------------------------------------------------------------------------
# Generators


def test_generator_determinism():
    a = gen_misr(n=10, seed=7)
    b = gen_misr(n=10, seed=7)
    assert fileio.canonical_json(a.to_payload()) == fileio.canonical_json(b.to_payload())
    c = gen_misr(n=10, seed=8)
    assert fileio.canonical_json(c.to_payload()) != fileio.canonical_json(a.to_payload())


def test_planted_optimum():
    for seed in range(5):
        f = gen_misr(n=12, seed=seed, planted=5)
        inst = normalize_instance(f.instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        assert len(opt) >= 5


def test_packed_generator_reference_is_feasible():
    f, packing = gen_gknap_packed(k=9, seed=2, N=5000)
    assert validate_packing(packing, f.instance.items).ok
    assert packing.size == 9
    meta = f.metadata["reference_packing"]
    assert len(meta) == 9


def test_figure_counterexample_shape():
    f, packing = gen_figure_counterexample(6)
    inst = f.instance
    assert inst.n == 6
    flats = [it for it in inst.items if it.w == inst.N]
    talls = [it for it in inst.items if it.w < inst.N]
    assert len(flats) == 3 and len(talls) == 3
    assert all(it.h < inst.N // 10 for it in flats)
    assert all(it.h > inst.N // 2 for it in talls)
    assert validate_packing(packing, inst.items).ok
    assert packing.size == 6
    assert not inst.rotations


# ---------------------------------------------------------------------------
# SVG


def test_svg_empty_instance_frame_only():
    text = render_svg(MisrInstance(()))
    assert text.count("<rect") == 1
    assert 'class="frame"' in text
    assert text.startswith("<?xml")


def test_svg_single_rect_coordinates():
    inst = MisrInstance.from_coords([(0, 0, 1, 1)])
    text = render_svg(inst, selected=[0])
    assert text.count('class="placed"') == 1
    # world size 1 scales the unit rect to the full 600pt frame
    assert 'width="600.000"' in text


def test_svg_deterministic():
    f = gen_misr(n=5, seed=3)
    assert render_svg(f.instance) == render_svg(f.instance)


def test_svg_grid_lines():
    inst = normalize_instance(MisrInstance.from_coords([(0, 0, 1, 1), (2, 2, 3, 3)]))
    out = build_grid(inst, 3)
    text = render_svg(inst, grid=out.grid)
    assert text.count('class="grid"') == len(out.grid.interior_v) + len(out.grid.interior_h)


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_solve_verify_misr(tmp_path):
    i = tmp_path / "i.json"
    s = tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "9", "--seed", "4", "--planted", "3", "--out", str(i)]) == 0
    assert cli_dispatch(["solve", "misr-exact", str(i), "--k", "3", "--out", str(s)]) == 0
    assert cli_dispatch(["verify", "solution", str(s), "--instance", str(i)]) == 0
    sol = fileio.load_solution(s)
    assert len(sol.selected) >= 3
    assert sol.provenance["algorithm"] == "misr-exact"


def test_cli_records_eps_only_for_the_pas(tmp_path):
    # The exact solvers never read eps, so their provenance has none.
    i, g, s = tmp_path / "i.json", tmp_path / "g.json", tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "9", "--seed", "4", "--planted", "3", "--out", str(i)]) == 0
    fileio.save(fileio.InstanceFile("gknap", GknapInstance(10, (Item(3, 2), Item(4, 4)))), g)
    for algorithm, path in [("misr-exact", i), ("2dkr-exact", g), ("misr-pas", i), ("2dkr-pas", g)]:
        rc = cli_dispatch(["solve", algorithm, str(path), "--k", "2", "--eps", "0.9", "--out", str(s)])
        assert rc in (0, 2), algorithm
        prov = fileio.load_solution(s).provenance
        assert prov.get("eps") == (None if algorithm.endswith("-exact") else "9/10"), algorithm


def test_cli_misr_pas_roundtrip(tmp_path):
    i = tmp_path / "i.json"
    s = tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "8", "--seed", "11", "--planted", "4", "--out", str(i)]) == 0
    rc = cli_dispatch([
        "solve", "misr-pas", str(i), "--k", "2", "--eps", "0.5",
        "--cap-c", "4", "--out", str(s),
    ])
    assert rc == 0
    assert cli_dispatch(["verify", "solution", str(s), "--instance", str(i)]) == 0


def test_cli_2dkr_pas_exit_codes(tmp_path):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    inst = fileio.InstanceFile("gknap", GknapInstance(10, (Item(3, 2), Item(4, 4))))
    fileio.save(inst, g)
    assert cli_dispatch(["solve", "2dkr-pas", str(g), "--k", "4", "--out", str(s)]) == 2
    sol = fileio.load_solution(s)
    assert sol.provenance["assertions"] == ["OPT < 4"]
    assert cli_dispatch(["solve", "2dkr-pas", str(g), "--k", "2", "--out", str(s)]) == 0
    assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == 0


def test_cli_2dkr_budget_overrun_is_an_error(tmp_path, capsys):
    # 14 distinct items, each longer than half the board on both sides: no
    # two fit together, so both solvers probe all 246 triples that fit by
    # area. The subset enumeration and its probes read one deadline at
    # every prefix and node, so the run overruns a budget of a microsecond
    # however early each probe is cut; building the enumeration's table of
    # least sums takes longer than that, so its first prefix overruns.
    items = tuple(Item(14 + i % 5, 14 + i // 5) for i in range(14))
    g = fileio.save(fileio.InstanceFile("gknap", GknapInstance(27, items)), tmp_path / "g.json")
    for algorithm in ("2dkr-exact", "2dkr-pas"):
        argv = ["solve", algorithm, str(g), "--k", "3", "--eps", "1/10", "--ktilde", "100"]
        capsys.readouterr()
        assert cli_dispatch(argv + ["--budget", "0.000001", "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: time budget exceeded in subset enumeration\n"
        assert cli_dispatch(argv + ["--out", str(tmp_path / "s.json")]) == 2


def test_cli_misr_pas_budget_overrun_is_an_error(tmp_path, capsys):
    # The family and the set packing read one deadline at every frame
    # and footprint. A generous budget writes the same bytes as none.
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "22", "--seed", "5", "--span", "16", "--out", str(i)]) == 0
    argv = ["solve", "misr-pas", str(i), "--k", "6", "--cap-c", "6"]
    capsys.readouterr()
    assert cli_dispatch(argv + ["--budget", "0.000001", "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
    assert not (tmp_path / "s.json").exists()
    assert cli_dispatch(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert cli_dispatch(argv + ["--budget", "3600", "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_kernel_misr_budget_names_the_stage(tmp_path, capsys):
    # At n = 80 and the default cap, family growth alone runs for seconds;
    # the kernel stops within its budget and says which stage overran.
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "80", "--seed", "1", "--span", "30", "--out", str(i)]) == 0
    out = tmp_path / "k.json"
    capsys.readouterr()
    start = time.monotonic()
    assert cli_dispatch(["kernel", "misr", str(i), "--k", "14", "--budget", "0.5", "--out", str(out)]) == 1
    assert time.monotonic() - start <= 0.5 * 1.1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "time budget" in err
    assert any(stage in err for stage in ("family growth", "capped MIS", "set packing")), err
    assert not out.exists()


def test_cli_kernel_budget_writes_the_same_bytes_as_none(tmp_path, capsys):
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "22", "--seed", "5", "--span", "16", "--out", str(i)]) == 0
    argv = ["kernel", "misr", str(i), "--k", "6", "--cap-c", "6"]
    assert cli_dispatch(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert cli_dispatch(argv + ["--budget", "3600", "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # The 2dkr kernel runs no search, so a budget there is a usage error.
    g = tmp_path / "g.json"
    assert cli_dispatch(["gen", "gknap", "--n", "6", "--N", "20", "--out", str(g)]) == 0
    argv = ["kernel", "2dkr", str(g), "--k", "3", "--out", str(tmp_path / "c.json")]
    capsys.readouterr()
    assert cli_dispatch(argv + ["--budget", "1"]) == 1
    assert capsys.readouterr().err == "usage error: kernel 2dkr takes no --budget\n"
    assert not (tmp_path / "c.json").exists()
    assert cli_dispatch(argv) == 0


def test_cli_misr_cap_below_one_is_an_error(tmp_path, capsys):
    # The exact solve finds 12 here, so c = 0 must not assert OPT < 12 nor
    # write an empty kernel.
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "20", "--seed", "7", "--planted", "5", "--out", str(i)]) == 0
    assert cli_dispatch(["solve", "misr-exact", str(i), "--k", "12", "--out", str(tmp_path / "e.json")]) == 0
    for c in ("0", "-1"):
        for argv in (["solve", "misr-pas"], ["kernel", "misr"]):
            out = tmp_path / f"{argv[0]}{c}.json"
            capsys.readouterr()
            assert cli_dispatch(argv + [str(i), "--k", "12", "--cap-c", c, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: c must be positive, got {c}\n"
            assert not out.exists()


def test_cli_solve_k_below_one_is_an_error(tmp_path, capsys):
    # Every solve path rejects k < 1 before it writes anything: an exact
    # solve must not answer it with an empty packing and exit 0.
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert cli_dispatch(["gen", "misr", "--n", "8", "--seed", "3", "--out", str(m)]) == 0
    assert cli_dispatch(["gen", "gknap", "--n", "6", "--N", "20", "--out", str(g)]) == 0
    for algorithm, inst in (("misr-exact", m), ("misr-pas", m), ("2dkr-exact", g), ("2dkr-pas", g)):
        for k in ("0", "-1"):
            out = tmp_path / f"{algorithm}{k}.json"
            capsys.readouterr()
            assert cli_dispatch(["solve", algorithm, str(inst), "--k", k, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: k must be positive, got {k}\n"
            assert not out.exists()


def test_cli_nan_budget_is_an_error(tmp_path, capsys):
    # NaN would set a deadline that is never reached: an unbounded run.
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "8", "--seed", "3", "--out", str(i)]) == 0
    for algorithm in ("misr-exact", "misr-pas"):
        capsys.readouterr()
        argv = ["solve", algorithm, str(i), "--k", "2", "--budget", "nan", "--out", str(tmp_path / "s.json")]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == "error: time limit must be positive\n"
    assert not (tmp_path / "s.json").exists()


def test_cli_io_errors_are_one_error_line(tmp_path, capsys):
    # A directory where a file belongs is an IO error (exit 1), whether it is
    # read as the instance or written as --out.
    m = tmp_path / "m.json"
    assert cli_dispatch(["gen", "misr", "--n", "8", "--seed", "3", "--out", str(m)]) == 0
    for argv in (
        ["solve", "misr-pas", str(tmp_path), "--k", "3"],
        ["solve", "misr-pas", str(m), "--k", "3", "--cap-c", "2", "--out", str(tmp_path)],
    ):
        capsys.readouterr()
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_2dkr_pas_above_the_probe_bound_is_an_error(tmp_path, capsys):
    # 12 items, so the PAS does not settle k = 12 by counting; k' = 7 is one
    # more item than the CLI lets a probe hold.
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    assert cli_dispatch(["gen", "gknap", "--n", "12", "--N", "30", "--out", str(g)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["solve", "2dkr-pas", str(g), "--k", "12", "--eps", "0.45", "--out", str(s)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: 7 items exceed budget {cli.MAX_PROBE_ITEMS}\n"
    assert not s.exists()
    # The exact solve has the same bound: seven unit squares would fit.
    u = fileio.save(fileio.InstanceFile("gknap", GknapInstance(10, (Item(1, 1),) * 8)), tmp_path / "u.json")
    assert cli_dispatch(["solve", "2dkr-exact", str(u), "--k", "7", "--out", str(s)]) == 1
    assert capsys.readouterr().err == f"error: 7 items exceed budget {cli.MAX_PROBE_ITEMS}\n"


def test_cli_verify_rejects_tampering(tmp_path):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    inst = fileio.InstanceFile("gknap", GknapInstance(10, (Item(3, 2), Item(4, 4))))
    fileio.save(inst, g)
    assert cli_dispatch(["solve", "2dkr-exact", str(g), "--k", "2", "--out", str(s)]) == 0
    payload = json.loads(s.read_text())
    payload["placements"][0][1] = 9
    s.write_text(json.dumps(payload))
    assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == 3


def test_cli_verify_hash_mismatch(tmp_path):
    i1, i2, s = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "0", "--out", str(i1)]) == 0
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "1", "--out", str(i2)]) == 0
    assert cli_dispatch(["solve", "misr-exact", str(i1), "--k", "1", "--out", str(s)]) == 0
    assert cli_dispatch(["verify", "solution", str(s), "--instance", str(i2)]) == 3


def test_cli_render_hash_mismatch(tmp_path, capsys):
    i1, i2, s = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "0", "--out", str(i1)]) == 0
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "1", "--out", str(i2)]) == 0
    assert cli_dispatch(["solve", "misr-exact", str(i1), "--k", "1", "--out", str(s)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["render", str(i2), "--solution", str(s), "--out", str(tmp_path / "r.svg")]) == 3
    assert "instance hash mismatch" in capsys.readouterr().out


def test_cli_kernel_commands(tmp_path):
    i = tmp_path / "i.json"
    k = tmp_path / "k.json"
    assert cli_dispatch(["gen", "misr", "--n", "10", "--seed", "2", "--out", str(i)]) == 0
    assert cli_dispatch(["kernel", "misr", str(i), "--k", "3", "--eps", "0.5",
                         "--cap-c", "3", "--out", str(k)]) == 0
    payload = json.loads(k.read_text())
    assert payload["type"] == "kernel" and payload["indices"]
    g = tmp_path / "g.json"
    fileio.save(fileio.InstanceFile("gknap", GknapInstance(20, (Item(5, 3), Item(7, 2)))), g)
    assert cli_dispatch(["kernel", "2dkr", str(g), "--k", "2", "--eps", "0.5", "--out", str(k)]) == 0


def test_cli_kernel_files_record_eps(tmp_path):
    # A kernel's guarantee is stated in eps, so its file says which eps,
    # exactly, as solution files do.
    i = tmp_path / "i.json"
    g = tmp_path / "g.json"
    assert cli_dispatch(["gen", "misr", "--n", "10", "--seed", "2", "--out", str(i)]) == 0
    fileio.save(fileio.InstanceFile("gknap", GknapInstance(20, (Item(5, 3), Item(7, 2)))), g)
    runs = [
        (["kernel", "misr", str(i), "--k", "3", "--cap-c", "3"], "1/2"),
        (["kernel", "misr", str(i), "--k", "3", "--eps", "0.7", "--cap-c", "3"], "7/10"),
        (["kernel", "2dkr", str(g), "--k", "2", "--eps", "1/3"], "1/3"),
    ]
    for argv, eps in runs:
        k = tmp_path / "k.json"
        assert cli_dispatch(argv + ["--out", str(k)]) == 0
        params = json.loads(k.read_text())["params"]
        assert params["eps"] == eps, params


def test_cli_reduce_verify_render(tmp_path):
    r = tmp_path / "r.json"
    rp = tmp_path / "rp.json"
    out = tmp_path / "r.svg"
    rc = cli_dispatch([
        "reduce", "mss-to-2dkr", "--xs", "1,2,3,4", "--t", "10", "--k", "4",
        "--ys", "1,2,3,4", "--out", str(r), "--packing-out", str(rp),
    ])
    assert rc == 0
    assert cli_dispatch(["verify", "reduction", str(r)]) == 0
    assert cli_dispatch(["verify", "packing", str(rp), "--instance", str(r)]) == 0
    assert cli_dispatch(["render", str(r), "--solution", str(rp), "--out", str(out)]) == 0
    assert out.read_text().count('class="placed"') == 41


def test_cli_gen_figure3_without_k_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert cli_dispatch(["gen", "figure3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: gen figure3 needs --k\n"
    assert not out.exists()


def test_cli_metadata_not_an_object_is_a_format_error(tmp_path, capsys):
    i = tmp_path / "i.json"
    i.write_text(json.dumps({"type": "misr", "rects": [[0, 0, 1, 1]], "metadata": [1, 2]}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load(i)
    assert cli_dispatch(["render", str(i)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "metadata" in err


def test_cli_verify_reduction_malformed_mss(tmp_path, capsys):
    r = tmp_path / "r.json"
    argv = ["reduce", "mss-to-2dkr", "--xs", "1,2,3,4", "--t", "10", "--k", "4", "--out", str(r)]
    assert cli_dispatch(argv) == 0
    payload = json.loads(r.read_text())
    malformed = (
        {"xs": [1, 2, 3, 4], "t": 10},
        {"xs": [1, 2, 3, 4], "t": "10", "k": 4},
        {"xs": 5, "t": 10, "k": 4},
        [1],
    )
    for mss in malformed:
        payload["metadata"]["mss"] = mss
        r.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli_dispatch(["verify", "reduction", str(r)]) == 3, mss
        captured = capsys.readouterr()
        assert captured.out.startswith("not a reduction output: ") and not captured.err, mss


def test_rotations_must_be_bool(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"type": "gknap", "N": 10, "items": [[3, 2]], "rotations": "no"}))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_instance(g)
    assert cli_dispatch(["solve", "2dkr-exact", str(g), "--k", "1"]) == 1
    g.write_text(json.dumps({"type": "gknap", "N": 10, "items": [[3, 2]], "rotations": False}))
    assert fileio.load_instance(g).instance.rotations is False


def _tampered(tmp_path, argv, edit):
    """Solve, then rewrite one field of the solution file."""
    s = tmp_path / "s.json"
    assert cli_dispatch(argv + ["--out", str(s)]) == 0
    payload = json.loads(s.read_text())
    edit(payload)
    s.write_text(json.dumps(payload))
    return s


def test_cli_verify_out_of_range_selected(tmp_path, capsys):
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "0", "--out", str(i)]) == 0
    s = _tampered(tmp_path, ["solve", "misr-exact", str(i), "--k", "1"],
                  lambda p: p.update(selected=[99]))
    capsys.readouterr()
    assert cli_dispatch(["verify", "solution", str(s), "--instance", str(i)]) == 3
    assert "violation: rectangle index 99 out of range" in capsys.readouterr().out
    assert cli_dispatch(["render", str(i), "--solution", str(s), "--out", str(tmp_path / "r.svg")]) == 3


def test_cli_verify_repeated_selected(tmp_path, capsys):
    i = tmp_path / "i.json"
    assert cli_dispatch(["gen", "misr", "--n", "5", "--seed", "0", "--out", str(i)]) == 0
    s = _tampered(tmp_path, ["solve", "misr-exact", str(i), "--k", "1"],
                  lambda p: p.update(selected=[0, 0, 0, 0]))
    capsys.readouterr()
    assert cli_dispatch(["verify", "solution", str(s), "--instance", str(i)]) == 3
    assert "violation: rectangle index 0 repeated" in capsys.readouterr().out


def test_cli_set_packing_recursion_limit_is_an_error(tmp_path, capsys):
    """1351 candidates overflow the set packing: one frame per free candidate on the skip chain."""
    i = fileio.save(gen_misr(n=22, seed=7, span=16, max_side=9), tmp_path / "i.json")
    capsys.readouterr()
    argv = ["solve", "misr-pas", str(i), "--k", "9", "--eps", "1/2", "--cap-c", "7"]
    assert cli_dispatch(argv + ["--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == "error: set packing over 1351 candidates exceeds the recursion limit\n"


def test_cli_verify_out_of_range_packing_item(tmp_path, capsys):
    g = tmp_path / "g.json"
    fileio.save(fileio.InstanceFile("gknap", GknapInstance(10, (Item(3, 2), Item(4, 4)))), g)

    def edit(payload):
        payload["placements"][0][0] = 99

    s = _tampered(tmp_path, ["solve", "2dkr-exact", str(g), "--k", "2"], edit)
    capsys.readouterr()
    assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == 3
    assert "references item 99" in capsys.readouterr().out
    assert cli_dispatch(["render", str(g), "--solution", str(s), "--out", str(tmp_path / "r.svg")]) == 3
    assert "references item 99" in capsys.readouterr().out


def test_cli_verify_packing_checks_the_instance_board(tmp_path, capsys):
    # Two 3 x 3 items do not fit a 4 x 4 board; a file that claims a
    # 100 x 100 board for that instance fails verification.
    g = fileio.save(fileio.InstanceFile("gknap", GknapInstance(4, (Item(3, 3),) * 2)), tmp_path / "g.json")
    placements = (Placement(0, 0, 0), Placement(1, 50, 50))
    sol = fileio.SolutionFile("gknap-packing", fileio.load_instance(g).hash, None, Packing(100, placements))
    s = fileio.save(sol, tmp_path / "s.json")
    capsys.readouterr()
    assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == 3
    assert capsys.readouterr().out == "violation: packing board side 100 is not the instance's 4\n"


def test_cli_verify_packing_checks_rotations(tmp_path, capsys):
    # Two 2 x 1 items on a 4 x 4 board: the second, turned to 1 x 2 at
    # (0, 1), fits beside the first, but the instance forbids rotations.
    items = (Item(2, 1),) * 2
    placements = (Placement(0, 0, 0), Placement(1, 0, 1, True))
    for rotations, code, out in (
        (False, 3, "violation: placement 1 is rotated but the instance forbids rotations\n"),
        (True, 0, "packing of 2 items verified\n"),
    ):
        g = fileio.save(fileio.InstanceFile("gknap", GknapInstance(4, items, rotations)), tmp_path / "g.json")
        sol = fileio.SolutionFile("gknap-packing", fileio.load_instance(g).hash, None, Packing(4, placements))
        s = fileio.save(sol, tmp_path / "s.json")
        capsys.readouterr()
        assert cli_dispatch(["verify", "packing", str(s), "--instance", str(g)]) == code
        assert capsys.readouterr().out == out


def test_cli_eps_is_exact(tmp_path):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    fileio.save(fileio.InstanceFile("gknap", GknapInstance(40, tuple(Item(5, 4) for _ in range(10)))), g)
    argv = ["solve", "2dkr-pas", str(g), "--k", "10", "--ktilde", "40", "--out", str(s)]
    assert cli_dispatch(argv + ["--eps", "0.7"]) == 0
    sol = fileio.load_solution(s)
    assert sol.provenance["knobs"]["k_prime"] == 3 and sol.packing.size == 3
    assert sol.provenance["eps"] == "7/10"
    for bad in ("0", "1.5", "-0.5", "nan", "half", "1/0", "1e-99999", "1e-999999999", "0." + "1" * 60):
        assert cli_dispatch(argv + ["--eps", bad]) == 1, bad


def test_cli_usage_errors(tmp_path):
    assert cli_dispatch(["gen", "nope"]) == 1  # unknown generator kind
    assert cli_dispatch(["solve", "misr-pas", "nope.json"]) == 1  # missing --k
    assert cli_dispatch(["solve", "misr-exact", str(tmp_path / "missing.json"), "--k", "1"]) == 1
    assert cli_dispatch(["reduce", "mss-to-2dkr", "--xs", "1,1,2,3", "--t", "9", "--k", "4"]) == 1
    i = tmp_path / "i.json"
    cli_dispatch(["gen", "misr", "--n", "4", "--seed", "0", "--out", str(i)])
    assert cli_dispatch(["solve", "2dkr-pas", str(i), "--k", "2"]) == 1  # wrong kind


def test_cli_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli_dispatch(["gen", "gknap", "--n", "6", "--seed", "3", "--out", str(a)])
    cli_dispatch(["gen", "gknap", "--n", "6", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("RECTPAS_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)  # keep stray files out of the repo on failure
    assert cli_dispatch(["gen", "misr", "--n", "4", "--seed", "0", "--out", "inst.json"]) == 0
    assert (tmp_path / "inst.json").exists()
    nested = tmp_path / "sub"
    nested.mkdir()
    assert cli_dispatch(["gen", "misr", "--n", "4", "--seed", "0", "--out", str(nested / "i.json")]) == 0
    assert (nested / "i.json").exists()  # explicit paths are left alone


def test_cli_verify_accepts_every_solver_output(tmp_path):
    """Self-consistency across the command matrix: verify accepts whatever
    solve and reduce emit, for every algorithm and both exit-0 and exit-2
    outcomes."""
    mi = tmp_path / "m.json"
    gi = tmp_path / "g.json"
    assert cli_dispatch(["gen", "misr", "--n", "10", "--seed", "6", "--planted", "4", "--out", str(mi)]) == 0
    assert cli_dispatch(["gen", "gknap", "--n", "8", "--seed", "6", "--N", "30", "--out", str(gi)]) == 0
    runs = [
        (["solve", "misr-exact", str(mi), "--k", "2"], mi, "solution"),
        (["solve", "misr-exact", str(mi), "--k", "11"], mi, "solution"),
        (["solve", "misr-pas", str(mi), "--k", "2", "--cap-c", "4"], mi, "solution"),
        (["solve", "misr-pas", str(mi), "--k", "11", "--cap-c", "4"], mi, "solution"),
        (["solve", "2dkr-exact", str(gi), "--k", "2"], gi, "packing"),
        (["solve", "2dkr-pas", str(gi), "--k", "2"], gi, "packing"),
        (["solve", "2dkr-pas", str(gi), "--k", "9"], gi, "packing"),
    ]
    for idx, (argv, inst, what) in enumerate(runs):
        out = tmp_path / f"out{idx}.json"
        rc = cli_dispatch(argv + ["--out", str(out)])
        assert rc in (0, 2), argv
        assert cli_dispatch(["verify", what, str(out), "--instance", str(inst)]) == 0, argv
    r = tmp_path / "red.json"
    rp = tmp_path / "redp.json"
    assert cli_dispatch([
        "reduce", "mss-to-2dkr", "--xs", "2,3,5,7", "--t", "12", "--k", "4",
        "--ys", "2,2,3,5", "--out", str(r), "--packing-out", str(rp),
    ]) == 0
    assert cli_dispatch(["verify", "reduction", str(r)]) == 0
    assert cli_dispatch(["verify", "packing", str(rp), "--instance", str(r)]) == 0


def test_cli_parser_reuse_keeps_defaults(tmp_path, capsys):
    # The parser is built once per process; a call that omits --cap-c and
    # --out must see their defaults, not the values of the call before it.
    i, s = tmp_path / "i.json", tmp_path / "s.json"
    assert cli_dispatch(["gen", "misr", "--n", "8", "--seed", "11", "--planted", "4", "--out", str(i)]) == 0
    assert cli_dispatch(["solve", "misr-pas", str(i), "--k", "2", "--cap-c", "1", "--out", str(s)]) == 0
    assert fileio.load_solution(s).provenance["knobs"]["c"] == 1
    s.unlink()
    capsys.readouterr()
    assert cli_dispatch(["solve", "misr-pas", str(i), "--k", "2"]) == 0
    assert not s.exists()
    payload = capsys.readouterr().out.rsplit("\n", 2)[0]
    assert json.loads(payload)["provenance"]["knobs"]["c"] > 1
    assert cli._build_parser() is cli._build_parser()
