"""File formats, report determinism, rendering, and the CLI surface."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fsrkit.catalog import CATALOG, catalog, get_rule
from fsrkit.cli import main as cli_main
from fsrkit.io import (
    canonical_json,
    load_rule,
    multicurve_from_json,
    multicurve_to_json,
    rule_from_json,
    rule_to_json,
    save_rule,
)
from fsrkit.multicurves import Lift, MulticurveSpec
from fsrkit.render import render_complex, render_rule_level
from fsrkit.report import analyze
from fsrkit.rules import Tower, classify_vertices, validate_rule

ROOT = Path(__file__).resolve().parent.parent


def test_rule_roundtrip_all_catalog(tmp_path):
    for name, rule in catalog().items():
        path = tmp_path / f"{name}.json"
        save_rule(rule, str(path))
        loaded = load_rule(str(path))
        assert validate_rule(loaded).ok, name
        assert rule_to_json(loaded) == rule_to_json(rule)
        # byte-canonical round trip
        second = tmp_path / f"{name}2.json"
        save_rule(loaded, str(second))
        assert path.read_bytes() == second.read_bytes()


def test_canonical_float_format():
    text = canonical_json({"x": 0.1234567890123456789, "y": [1.0, 2]})
    assert "0.123456789012" in text
    assert text == canonical_json(json.loads(text))


def test_multicurve_roundtrip():
    mc = MulticurveSpec(("a", "b"),
                        (Lift("a", "b", 2), Lift("b", "inessential", 3)),
                        map_degree=None)
    data = multicurve_to_json(mc)
    again = multicurve_from_json(json.loads(json.dumps(data)))
    assert again == mc


def test_analyze_deterministic():
    rule = get_rule("square_spider_julia")
    r1 = canonical_json(analyze(rule).to_json())
    r2 = canonical_json(analyze(get_rule("square_spider_julia")).to_json())
    assert r1 == r2


def test_catalog_report_bytes_match_benchmark_hashes():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for name in sorted(CATALOG):
        text = canonical_json(analyze(get_rule(name)).to_json())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == expected["catalog_report"][name], name


def test_analyze_exponential_regime_sections():
    rep = analyze(get_rule("doubling_edge"))
    assert rep.valid
    assert not rep.growth["polynomial"]
    assert "not supported" in rep.spine.get("note", "")
    assert rep.arc["lower"] == 1.0


def test_render_bigon_and_levels():
    from tests.test_complexes import bigon_sphere

    svg = render_complex(bigon_sphere())
    assert svg.startswith("<?xml") and "</svg>" in svg
    rule = get_rule("power_spider_2")
    tower = Tower.build(rule)
    lv = tower.up_to(3)
    assert len(lv.complex.tiles) == 8
    svg = render_rule_level(rule, lv, classify_vertices(rule))
    assert svg.count("<circle") == len(lv.complex.vertices)
    # deterministic output
    svg2 = render_rule_level(rule, lv, classify_vertices(rule))
    assert svg == svg2


def test_render_spine_overlay():
    from fsrkit.spines import non_expanding_spine

    rule = get_rule("square_spider_julia")
    spine = non_expanding_spine(rule, 1)
    svg = render_rule_level(rule, Tower.of(rule).up_to(1),
                            classify_vertices(rule), spine)
    assert 'stroke="#c22"' in svg


def run_cli(*argv) -> tuple[int, str]:
    import contextlib
    import io as _io

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_cli_validate_ok():
    code, out = run_cli("validate", "power_spider_2")
    assert code == 0 and "pass" in out


def test_cli_validate_failure_exit_code(tmp_path):
    bad = rule_to_json(get_rule("power_spider_2"))
    bad["map"]["edges"]["a1"] = ["e", "-"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli("validate", str(path))
    assert code == 2


def test_cli_unsupported_regime_exit_code():
    code, _ = run_cli("levy", "doubling_edge")
    assert code == 3


def test_cli_budget_exit_code():
    code, _ = run_cli("--budget", "50", "subdivide", "doubling_edge",
                      "--level", "10")
    assert code == 4


@pytest.mark.parametrize("budget,level,message", [
    (5, 0, "level 0 needs 10 cells (budget 5)"),
    (5, 1, "level 0 needs 10 cells (budget 5)"),
    (20, 1, "level 1 needs 34 cells (budget 20)"),
    (100, 2, "level 2 needs 130 cells (budget 100)"),
])
def test_cli_budget_holds_on_levels_zero_and_one(capsys, budget, level,
                                                 message):
    # tripod_pillow_4 has 10 cells at level 0 and 34 at level 1
    code, out = run_cli("--budget", str(budget), "--json", "subdivide",
                        "tripod_pillow_4", "--level", str(level))
    assert code == 4 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_energy_level_past_float_range_exit_code(capsys):
    # 2^1024 level-1024 subedges do not fit a float
    code, out = run_cli("--json", "energy", "doubling_edge", "--p", "2",
                        "--level", "1100")
    err = capsys.readouterr().err
    assert code == 4 and out == ""
    assert err.startswith("error: energy: level 1024")


def test_cli_energy_level_budget_exit_code(capsys):
    code, _ = run_cli("--budget", "50", "--json", "energy", "power_spider_2",
                      "--level", "100")
    assert code == 4
    assert capsys.readouterr().err.startswith("error: energy: level 100")


@pytest.mark.parametrize("p", ["0", "0.5", "nan"])
def test_cli_energy_bad_exponent_exit_code(capsys, p):
    code, out = run_cli("--json", "energy", "power_spider_2", "--p", p)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("p", ["1.0001", "1.000000000001"])
def test_cli_energy_exponent_near_one(capsys, p):
    # the certificate's stagger leaves the float range; the natural
    # representatives still bound the energy
    code, out = run_cli("--json", "energy", "power_spider_2", "--p", p)
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    data = json.loads(out)
    assert data["certified"] is False and data["certificate"] is None
    assert data["upper_source"].startswith("natural representative")


def _first_level0_sign(d):
    d["level0"]["tiles"][0][1][0][1] = True


@pytest.mark.parametrize("command, data", [
    ("validate", lambda: _mutated_export(
        "power_spider_2",
        lambda d: _set(d, ("map", "tiles", "tL"), ["t", 0.9]))),
    ("validate", lambda: _mutated_export("power_spider_2", _first_level0_sign)),
    ("multicurve", lambda: {"curves": ["g"], "lifts": [["g", "g", 1.7]]}),
    ("multicurve", lambda: {"curves": ["g"], "lifts": [["g", "g", 1]],
                            "map_degree": True}),
], ids=["float-alignment", "bool-dart-sign", "float-lift-degree",
        "bool-map-degree"])
def test_cli_rejects_inexact_integers_and_signs(tmp_path, capsys, command,
                                                data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data()))
    argv = ["--spec", str(path)] if command == "multicurve" else [str(path)]
    code, out = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "malformed" in err


@pytest.mark.parametrize("command", ["validate", "multicurve"])
@pytest.mark.parametrize("content", ["{not json", "[1, 2]", "\"text\"",
                                     "\udcff"])
def test_cli_malformed_file_exit_code(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_text(content, errors="surrogateescape")
    argv = ["--spec", str(path)] if command == "multicurve" else [str(path)]
    code, _ = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_subdivide_and_report_json(tmp_path):
    out = tmp_path / "lvl2.json"
    code, _ = run_cli("subdivide", "power_spider_2", "--level", "2",
                      "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["cells"] == {"vertices": 2, "edges": 4, "tiles": 4}

    code, text = run_cli("--json", "report", "square_spider_julia")
    assert code == 0
    rep = json.loads(text)
    assert rep["valid"] is True
    assert rep["levy"]["levy_free"] is True


def test_cli_quotient_normalize(tmp_path):
    # explicit quotient by an edge set on the Levy pillow marked at {A, B}
    import dataclasses

    from fsrkit.catalog import levy_pillow_4
    from tests.test_quotients import remarked

    rule = remarked(levy_pillow_4(), {"A", "B"})
    path = tmp_path / "pillow.json"
    save_rule(rule, str(path))
    out = tmp_path / "collapsed.json"
    code, _ = run_cli("quotient", str(path), "--edges", "z",
                      "--out", str(out))
    assert code == 0
    collapsed = load_rule(str(out))
    assert validate_rule(collapsed).ok
    code, text = run_cli("normalize", str(path))
    assert code == 0


def test_cli_multicurve_and_energy(tmp_path):
    spec = tmp_path / "mc.json"
    spec.write_text(json.dumps({"curves": ["g"],
                                "lifts": [["g", "g", 3], ["g", "g", 3]]}))
    code, out = run_cli("--json", "multicurve", "--spec", str(spec))
    assert code == 0
    data = json.loads(out)
    assert data["cantor"] is True
    assert abs(data["q"]["value"] - 1.6309297535) < 1e-6

    code, out = run_cli("--json", "energy", "power_spider_2", "--p", "2")
    assert code == 0
    eb = json.loads(out)
    assert eb["certified"] is True


@pytest.mark.parametrize("extra", [(), ("--K", "16")])
def test_cli_energy_text_and_json(extra):
    # the text form lists the fields of the JSON data, one per line, as
    # every other command does; the JSON form is the canonical document
    code, text = run_cli("energy", "power_spider_2", "--p", "2", *extra)
    assert code == 0
    code, out = run_cli("--json", "energy", "power_spider_2", "--p", "2",
                        *extra)
    assert code == 0
    data = json.loads(out)
    assert out == canonical_json(data)
    lines = text.splitlines()
    assert "Bound(" not in text and "Report(" not in text
    assert lines[0] == "p: 2.0"
    assert {ln.split(":")[0] for ln in lines if not ln.startswith(" ")} == (
        set(data))
    assert "certified: True" in lines
    if extra:
        assert "  K: 16" in lines


def test_cli_render(tmp_path):
    out = tmp_path / "fig.svg"
    code, _ = run_cli("render", "square_spider_julia", "--level", "1",
                      "--spine", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("<?xml")


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "fsrkit.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "power_spider_2" in proc.stdout


FUZZ_VALUES = ["tz", "", "+", "edge", "tile", -1, 0, 2.5, None, True,
               [], {}, ["edge", -1], ["tile", "t"], [1, 2], {"a": 1}]


def _fuzz_slots(data, path=()):
    """Paths of every dict value and list item in a JSON document."""
    items = data.items() if isinstance(data, dict) else \
        enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fuzz_slots(value, path + (key,))


def _fuzz_get(data, path):
    for key in path:
        data = data[key]
    return data


def mutate_export(data, rng):
    """One seeded single-field mutation of a rule export, in place: delete
    a key, copy in a string of the same file, add a key, or set a value of
    the wrong shape."""
    slots = list(_fuzz_slots(data))
    strings = [_fuzz_get(data, q) for q in slots
               if isinstance(_fuzz_get(data, q), str)]
    path = rng.choice(slots)
    parent, key = _fuzz_get(data, path[:-1]), path[-1]
    op = rng.random()
    if isinstance(parent, dict) and op < 0.15:
        del parent[key]
    elif isinstance(parent, dict) and op < 0.25:
        parent[rng.choice(strings)] = parent[key]
    elif op < 0.6:
        parent[key] = rng.choice(strings)
    else:
        parent[key] = rng.choice(FUZZ_VALUES)
    return path


def _set(data, path, value):
    _fuzz_get(data, path[:-1])[path[-1]] = value
    return path


def _mutated_export(name, mutate):
    data = rule_to_json(get_rule(name))
    mutate(data)
    return data


FUZZ_FIXED = [
    ("power_spider_2", lambda d: _set(d, ("carrier", "tiles", "tL"), "tz")),
    ("power_spider_2",
     lambda d: _set(d, ("carrier", "edges", "a0"), ["edge", -1])),
]


def test_cli_fuzz_mutated_exports(tmp_path, capsys):
    rng = random.Random(20261018)
    exports = {name: json.dumps(rule_to_json(get_rule(name)))
               for name in sorted(CATALOG)}
    cases = list(FUZZ_FIXED) + [
        (name, lambda d: mutate_export(d, rng))
        for name in (rng.choice(sorted(CATALOG)) for _ in range(300))]
    path = tmp_path / "mutated.json"
    for name, mutate in cases:
        data = json.loads(exports[name])
        case = (name, mutate(data))
        path.write_text(json.dumps(data))
        for command in ("validate", "growth"):
            capsys.readouterr()
            try:
                code, _ = run_cli("--json", command, str(path))
            except Exception as exc:   # what the console would show as a traceback
                pytest.fail(f"{case} {command}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (case, command, code)
            assert code == 0 or err.startswith("error:"), (case, command, err)
