"""Command-line surface: subcommands, exit codes, routing, pipelines."""

import time

import pytest

from localbribery import cli
from localbribery.cli import main, route_poly_solver
from localbribery.ioformat import parse_instance
from localbribery.problem import check_witness
from conftest import FROZEN_SAT_DIMACS

PLURALITY_FILE = """\
rule: plurality
metric: swap
alternatives: a b c
target: c
budget: 2
voter: delta=2 price=1 : a > c > b
voter: delta=1 price=1 : b > c > a
voter: delta=0 price=0 : c > a > b
"""

BORDA_SWAP_FILE = """\
rule: borda
metric: swap
alternatives: a b c
target: c
voter: delta=2 : a > c > b
voter: delta=2 : b > c > a
"""


@pytest.fixture
def plurality_path(tmp_path):
    p = tmp_path / "plur.elb"
    p.write_text(PLURALITY_FILE)
    return str(p)


@pytest.fixture
def borda_path(tmp_path):
    p = tmp_path / "borda.elb"
    p.write_text(BORDA_SWAP_FILE)
    return str(p)


@pytest.fixture
def cnf_path(tmp_path):
    p = tmp_path / "fix.cnf"
    p.write_text(FROZEN_SAT_DIMACS)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_yes(plurality_path, capsys):
    code, out, _ = run(capsys, "solve", "--instance", plurality_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "decision: YES"
    assert lines[1] == "cost: 1"
    assert lines[2].startswith("bribed: ")
    assert sum(1 for l in lines if l.startswith("pref: ")) == 3


def test_solve_no(tmp_path, capsys):
    p = tmp_path / "no.elb"
    p.write_text(PLURALITY_FILE.replace("budget: 2", "budget: 0"))
    code, out, _ = run(capsys, "solve", "--instance", str(p))
    assert code == 1
    assert out.strip() == "decision: NO"


def test_solve_refuses_hard_cell_without_consent(borda_path, capsys):
    code, out, err = run(capsys, "solve", "--instance", borda_path)
    assert code == 2
    assert "NP-complete" in err
    assert "--oracle" in err


def test_solve_hard_cell_with_consent(borda_path, capsys):
    code, out, _ = run(capsys, "solve", "--instance", borda_path, "--oracle")
    assert code == 0
    assert "decision: YES" in out


def test_parse_error_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.elb"
    p.write_text("rule: nosuch\n")
    code, _, err = run(capsys, "solve", "--instance", str(p))
    assert code == 2
    assert "unknown rule" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--instance", "{bad}"),
        ("winner", "--instance", "{bad}"),
        ("verify", "--instance", "{plurality}", "--witness", "{bad}"),
        ("gen-gadget", "--reduction", "kapp-swap", "--cnf", "{bad}"),
        ("realize-wmg", "--target", "{bad}"),
    ],
    ids=["instance-solve", "instance-winner", "witness", "cnf", "wmg-target"],
)
def test_non_utf8_file_exit_2(tmp_path, plurality_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("voter: Zoë\n".encode("latin-1"))
    paths = {"bad": str(bad), "plurality": plurality_path}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: not UTF-8 text")


def test_distance_and_ball(capsys):
    code, out, _ = run(
        capsys, "distance", "--metric", "swap", "--p1", "a>b>c", "--p2", "c>b>a"
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys, "ball", "--metric", "swap", "--radius", "1",
        "--pref", "a > b > c",
    )
    assert code == 0
    assert out.splitlines() == ["a > b > c", "a > c > b", "b > a > c"]
    code, out, _ = run(
        capsys, "ball", "--metric", "maxdisp", "--radius", "2",
        "--pref", "a>b>c", "--count-only",
    )
    assert code == 0 and out.strip() == "6"


def test_ball_cap_is_exit_3(capsys):
    code, _, err = run(
        capsys, "ball", "--metric", "swap", "--radius", "10",
        "--pref", "a>b>c>d>e>f>g", "--cap", "5",
    )
    assert code == 3
    assert "cap" in err


def test_ball_cap_stops_a_huge_ball_early(capsys):
    # The swap ball of radius 30 around 12 alternatives has millions of
    # members; the cap must stop the enumeration after the first few.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "ball", "--metric", "swap", "--radius", "30",
        "--pref", ">".join("abcdefghijkl"), "--cap", "5",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert len(out.splitlines()) == 5
    assert "cap 5" in err


def test_oracle_limits_exit_3(plurality_path, capsys):
    code, _, err = run(
        capsys, "oracle", "--instance", plurality_path, "--max-nodes", "1"
    )
    assert code == 3
    assert "max_nodes" in err


def test_oracle_env_limits(plurality_path, capsys, monkeypatch):
    monkeypatch.setenv("ORACLE_MAX_NODES", "1")
    code, _, err = run(capsys, "oracle", "--instance", plurality_path)
    assert code == 3
    # flag overrides env
    code, out, _ = run(
        capsys, "oracle", "--instance", plurality_path, "--max-nodes", "100000"
    )
    assert code == 0


@pytest.mark.parametrize(
    "env,flags",
    [
        ({"ORACLE_MAX_NODES": "abc"}, []),
        ({"ORACLE_TIME_S": "abc"}, []),
        ({"ORACLE_TIME_S": "nan"}, []),
        ({}, ["--time-limit", "nan"]),
        ({}, ["--time-limit", "inf"]),
    ],
    ids=["env-nodes-abc", "env-time-abc", "env-time-nan", "flag-time-nan",
         "flag-time-inf"],
)
def test_bad_oracle_limits_exit_2(plurality_path, capsys, monkeypatch, env, flags):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(
        capsys, "oracle", "--instance", plurality_path, *flags
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_ball_negative_radius_exit_2(capsys):
    code, out, err = run(
        capsys, "ball", "--metric", "swap", "--radius", "-1", "--pref", "a>b"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "radius" in err


def test_ball_negative_cap_exit_2(capsys):
    code, out, err = run(
        capsys, "ball", "--metric", "swap", "--radius", "1", "--pref", "a>b",
        "--cap", "-1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--cap" in err


@pytest.mark.parametrize("tag", ["plurality", "veto", "borda"])
@pytest.mark.parametrize("command", ["winner", "solve", "oracle"])
def test_one_alternative_is_a_parse_error(tmp_path, capsys, tag, command):
    p = tmp_path / "one.elb"
    p.write_text(
        f"rule: {tag}\nmetric: swap\nalternatives: a\ntarget: a\n"
        "voter: delta=0 : a\n"
    )
    code, out, err = run(capsys, command, "--instance", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert f"{tag} needs at least 2 alternatives, got m=1" in err
    assert "Traceback" not in err


def test_main_repeats_identically(plurality_path, capsys):
    # main() reuses one parser per process; a usage error in between must
    # leave no state behind.
    argv = ["solve", "--instance", plurality_path]
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first
    usage = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--no-such-flag"])
        usage.append((exc.value.code, capsys.readouterr()))
    assert usage[0] == usage[1]
    assert usage[0][0] == 2
    assert run(capsys, *argv) == first
    assert first[0] == 0 and first[1].startswith("decision: YES")


def test_winner(plurality_path, capsys):
    code, out, _ = run(capsys, "winner", "--instance", plurality_path)
    assert code == 1  # three-way tie, so the target is not the unique winner
    assert "winners: a b c" in out


def test_dump_flow(plurality_path, capsys):
    code, out, _ = run(capsys, "dump-flow", "--instance", plurality_path)
    assert code == 0
    assert out.startswith("network 0 nodes=")
    assert "edge 0 " in out


def test_dump_flow_prints_no_network_when_every_guess_is_screened(
    tmp_path, capsys
):
    # Rival a holds every voter's first two places and no toggle demotes
    # it, so the count screen drops every guess before its network.
    p = tmp_path / "stuck.elb"
    p.write_text(
        "rule: sbucklin\nmetric: swap\nalternatives: a b c d\ntarget: c\n"
        "budget: 3\n"
        + "voter: delta=1 price=1 : a > b > c > d\n" * 3
    )
    code, out, _ = run(capsys, "dump-flow", "--instance", str(p))
    assert code == 0
    assert "network" not in out
    assert run(capsys, "solve", "--instance", str(p))[:2] == (
        1, "decision: NO\n"
    )


def test_dump_flow_refuses_hard_cell(borda_path, capsys):
    code, _, err = run(capsys, "dump-flow", "--instance", borda_path)
    assert code == 2


def test_gadget_pipeline(tmp_path, cnf_path, capsys):
    out_path = str(tmp_path / "g.elb")
    code, _, _ = run(
        capsys, "gen-gadget", "--reduction", "kapp-swap", "--cnf", cnf_path,
        "--delta-pad", "5", "--out", out_path,
    )
    assert code == 0
    inst = parse_instance(open(out_path).read())
    assert inst.rule.k == 2
    names = open(out_path + ".names").read()
    assert "c -> alt 0" in names

    code, wout, _ = run(
        capsys, "witness", "--reduction", "kapp-swap", "--cnf", cnf_path,
        "--delta-pad", "5", "--assignment", "111",
    )
    assert code == 0
    witness_path = str(tmp_path / "w.txt")
    open(witness_path, "w").write(wout)
    code, vout, _ = run(
        capsys, "verify", "--instance", out_path, "--witness", witness_path
    )
    assert code == 0
    assert "verified: yes" in vout


def test_witness_nonsatisfying_flagged(cnf_path, capsys):
    code, out, _ = run(
        capsys, "witness", "--reduction", "kapp-swap", "--cnf", cnf_path,
        "--delta-pad", "5", "--assignment", "101",
    )
    assert code == 0
    assert "does not satisfy" in out.splitlines()[0]


def test_verify_rejects_bad_witness(tmp_path, plurality_path, capsys):
    w = tmp_path / "w.txt"
    w.write_text("pref: b > c > a\npref: b > c > a\npref: c > a > b\n")
    code, out, _ = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert code == 1
    assert "verified: no" in out


def test_verify_reads_solve_output(tmp_path, plurality_path, capsys):
    code, out, _ = run(capsys, "solve", "--instance", plurality_path)
    assert code == 0 and out.startswith("decision: YES\ncost: ")
    w = tmp_path / "w.txt"
    w.write_text(out)
    code, vout, _ = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert (code, vout.splitlines()[0]) == (0, "verified: yes")


def test_verify_junk_witness_line_exit_2(tmp_path, plurality_path, capsys):
    # Without the junk line, this witness verifies YES.
    w = tmp_path / "w.txt"
    w.write_text(
        "pref: a > c > b\nthis line is junk\npref: c > b > a\npref: c > a > b\n"
    )
    code, out, err = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {w}: line 2: expected 'key: value'\n"


def test_verify_unknown_witness_key_names_path_and_line(
    tmp_path, plurality_path, capsys
):
    w = tmp_path / "w.txt"
    w.write_text("pref: a > c > b\nverified: yes\n")
    code, out, err = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {w}: line 2: unknown key 'verified'\n"


def test_verify_bad_witness_line_reports_its_line(
    tmp_path, plurality_path, capsys
):
    w = tmp_path / "w.txt"
    w.write_text("# witness\npref: a > c > b\npref: c > zz > a\n")
    code, _, err = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert code == 2
    assert err == f"error: {w}: line 3: unknown alternative 'zz'\n"


def test_verify_shares_the_instance_preferences(
    tmp_path, plurality_path, capsys, monkeypatch
):
    # An unbribed witness: every line repeats its voter's preference text.
    w = tmp_path / "w.txt"
    w.write_text("".join(
        "pref: " + line.split(" : ")[1] + "\n"
        for line in PLURALITY_FILE.splitlines() if line.startswith("voter:")
    ))
    seen = []

    def spy(instance, witness):
        seen.append((instance, witness))
        return check_witness(instance, witness)

    monkeypatch.setattr(cli, "check_witness", spy)
    code, _, _ = run(
        capsys, "verify", "--instance", plurality_path, "--witness", str(w)
    )
    assert code == 1  # c is not the unique winner unbribed
    [(instance, witness)] = seen
    assert witness.n == instance.n == 3
    for p, q in zip(witness.prefs, instance.profile.prefs):
        assert p is q


def test_realize_wmg_cli(tmp_path, capsys):
    t = tmp_path / "t.wmg"
    t.write_text("core: a b\nspacing: 4\nmargin: a b 2\n")
    code, out, _ = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 0
    assert out.startswith("alternatives: a b ")
    assert "pref: " in out


@pytest.mark.parametrize(
    "text,line",
    [
        ("core: a b\nspacing: x\n", 2),
        ("core: a b\nspacing: 4\nfillers: 1.5\n", 3),
        ("core: a b\nspacing: 4\nmargin: a b two\n", 3),
    ],
)
def test_realize_wmg_bad_number_exit_2(tmp_path, capsys, text, line):
    t = tmp_path / "t.wmg"
    t.write_text(text)
    code, out, err = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}: ")


def test_realize_wmg_unknown_margin_alternative_exit_2(tmp_path, capsys):
    t = tmp_path / "t.wmg"
    t.write_text("core: a b\nspacing: 4\nmargin: a z 2\n")
    code, out, err = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 2
    assert out == ""
    assert err == (
        "error: line 3: margin references unknown core alternative 'z'\n"
    )


@pytest.mark.parametrize(
    "text,line,key,first",
    [
        ("core: a b\nspacing: 4\nmargin: a b 2\ncore: c d\n", 4, "core", 1),
        ("core: a b\nspacing: 4\nspacing: 6\n", 3, "spacing", 2),
        ("fillers: 30\ncore: a b\nspacing: 4\nfillers: 40\n", 4, "fillers",
         1),
    ],
)
def test_realize_wmg_repeated_header_exit_2(tmp_path, capsys, text, line, key,
                                            first):
    # Last-wins would blame a later margin line, or silently drop a value.
    t = tmp_path / "t.wmg"
    t.write_text(text)
    code, out, err = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: line {line}: repeated '{key}:' line (first on line {first})\n"
    )


def test_realize_wmg_core_name_clashing_with_filler_exit_2(tmp_path, capsys):
    # Fillers are named f0, f1, ...; this target needs 24 of them.
    t = tmp_path / "t.wmg"
    t.write_text("core: f0 b\nspacing: 4\nmargin: f0 b 2\n")
    code, out, err = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 2
    assert out == ""
    assert err == (
        "error: core alternative 'f0' clashes with the filler names "
        "f0..f23\n"
    )


def test_realize_wmg_core_name_with_separator_exit_2(tmp_path, capsys):
    # 'a>b' would be written into pref: lines that cannot be read back.
    t = tmp_path / "t.wmg"
    t.write_text("core: a>b c\nspacing: 4\n")
    code, out, err = run(capsys, "realize-wmg", "--target", str(t))
    assert code == 2
    assert out == ""
    assert err == "error: alternative name 'a>b' contains '>'\n"


def test_alternative_name_with_separator_exit_2(tmp_path, capsys):
    # Reported on the alternatives: line, not as an unknown name in a voter.
    p = tmp_path / "sep.elb"
    p.write_text(PLURALITY_FILE.replace("alternatives: a b c",
                                        "alternatives: a>b c d"))
    code, out, err = run(capsys, "winner", "--instance", str(p))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {p}: line 3: alternative name 'a>b' contains '>'\n"
    )


def test_repeated_alternatives_line_exit_2(tmp_path, capsys):
    # Last-wins would rename every alternative after the voters are read.
    p = tmp_path / "twice.elb"
    p.write_text(PLURALITY_FILE + "alternatives: x y z\n")
    code, out, err = run(capsys, "winner", "--instance", str(p))
    assert code == 2
    assert out == ""
    assert "line 9: repeated 'alternatives:' line (first on line 3)" in err


def test_unexpected_exception_exit_4(plurality_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "winners", boom)
    code, out, err = run(capsys, "winner", "--instance", plurality_path)
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_routing_error_exit_4(plurality_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "route_poly_solver", lambda instance: (cli.solve_veto, None)
    )
    code, out, err = run(capsys, "solve", "--instance", plurality_path)
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal routing error: ")


def test_solve_calls_the_solver_bound_in_cli(plurality_path, capsys, monkeypatch):
    # The bench's layer tracer wraps the solver names bound in cli, so the
    # routed solver must be called through them.
    calls = []
    real = cli.solve_plurality
    monkeypatch.setattr(
        cli, "solve_plurality", lambda inst: calls.append(inst) or real(inst)
    )
    assert run(capsys, "solve", "--instance", plurality_path)[0] == 0
    assert run(capsys, "dump-flow", "--instance", plurality_path)[0] == 0
    assert len(calls) == 2


def test_gen_gadget_determinism(tmp_path, cnf_path, capsys):
    a = str(tmp_path / "a.elb")
    b = str(tmp_path / "b.elb")
    for path in (a, b):
        run(
            capsys, "gen-gadget", "--reduction", "kapp-swap", "--cnf",
            cnf_path, "--delta-pad", "5", "--out", path,
        )
    assert open(a).read() == open(b).read()


# Routing-table spot checks at the API level (the exhaustive table-driven
# test is acceptance criterion 10).
def test_route_poly_solver():
    def inst(rule, metric, delta, priced=False):
        text = (
            f"rule: {rule}\nmetric: {metric}\nalternatives: a b c d\n"
            "target: a\n"
        )
        if priced:
            text += "budget: 2\n"
        prices = " price=1" if priced else ""
        text += f"voter: delta={delta}{prices} : a > b > c > d\n"
        return parse_instance(text)

    assert route_poly_solver(inst("plurality", "swap", 5, True))[0]
    assert route_poly_solver(inst("veto", "maxdisp", 9))[0]
    assert route_poly_solver(inst("kapproval 2", "swap", 1, True))[0]
    assert not route_poly_solver(inst("kapproval 2", "swap", 2))[0]
    assert route_poly_solver(inst("kapproval 2", "footrule", 3, True))[0]
    assert not route_poly_solver(inst("kapproval 2", "footrule", 4))[0]
    assert route_poly_solver(inst("kapproval 2", "maxdisp", 7))[0]
    assert not route_poly_solver(inst("kapproval 2", "maxdisp", 7, True))[0]
    assert route_poly_solver(inst("sbucklin", "maxdisp", 2))[0]
    assert not route_poly_solver(inst("borda", "swap", 1))[0]
    assert not route_poly_solver(inst("maximin", "maxdisp", 1))[0]
