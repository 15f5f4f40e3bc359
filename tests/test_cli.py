"""End-to-end checks of the command line driver.

Everything runs in-process through quatlat.cli.main so exit codes and
output bytes are exactly what a shell user would see.
"""

import argparse
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from quatlat import eichler_order
from quatlat.cli import _PARSER, ZBox, main, parse_factored, sample_points
from quatlat.errors import UsageError


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def write_order_file(path, lat):
    dens = [c.denominator for q in lat.basis_quats() for c in q.coords()]
    den = math.lcm(*dens)
    mat = [int(c * den) for q in lat.basis_quats() for c in q.coords()]
    path.write_text(json.dumps({"mat": mat, "den": den}))


def test_parse_factored_round_trip():
    assert parse_factored("1") == {}
    assert parse_factored("  ") == {}
    assert parse_factored("2^3*3") == {2: 3, 3: 1}
    assert parse_factored("2*2") == {2: 2}  # repeats accumulate
    with pytest.raises(UsageError):
        parse_factored("x^2")
    with pytest.raises(UsageError):
        parse_factored("0^2")
    with pytest.raises(UsageError):
        parse_factored("5^-1")
    # the level cap 2^800 holds after repeats accumulate
    assert parse_factored("2^400*2^400") == {2: 800}
    with pytest.raises(UsageError):
        parse_factored("2^400*2^401")


def test_exponent_prints_value_pow24_at_the_level_cap(tmp_path):
    # 3^504 is the largest power of 3 below 2^800, and microlocal's value^24
    # is its 16th power, the largest of any mode: 3,848 digits
    code, text = run_cli(["exponent", "--n", "3^504", "--mode", "microlocal"], tmp_path)
    assert code == 0
    assert f"value^24: {3**(16 * 504)}" in text


def test_sample_points_are_deterministic_and_in_box():
    box = ZBox(-0.5, 0.5, 0.8, 1.2)
    a = sample_points(box, 12, seed=7)
    b = sample_points(box, 12, seed=7)
    assert a == b
    c = sample_points(box, 12, seed=8)
    assert a != c
    for z in a:
        assert box.x_min <= z.x <= box.x_max
        assert box.y_min <= z.y <= box.y_max


def test_count_identical_across_thread_counts(tmp_path):
    outputs = []
    for threads in (1, 4, 8):
        code, text = run_cli(
            ["count", "--seed", "7", "--lmax", "6", "--threads", str(threads)],
            tmp_path,
            name=f"count{threads}.csv",
        )
        assert code == 0
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


def test_count_seed_changes_rows(tmp_path):
    _, a = run_cli(["count", "--seed", "1", "--lmax", "4"], tmp_path, "a.csv")
    _, b = run_cli(["count", "--seed", "1", "--lmax", "4"], tmp_path, "b.csv")
    _, c = run_cli(["count", "--seed", "2", "--lmax", "4"], tmp_path, "c.csv")
    assert a == b
    assert a != c


def test_count_csv_shape_and_bound_column(tmp_path):
    code, text = run_cli(["count", "--seed", "3", "--lmax", "6"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert len(meta) == 3 or len(meta) == 4
    header = lines[len(meta)]
    assert header.split(",")[0] == "run_id"
    rows = lines[len(meta) + 1 :]
    assert len(rows) == 4  # default sample count
    for row in rows:
        cells = row.split(",")
        assert cells[0].startswith("3-")
        total, bound = int(cells[12]), int(cells[13])
        assert 0 <= total <= bound
        assert float(cells[14]) == total / bound
        assert float(cells[15]) == 0.0  # no --timing, so wall time is blanked


def test_count_config_rationals_and_squares(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "algebra": {"p": 3, "q": -1},
                "delta": "1/2",
                "z_box": ["-1/4", "1/4", "9/10", "23/20"],
                "sweep": {"l_max": 5, "samples": 2, "seed": 11},
            }
        )
    )
    code, text = run_cli(["count", "--config", str(cfg), "--squares"], tmp_path)
    assert code == 0
    assert "seed=11 delta=0.5" in text
    assert "z_box=(-0.25,0.25,0.9,1.15)" in text
    rows = [l for l in text.splitlines() if not l.startswith(("#", "run_id"))]
    assert len(rows) == 2
    assert all(r.split(",")[7] == "1" for r in rows)  # squares_only flag column


def test_count_squares_only_takes_json_booleans(tmp_path):
    def count(sweep, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"l_max": 4, "samples": 1, **sweep}}))
        code, text = run_cli(["count", "--config", str(cfg), *flags], tmp_path)
        assert code == 0
        return [l for l in text.splitlines() if not l.startswith("#")]

    plain = count({})
    assert count({"squares_only": False}) == plain
    squares = count({}, "--squares")
    assert squares != plain
    assert count({"squares_only": True}) == squares


GOLDEN_COUNT = json.loads((Path(__file__).resolve().parent / "golden_count.json").read_text())


@pytest.mark.parametrize("label", sorted(GOLDEN_COUNT))
def test_count_on_non_diagonal_frames_matches_recorded_csv(tmp_path, label):
    # (3, -1)'s default frame matrix is 2 I; these maximal orders (the
    # default ones of three other algebras and (2 + J) O (2 + J)^-1 in
    # (3, -1)) have a non-diagonal one, so their CSVs depend on its inverse
    case = GOLDEN_COUNT[label]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(case["config"]))
    code, text = run_cli(["count", "--config", str(cfg), "--lmax", "4", "--seed", "3"], tmp_path)
    assert code == 0
    assert text == "\n".join(case["lines"]) + "\n"


def test_algebra_and_order_reports(tmp_path):
    code, text = run_cli(["algebra"], tmp_path)
    assert code == 0
    assert "algebra: (3, -1)" in text
    assert "ramified: [2, 3]" in text
    assert "discriminant: 6" in text

    code, text = run_cli(["order"], tmp_path)
    assert code == 0
    assert "level: 1" in text
    assert "is_order: True" in text
    assert "is_balanced: True" in text


def test_exponent_maingen_frozen_value(tmp_path):
    code, text = run_cli(
        ["exponent", "--n", "2^4*3^4", "--mode", "maingen"], tmp_path
    )
    assert code == 0
    assert "branch: N^(1/3)" in text
    assert "value^24: 7958661109946400884391936" in text
    assert str((2**4 * 3**4) ** 8) == "7958661109946400884391936"


def test_exponent_newform_mode(tmp_path):
    code, text = run_cli(
        ["exponent", "--n", "2^4", "--mode", "newform", "--m", "1"], tmp_path
    )
    assert code == 0
    assert "branch: C'^(-1/24) * lcm(M,C1)^(1/2)" in text
    assert f"value^24: {2**24}" in text


def test_amp_command_fixed_window(tmp_path):
    code, text = run_cli(["amp", "--lambda", "5"], tmp_path)
    assert code == 0
    assert "primes: (5, 7)" in text
    assert "y[1] = 4" in text
    assert "y[25] = " in text
    assert "y[1225] = " in text

    sat = tmp_path / "satake.json"
    sat.write_text(json.dumps({"5": "2", "7": "3/2"}))
    code, text = run_cli(
        ["amp", "--lambda", "5", "--satake", str(sat)], tmp_path, "amp2.txt"
    )
    assert code == 0
    assert "eigenvalue: " in text
    assert ">= |P|^2/8" in text


def test_coprime_from_file_with_comments(tmp_path):
    infile = tmp_path / "problems.txt"
    infile.write_text("# header comment\n\n0,1;6;2;10\n")
    code, text = run_cli(["coprime", "--in", str(infile)], tmp_path)
    assert code == 0
    assert text == "1 5\n"


def test_coprime_exit_3_names_what_ran_out(tmp_path, capsys):
    # c = 1 backtracks, so exit 3 means the bounded box holds no tuple;
    # c = 2 keeps the construction, whose failure is reported as such
    infile = tmp_path / "problems.txt"
    infile.write_text("3,15,13;72;1;1\n")
    assert run_cli(["coprime", "--in", str(infile)], tmp_path) == (0, "1,1\n")
    infile.write_text("3,15,13;72;2;1\n")
    capsys.readouterr()
    assert run_cli(["coprime", "--in", str(infile)], tmp_path)[0] == 3
    assert capsys.readouterr().err.startswith("construction failed: ")
    # 2 + p2 for p2 in [0, 1] is 2 or 3, never coprime to 6, whatever p1
    infile.write_text("2,0,1;6;1;1\n")
    assert run_cli(["coprime", "--in", str(infile)], tmp_path)[0] == 3
    assert capsys.readouterr().err.startswith("search exhausted: no tuple in [0, 1]^2")


def test_coprime_bad_line_is_usage_error(tmp_path):
    infile = tmp_path / "problems.txt"
    infile.write_text("0,1\n")
    code, _ = run_cli(["coprime", "--in", str(infile)], tmp_path)
    assert code == 1


def test_usage_errors_exit_1(tmp_path):
    code, _ = run_cli(["exponent", "--n", "x^2"], tmp_path)
    assert code == 1

    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _ = run_cli(["count", "--config", str(cfg)], tmp_path, "x.csv")
    assert code == 1

    cfg2 = tmp_path / "badbox.json"
    cfg2.write_text(json.dumps({"z_box": [0, 1, 2]}))
    code, _ = run_cli(["count", "--config", str(cfg2)], tmp_path, "y.csv")
    assert code == 1

    code, _ = run_cli(["count", "--threads", "0"], tmp_path, "z.csv")
    assert code == 1

    missing = tmp_path / "nowhere.json"
    code, _ = run_cli(["amp", "--lambda", "5", "--satake", str(missing)], tmp_path)
    assert code == 1
    code, _ = run_cli(["balance", "--order", str(missing)], tmp_path)
    assert code == 1
    code, _ = run_cli(["coprime", "--in", str(missing)], tmp_path)
    assert code == 1


def test_balance_round_trip_and_exhaustion(tmp_path, mo):
    lat = eichler_order(mo, 25)[0]
    order_file = tmp_path / "order25.json"
    write_order_file(order_file, lat)

    code, text = run_cli(
        ["balance", "--order", str(order_file), "--kmax", "2", "--height", "8"],
        tmp_path,
    )
    assert code == 0
    assert "(nrd 5)" in text
    assert "balanced: True" in text

    # a unit-height search cannot reach the norm-5 conjugator
    code, _ = run_cli(
        ["balance", "--order", str(order_file), "--kmax", "1", "--height", "1"],
        tmp_path,
        "bal2.txt",
    )
    assert code == 3


def test_out_file_is_only_written_on_success(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["exponent", "--n", "x^2", "--out", str(out)])
    assert code == 1
    assert not out.exists()


IDENTITY = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]

MALFORMED = [
    # (label, argv, config JSON or None)
    ("amp-lambda-not-rational", ["amp", "--lambda", "abc"], None),
    ("amp-lambda-zero-denominator", ["amp", "--lambda", "1/0"], None),
    # run time grows like lambda^2, so a window past the cap is refused at once
    ("amp-lambda-above-cap", ["amp", "--lambda", "3001"], None),
    ("amp-lambda-far-above-cap", ["amp", "--lambda", "1" + "0" * 400], None),
    ("lmax-not-integer", ["count"], {"sweep": {"l_max": "x"}}),
    ("lmax-fractional", ["count"], {"sweep": {"l_max": 2.5}}),
    ("lmax-boolean", ["count"], {"sweep": {"l_max": True}}),
    ("samples-not-integer", ["count"], {"sweep": {"samples": [2]}}),
    ("sweep-not-object", ["count"], {"sweep": 3}),
    ("algebra-short-list", ["algebra"], {"algebra": [3]}),
    ("algebra-entry-not-integer", ["algebra"], {"algebra": ["x", -1]}),
    ("algebra-missing-key", ["algebra"], {"algebra": {"p": 3}}),
    ("config-not-object", ["algebra"], [3, -1]),
    ("z-box-not-list", ["count"], {"z_box": "wide"}),
    ("delta-not-rational", ["count"], {"delta": "small"}),
    ("delta-nan", ["count", "--delta", "nan"], None),
    ("delta-inf", ["count", "--delta", "inf"], None),
    ("delta-beyond-float", ["count"], {"delta": "1e400"}),
    # finite, but the sweep's box would be far too large to walk
    ("delta-1e300", ["count", "--delta", "1e300"], None),
    ("delta-1e8-lmax-2", ["count", "--delta", "1e8", "--lmax", "2"], None),
    ("lmax-beyond-float", ["count", "--lmax", "1" + "0" * 400], None),
    ("order-mat-not-list", ["order"], {"order": {"mat": 7}}),
    # JSON booleans are not integers, and only a JSON boolean sets squares_only
    ("order-mat-boolean", ["order"], {"order": {"mat": [True] + [0] * 15}}),
    ("order-den-boolean", ["order"], {"order": {"mat": IDENTITY, "den": True}}),
    ("maximal-order-den-boolean", ["order"], {"maximal_order": {"mat": IDENTITY, "den": True}}),
    ("squares-only-string", ["count"], {"sweep": {"squares_only": "false"}}),
    ("squares-only-integer", ["count"], {"sweep": {"squares_only": 1}}),
    # flags the subcommand does not offer, and a --threads that is not positive
    ("exponent-lmax", ["exponent", "--n", "2^4", "--lmax", "3"], None),
    ("algebra-threads", ["algebra", "--threads", "2"], None),
    ("coprime-config", ["coprime", "--config", "x.json"], None),
    ("balance-threads-0", ["balance", "--threads", "0"], None),
    # the search's last box would hold about 1.3 * 10^16 slices
    ("balance-height-above-cap", ["balance", "--height", "100000"], None),
    ("count-threads-not-integer", ["count", "--threads", "two"], None),
    # printing value^24 of a level past the cap would exceed Python's
    # 4,300-digit limit on int to str, and 2^99999999 would take seconds
    ("exponent-level-2^20000", ["exponent", "--n", "2^20000"], None),
    ("exponent-level-2^99999999", ["exponent", "--n", "2^99999999"], None),
    ("exponent-microlocal-3^3000", ["exponent", "--n", "3^3000", "--mode", "microlocal"], None),
    # below 2^1000, yet its value^24 = 3^10080 has 4,810 digits
    ("exponent-microlocal-3^630", ["exponent", "--n", "3^630", "--mode", "microlocal"], None),
    ("exponent-newform-2^9000", ["exponent", "--n", "2^9000", "--m", "1", "--mode", "newform"],
     None),
    # an integer literal past Python's 4,300-digit limit; json.dumps refuses
    # to write one, so the config is raw text
    ("count-config-int-5000-digits", ["count"], '{"sweep": {"seed": ' + "9" * 5000 + "}}"),
    ("order-config-int-5000-digits", ["order"], '{"sweep": {"seed": ' + "9" * 5000 + "}}"),
]


@pytest.mark.parametrize(
    "argv,config", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_inputs_exit_1_without_traceback(tmp_path, capsys, argv, config):
    argv = list(argv)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not out.exists()


OPTIONS = {
    "algebra": {"--config", "--out"},
    "order": {"--config", "--out"},
    "count": {"--config", "--out", "--seed", "--threads", "--delta", "--lmax",
              "--squares", "--timing"},
    "balance": {"--config", "--out", "--threads", "--order", "--kmax", "--height"},
    "coprime": {"--in", "--out"},
    "amp": {"--config", "--out", "--lambda", "--satake"},
    "exponent": {"--out", "--n", "--mode", "--m"},
}


def test_each_subcommand_offers_only_the_options_it_reads():
    sub = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    offered = {
        name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert offered == OPTIONS


def test_balance_help_describes_its_search_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["balance", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, words in (
        ("--order", '{"den": d, "mat": [16 ints]}'),
        ("--kmax", "largest total exponent of a candidate conjugator norm"),
        ("--height", "heights 2, 4, 8, ... and finally at the cap"),
    ):
        assert flag in text and words in text


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    code = main(["exponent", "--n", "2^4", "--out", str(tmp_path / "missing" / "x.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_coprime_non_integer_line_is_usage_error(tmp_path):
    infile = tmp_path / "problems.txt"
    infile.write_text("a,b;6\n")
    code, _ = run_cli(["coprime", "--in", str(infile)], tmp_path)
    assert code == 1


def test_algebra_accepts_list_and_object_forms(tmp_path):
    texts = []
    for i, form in enumerate(([3, -1], {"p": 3, "q": -1})):
        cfg = tmp_path / f"alg{i}.json"
        cfg.write_text(json.dumps({"algebra": form}))
        code, text = run_cli(["algebra", "--config", str(cfg)], tmp_path, f"alg{i}.txt")
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]
    assert "algebra: (3, -1)" in texts[0]
