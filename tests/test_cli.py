"""Command line behavior: sources, outputs, exit codes."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from turancert import __version__
from turancert import certify as certify_module
from turancert import cli
from turancert.certify import certify_turan3, certify_u_window
from turancert.cli import COMMANDS, EXIT_ERROR, main
from turancert.sequences import TermTable

from oracles import argparse_reference, get, parse_outcome

SUPER_CRITICAL = "(n+2)^3*a(n+1) - ((n+2)^3+1)*a(n) = 0 ; a(0)=1"
HARMONIC = "(n+2)*a(n+2) - (2*n+3)*a(n+1) + (n+1)*a(n) = 0 ; 0, 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def u_bounds_calls(monkeypatch):
    """The order of every certify_u_bounds call, in call order."""
    calls = []
    original = certify_module.certify_u_bounds

    def counted(table, order):
        calls.append(order)
        return original(table, order)

    monkeypatch.setattr(certify_module, "certify_u_bounds", counted)
    return calls


class TestSources:
    def test_corpus_name(self, capsys):
        code, out, _ = run(capsys, "terms", "apery", "--to", "5")
        assert code == 0
        assert out.strip() == "1, 5, 73, 1445, 33001, 819005"

    def test_inline_text(self, capsys):
        code, out, _ = run(
            capsys, "terms", "(4*n+2)*a(n+1) - (n+2)*a(n) = 0 ; a(0)=1", "--to", "4"
        )
        assert code == 0
        assert out.strip() == "1, 1, 1/2, 1/5, 1/14"

    def test_text_file(self, capsys, tmp_path):
        p = tmp_path / "rec.txt"
        p.write_text("(n+4)*a(n+2) - (2*n+5)*a(n+1) - 3*(n+1)*a(n) = 0 ; a(0)=1, a(1)=1\n")
        code, out, _ = run(capsys, "terms", str(p), "--to", "6")
        assert code == 0
        assert out.strip() == "1, 1, 2, 4, 9, 21, 51"

    def test_json_file(self, capsys, tmp_path):
        doc = {
            "name": "fib",
            "coeffs": [["1"], ["1"], ["1"]],
            "initials": ["0", "1"],
        }
        p = tmp_path / "rec.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "terms", str(p), "--to", "8")
        assert code == 0
        assert out.strip() == "0, 1, 1, 2, 3, 5, 8, 13, 21"

    def test_operator_source(self, capsys):
        code, out, _ = run(
            capsys, "terms", "N^2 - N - 1 ; a(0)=0, a(1)=1", "--operator", "--to", "6"
        )
        assert code == 0
        assert out.strip() == "0, 1, 1, 2, 3, 5, 8"

    def test_bad_source(self, capsys):
        code, _, err = run(capsys, "terms", "garbage(", "--to", "3")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "doc, reason",
        [
            (5, "expected a JSON object"),
            (None, "expected a JSON object"),
            ({"text": 5}, "'text' is not a string"),
            ({"operator": ["N - 1"]}, "'operator' is not a string"),
            (
                {"text": "a(n+1) - 2*a(n) = 0 ; a(0)=1", "scaling": "factorail"},
                "unknown scaling 'factorail'",
            ),
            # a string where a list belongs is not read one character at a time
            ({"coeffs": [[1], [-2]], "initials": "37"}, "initials is not a list"),
            ({"coeffs": ["12", [-1]], "initials": [1]}, "coeffs[0] is not a list"),
            ({"coeffs": "12", "initials": [1]}, "coeffs is not a list"),
            # a boolean or a float is not an exact rational
            ({"coeffs": [[1], [-2]], "initials": [True]}, "initials[0] = true is not an integer or a rational string"),
            ({"coeffs": [[1], [-2]], "initials": [1.5]}, "initials[0] = 1.5 is not an integer or a rational string"),
            ({"coeffs": [[1], [-2, False]], "initials": [1]},
             "coeffs[1][1] = false is not an integer or a rational string"),
            ({"coeffs": [[1], [-2]], "initials": ["1/0"]},
             'initials[0] = "1/0" is not an integer or a rational string'),
            ({"coeffs": [[1], [-2]], "initials": [1], "name": 5}, "'name' is not a string"),
            ({"text": "a(n+1) - 2*a(n) = 0 ; a(0)=1", "name": ["x"]}, "'name' is not a string"),
            ({"initials": [1]}, "missing 'coeffs'"),
        ],
        ids=["number", "null", "text-not-a-string", "operator-not-a-string", "unknown-scaling",
             "initials-a-string", "coefficient-a-string", "coeffs-a-string", "bool-initial", "float-initial",
             "bool-coefficient", "zero-denominator", "name-a-number", "text-name-a-list", "no-coeffs"],
    )
    def test_malformed_json_document(self, capsys, tmp_path, doc, reason):
        p = tmp_path / "rec.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-turan3", str(p))
        assert (code, out) == (1, "")
        assert err.strip() == f"error: malformed recurrence document: {reason}"

    @pytest.mark.parametrize(
        "command", ["check-turan3", "certify", "terms", "ratio-asymp", "u-asymp", "check-llc"]
    )
    def test_leading_coefficient_root(self, capsys, tmp_path, command):
        # p0 = n - 3 vanishes where a(4) would be computed
        src = "(n-3)*a(n+1) - a(n) = 0 ; a(0)=1"
        extra = {
            "certify": ["-o", str(tmp_path / "c.json")],
            "terms": ["--to", "10"],
            "check-llc": ["--ell", "2"],
        }.get(command, [])
        code, out, err = run(capsys, command, src, *extra)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: leading coefficient vanishes at n=3; cannot advance"

    def test_leading_coefficient_root_under_integer_terms(self, capsys):
        # every step up to a(3) is an exact integer quotient; p0 = n - 3 then
        # vanishes before any term has been stepped in binary
        src = "(n-3)*a(n+1) - (n-3)*a(n) = 0 ; a(0)=1"
        assert run(capsys, "terms", src, "--to", "3") == (0, "1, 1, 1, 1\n", "")
        assert run(capsys, "terms", src, "--to", "10") == (
            1, "", "error: leading coefficient vanishes at n=3; cannot advance\n"
        )

    def test_first_failing_index_is_reported(self, capsys, tmp_path, digit_limit):
        # a(n) = 16^n passes 640 digits at n = 532, before p0 = n - 700
        # vanishes; --cache-dir steps every term before rendering any
        digit_limit(640)
        with pytest.raises(ValueError) as exc:
            str(10**640)
        src = "(n-700)*a(n+1) - 16*(n-700)*a(n) = 0 ; a(0)=1"
        assert run(capsys, "terms", src, "--to", "800") == (1, "", f"error: {exc.value}\n")
        assert run(capsys, "terms", src, "--to", "800", "--cache-dir", str(tmp_path)) == (
            1, "", "error: leading coefficient vanishes at n=700; cannot advance\n"
        )

    def test_cache_dir_is_written(self, capsys, tmp_path):
        code, _, _ = run(capsys, "terms", "motzkin", "--to", "200", "--cache-dir", str(tmp_path))
        assert code == 0
        assert len(TermTable(get("motzkin").recurrence, str(tmp_path))) == 201

    def test_cache_dir_is_written_past_the_digit_limit(self, capsys, tmp_path, digit_limit):
        digit_limit(640)
        with pytest.raises(ValueError) as exc:
            str(10**640)
        argv = ["terms", "apery", "--to", "600", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv) == (1, "", f"error: {exc.value}\n")
        assert len(TermTable(get("apery").recurrence, str(tmp_path))) == 601


# sha256 of the stdout of `terms NAME --to 1500 [--json]`, recorded while
# every term was rendered by str(Fraction)
TERMS_SHA256 = {
    ("apery", False): "f918c3a36710857abe1fea4116684b18eaa6d04469060922487c1122bb6bb71f",
    ("apery", True): "67d3dd458f722e2305151098effc07e6a13dfc16dd1fc16ea82f5707e7fb3f2f",
    ("binomial4", False): "9de57497031ac2279b29dd650084a963dd076594d925d22edea77916d8eaef9b",
    ("binomial4", True): "5ca216f37ce3579cb4ba614aa99e438d37fee929f6f0590ed992a13dcb205cf0",
    ("bn", False): "e578c608f33b1feee6af092b76ecef0fee3c65bab342e8e8922f4274a7103749",
    ("bn", True): "9978ef516c160b6bd06cd979dd573a4e44cd982e72cac401b7009c573169fa77",
    ("domb", False): "5a46b306174b336b8b2df7ad676e33e140f913ab1afeb2e0c6e81ef22f2e79d5",
    ("domb", True): "2c1d90d13be65ef51b99ec2e7f6e0c729f467f47836115a7e0c209fbbc68eb15",
    ("fine", False): "89b6c79695eb227d10c0464ccd145aae48d04652f1862116d0d6af3fbddbb4e7",
    ("fine", True): "e24ff54852d95dc8c06ed5fe686ddc53ae5e583239b8159f74fdcb74b93575c6",
    ("franel3", False): "d20958264ee4aa826d513cc9d000caaf940b1799602340edb5f54371cda96972",
    ("franel3", True): "0eca8bc33be3fec372bc74212b48e22e117bbc5c9a58bd163e164a6849a74b12",
    ("inverse-catalan", False): "2890e5cd5832eb6aaf02b1acde4cd8193c7c538b38571900c8531e43c12106df",
    ("inverse-catalan", True): "189e532ef59b7a1611dbcd0fea386127ffcc7d9971c92dd39ac2ef9c2c0b642e",
    ("involutions", False): "13b2503b334e54647782af17a05b5a5f17088e2a1855778207ab2c8062a3c666",
    ("involutions", True): "05df5d72292510d38f4278f799588662ea131306c9d5bc0b6316b2ce2ead6d40",
    ("motzkin", False): "20790bf449ffe468895d420a75a62ef6572c4baa1ed7220edf642647f1b8b4f1",
    ("motzkin", True): "4547d02963710d92be7de38766fbd6899ef08ab1015629e40b1df81352011cd6",
}


@pytest.fixture
def digit_limit():
    """Set CPython's int-to-str digit limit for one test, then restore it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


class TestTermsOutput:
    @pytest.mark.parametrize("name, json_flag", sorted(TERMS_SHA256))
    def test_corpus_terms_stdout(self, capsys, name, json_flag):
        code, out, err = run(capsys, "terms", name, "--to", "1500", *(["--json"] if json_flag else []))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == TERMS_SHA256[name, json_flag]

    def test_zero_terms_render_unsigned(self, capsys):
        # a(n+1) = -n*a(n): from a(2) on, each step multiplies a zero by -n < 0
        src = "a(n+1) + n*a(n) = 0 ; a(0)=1"
        assert run(capsys, "terms", src, "--to", "8") == (0, "1" + ", 0" * 8 + "\n", "")
        code, out, _ = run(capsys, "terms", src, "--to", "8", "--json")
        assert code == 0 and json.loads(out)["terms"] == ["1"] + ["0"] * 8

    @pytest.mark.parametrize("name", ["apery", "involutions"])
    @pytest.mark.parametrize("json_flag", [False, True])
    def test_digit_limit_error(self, capsys, digit_limit, name, json_flag):
        digit_limit(4300)  # CPython's default
        with pytest.raises(ValueError) as exc:
            str(10**4300)
        argv = ["terms", name, "--to", "3000", *(["--json"] if json_flag else [])]
        assert run(capsys, *argv) == (1, "", f"error: {exc.value}\n")

    def test_lifted_digit_limit_renders_as_str(self, capsys, digit_limit):
        digit_limit(0)
        code, out, err = run(capsys, "terms", "apery", "--to", "3500", "--json")
        terms = [str(v) for v in TermTable(get("apery").recurrence).values(0, 3500)]
        assert len(terms[-1]) > 4300
        assert (code, err) == (0, "")
        assert out == json.dumps({"name": "apery", "to": 3500, "terms": terms}, indent=2) + "\n"

    def test_lifted_digit_limit_renders_rational_terms_as_str(self, capsys, digit_limit):
        digit_limit(0)
        code, out, err = run(capsys, "terms", "involutions", "--to", "3000", "--json")
        terms = [str(v) for v in TermTable(get("involutions").recurrence).values(0, 3000)]
        assert len(terms[-1].split("/")[1]) > 4300
        assert (code, err) == (0, "")
        assert out == json.dumps({"name": "involutions", "to": 3000, "terms": terms}, indent=2) + "\n"


# sha256 of the stdout of `COMMAND NAME -K k --json`, recorded before the
# stage solver moved from per-stage residual builds to coefficient arrays
ASYMP_SHA256 = {
    ("u-asymp", "apery", 4): "ce46abcf7ab5493ef0d2d306b6f69b06cc9f7d76b82e730ec73b4cc0ce4dda97",
    ("u-asymp", "binomial4", 4): "2b8cb2b143a54edf846b500c41a454bcf3130b9c3fa30f1d6106c2ca10b0ea58",
    ("u-asymp", "bn", 4): "3069232ec86550195df4446c1a7bb0e8e26ffbe63498b67da4eaf8a7545a3d10",
    ("u-asymp", "domb", 4): "d261519626e308676a36760c576c5b0d80619e56cb5256c7f81d1859319f05cd",
    ("u-asymp", "fine", 4): "863e3488ea6313a30e82dbd63ac57ed540c44c4ad4ac4e08e7446a1a79d2c8c3",
    ("u-asymp", "franel3", 4): "93c2246351be3b8800b318807044c7586cdc148560b07f04e8ae5e15f8207612",
    ("u-asymp", "inverse-catalan", 4): "0527fb41ce205459e6f9ac2037941d2cbda172521724817dac38b9088ce8955e",
    ("u-asymp", "involutions", 4): "6b8c52456ae6fbd3bc40bd0abbf0a796ebc38bd1743106c9beb7a66fa230dd00",
    ("u-asymp", "motzkin", 4): "d1e31f985f2433598ea4a0b841c60e0de413c96c7f3a2d600da55f321063c66a",
    ("u-asymp", "apery", 8): "7e6d0b57a8730a7ffa5f46a4a261abf6759fdd060914415e0ff517f682635d72",
    ("u-asymp", "binomial4", 8): "93f7edb0d84fcf48ece6a7935cf6536a411f0ed4226611ea1b1f4d6756c2bd7e",
    ("u-asymp", "bn", 8): "f200fdaaf74006f2e31d306375a2e5edf97c03a51e31641fcefe09f1a4ec9125",
    ("u-asymp", "domb", 8): "a7812c4a3e9bf381a3eed2f3cef4e0ae99a2716ed2c9f72bec6b7775a9d97f98",
    ("u-asymp", "fine", 8): "4fd70aff489d6762bfa1bd7764c79883bfb440d0937272dd017f44cceacfe999",
    ("u-asymp", "franel3", 8): "e08906f3dc145c8ef67ce1c0d9e828223ff633521a1e5d31565f58948d3e4938",
    ("u-asymp", "inverse-catalan", 8): "b1bec377181c0519f6dd3f5987cfef6231b418c822a28925232f61aa02095be6",
    ("u-asymp", "involutions", 8): "9c9f97c7c52d66b93312ed1d6cd09868bf9c12c1c8f1e6f8b49ecfdff4b5aa4a",
    ("u-asymp", "motzkin", 8): "743ea626c9d6954213bb17997d5887f741f00590acce074721bb41c7c6e8749d",
    ("u-asymp", "apery", 12): "449837238f5aae595caef3f49a508a3d04875252eb5aa792d749d56f8eb4be31",
    ("u-asymp", "binomial4", 12): "eb10fd1b876b6507ef6230c21dee903f4057b3f78c5657c5cb096b581181b843",
    ("u-asymp", "bn", 12): "dac144a9c56c234b3af7cf2259e8ddc9724f1e7936dc06be69b63f623a4f4b9c",
    ("u-asymp", "domb", 12): "3cda25b33f25472ad7f5ff4dfb852a30908e71505ce901b4f7da04e858aae8be",
    ("u-asymp", "fine", 12): "36d075792f9ed33bc5c1d0eab4c87e40acd94c281b6591ce4c15380fdb047dcf",
    ("u-asymp", "franel3", 12): "e669e20abdd48f20e19ed9fd6bb68ec804043b65b2f7146f92cd014eb1089059",
    ("u-asymp", "inverse-catalan", 12): "b97cc990bfb5d159a04e8150df14dafa954a56bc9723f69f1bffae95805a5a51",
    ("u-asymp", "involutions", 12): "0804007502c583d2bede461e3afafc4b7bda609c5907964bb29249fa098a2b69",
    ("u-asymp", "motzkin", 12): "9a78465947ee3dfe0e7f5350a5fe9fab49b279489f49202c0826500990c4fe5c",
    ("ratio-asymp", "apery", 4): "aadcbd34e4620dda2bfd50a5cdfeac8e3bda84d269c94092e873c8dde8c25662",
    ("ratio-asymp", "binomial4", 4): "92157dc10551c9f94a5e017b6441c2bc5254144a72c87e87ec75f1dd1bf55d20",
    ("ratio-asymp", "bn", 4): "0d228814a214798f2b9bf45b89099c60a413e11c22f786faa4bd11d65a49e3fa",
    ("ratio-asymp", "domb", 4): "5675a0d67c508d8ff233ae58562073a4acf49a1471683a085d7a2b43587a632b",
    ("ratio-asymp", "fine", 4): "5b7c49a054e6b99a7e98e1b22628f722ae0e9c71898fad1ad4b4ad3b32716331",
    ("ratio-asymp", "franel3", 4): "7204a859498779e9628363554597a228dab0d637a3204638f25fe90a374b7cfc",
    ("ratio-asymp", "inverse-catalan", 4): "868b95e603f97e9b765b132e9cd7d8560c0e73c194aa2d567d16f51caebd7048",
    ("ratio-asymp", "involutions", 4): "14977a965d36733719b22a6312cd41f334d2ef20b099d524e16089467878fd4b",
    ("ratio-asymp", "motzkin", 4): "b5a58a1dc8e9749cd913285dd14503acaa80572e31d732b0290bac360be9c027",
    ("ratio-asymp", "apery", 8): "c64328858126353ae34f8989a5f1167a329d3e8bb0184c4da240604a767e2891",
    ("ratio-asymp", "binomial4", 8): "0e951aa29c838398b052a228b2ae2e19cc7fcde237a1e305bc0001bcb4d3ead2",
    ("ratio-asymp", "bn", 8): "b74914ddf54e9a9c21bb6b8b2dce492fd8a2bc065d762ec855d2de23c70242dc",
    ("ratio-asymp", "domb", 8): "b33fd36f47e058382b03d57780aa49e4f05aeeba184e0b1e2ea3b9ee9a0cedb5",
    ("ratio-asymp", "fine", 8): "265edc2767d7c2cf324073ea0576dd2293318145166829da2e81e9a961bc57cd",
    ("ratio-asymp", "franel3", 8): "e9511143d73051915cf2271a6f9f4c6527d44ff7f65e6af6694fdce643c9ca59",
    ("ratio-asymp", "inverse-catalan", 8): "2dff20a26bc3af0356d80accfe8f196b26f522ddbb83294baf36aa9cd2084a8e",
    ("ratio-asymp", "involutions", 8): "ccde23e9c7d46380bd53ee0bb43b6662a8156273fb3b277473201fce921b9edd",
    ("ratio-asymp", "motzkin", 8): "41608ffa879979f647ce745056ed9cdbdf02c5c4f3658b0e75acea1c9665ed4b",
    ("ratio-asymp", "apery", 12): "041f7712c7ac66a8222d6ceda8d1d0a36f4ccebc61bd3d658ab64c04b4e30d78",
    ("ratio-asymp", "binomial4", 12): "8302fcd8d7408f46290b7a8c84666e1d9b0129471deb3093cffe2482d31b7af9",
    ("ratio-asymp", "bn", 12): "a7d0deb1cd7e2f437e321a281fc58e1a950e38c5fe3d85bf63ce555f5ecd431e",
    ("ratio-asymp", "domb", 12): "9fb71e78b29d8911d333f1383a5e607e059982c92337f228aef624bc317622f7",
    ("ratio-asymp", "fine", 12): "2fb8e5d06a165d899fcf46ae20c03836d4eaee63fd6974630eef22591231291e",
    ("ratio-asymp", "franel3", 12): "57b7894f954be62cdc62c56831911ef38ffe8cc250182d157ad3fe76f544b1da",
    ("ratio-asymp", "inverse-catalan", 12): "e3038912ee18cc6d72713bf4288bb09db388eb6da85a78bdab0897d64e13793a",
    ("ratio-asymp", "involutions", 12): "8765022ae30d1e2b1c88779dc39953c5c158dc42ef2af9ebb140480e2aa825cf",
    ("ratio-asymp", "motzkin", 12): "1afcfa9ad7c5fd351a781747e5f1955fe1f4013c19e7753d67185e1523cfd91e",
}


class TestAsymptotics:
    def test_u_asymp_series(self, capsys):
        code, out, _ = run(capsys, "u-asymp", "inverse-catalan", "-K", "5")
        assert code == 0
        assert "1 - 3/2*n^-2 + 9/4*n^-3 - 21/8*n^-4" in out

    def test_u_asymp_json(self, capsys):
        code, out, _ = run(capsys, "--json", "u-asymp", "involutions", "-K", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaling"] == "none"
        exps = {t["exponent"]: t["coefficient"] for t in doc["series"]["terms"]}
        assert exps["1"] == {"num": ["-1"], "den": ["2"]}
        assert exps["3/2"] == {"num": ["-1"], "den": ["4"]}
        assert exps["2"] == {"num": ["5"], "den": ["8"]}

    def test_remainder_prints_big_o(self, capsys):
        # the term at the error order is dropped, not known to vanish:
        # -K 3 shows it, so the remainder of -K 2 is O(n^-3), not o(n^-3)
        code, out, _ = run(capsys, "ratio-asymp", "motzkin", "-K", "2")
        assert code == 0
        assert out.splitlines()[-1] == "v(n) = 1 - 3/2*n^-1 + 69/16*n^-2 + O(n^-3)"
        code, out, _ = run(capsys, "ratio-asymp", "motzkin", "-K", "3")
        assert out.splitlines()[-1].endswith(" - 51/4*n^-3 + O(n^-4)")

    def test_ratio_asymp_rational_growth(self, capsys):
        code, out, _ = run(capsys, "ratio-asymp", "motzkin", "-K", "3")
        assert code == 0
        assert "lambda = 3" in out

    def test_ratio_asymp_algebraic_growth(self, capsys):
        code, out, _ = run(capsys, "ratio-asymp", "bn", "-K", "3")
        assert code == 0
        assert "root of x^2 - 6*x + 1" in out

    def test_ratio_asymp_huge_discriminant(self, capsys):
        # the discriminant 10^400 - 4 is far past the float range
        src = "a(n+2) - 10^200*a(n+1) + a(n) = 0 ; a(0)=1, a(1)=1"
        code, out, err = run(capsys, "ratio-asymp", src, "-K", "2")
        assert (code, err) == (0, "")
        assert f"root of x^2 - 1{'0' * 200}*x + 1" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("lambda in ["))
        assert line.endswith("lambda ~ 1e+200")
        lo, hi = (F(x) for x in line[len("lambda in ["):line.index("]")].split(", "))
        code, out, _ = run(capsys, "--json", "ratio-asymp", src, "-K", "2")
        growth = json.loads(out)["growth"]
        assert [F(x) for x in growth["lambdaInterval"]] == [lo, hi]
        assert growth["lambdaApprox"] == 1e200
        minpoly = [F(c) for c in growth["lambdaMinimalPolynomial"]]

        def p(x):
            return sum(c * x**k for k, c in enumerate(minpoly))

        assert lo < hi and p(lo) * p(hi) < 0

    def test_ratio_asymp_prints_the_isolating_factor(self, capsys):
        # lambda = 2 + sqrt(3) has minimal polynomial x^2 - 4x + 1, which
        # divides the printed quartic: the edge polynomial is not factored over Q
        src = "a(n+4) - 4*a(n+3) + 2*a(n+2) - 4*a(n+1) + a(n) = 0 ; 1, 4, 15, 56"
        code, out, err = run(capsys, "ratio-asymp", src, "-K", "3")
        assert (code, err) == (0, "")
        assert "(root of x^4 - 4*x^3 + 2*x^2 - 4*x + 1), lambda ~ 3.73205" in out
        code, out, err = run(capsys, "--json", "ratio-asymp", src, "-K", "3")
        assert (code, err) == (0, "")
        growth = json.loads(out)["growth"]
        assert growth == {
            "lambdaApprox": 3.732050807568877,
            "mu": "0",
            "rho": 1,
            "lambdaMinimalPolynomial": ["1", "-4", "2", "-4", "1"],
            "lambdaInterval": ["2100957828286869/562949953421312", "16807662626294955/4503599627370496"],
        }
        lo, hi = (F(x) for x in growth["lambdaInterval"])
        assert 2 < lo and (lo - 2) ** 2 < 3 < (hi - 2) ** 2

    def test_expansion_error_details_under_json(self, capsys):
        # a(n+1) = -a(n): the edge polynomial x + 1 has no positive root
        src = "a(n+1) + a(n) = 0 ; a(0)=1"
        code, out, err = run(capsys, "--json", "ratio-asymp", src)
        assert code == 1
        assert err.startswith("error: edge polynomial has no positive real root")
        assert err.count("\n") == 1
        doc = json.loads(out)
        assert doc["error"] == err[len("error: "):].strip()
        assert doc["details"]["edgePolynomial"] == ["1", "1"]
        assert doc["details"]["branches"] == []
        code, out, err2 = run(capsys, "ratio-asymp", src)
        assert (code, out, err2) == (1, "", err)

    @pytest.mark.parametrize("command, name, K", sorted(ASYMP_SHA256))
    def test_expansion_bytes(self, capsys, command, name, K):
        code, out, err = run(capsys, command, name, "-K", str(K), "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ASYMP_SHA256[command, name, K]

    # The benchmark's `deep` workload runs these expansions, each in a process
    # that has expanded nothing before, so no root refinement is inherited.
    @pytest.mark.parametrize("name", ["apery", "bn", "involutions"])
    def test_expansion_bytes_in_a_fresh_process(self, name):
        proc = subprocess.run(
            [sys.executable, "-m", "turancert.cli", "u-asymp", name, "-K", "12", "--json"],
            capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == ASYMP_SHA256["u-asymp", name, 12]


# sha256 of the exit code, a newline and the stdout of `check-turan3 NAME
# --json` (ell None) and `check-llc NAME --ell L --json`, recorded before the
# criteria read the u-series directly; the entry's own scaling runs without
# --scale, the other one with it
VERDICT_SHA256 = {
    ("check-turan3", "apery", None, "none"): "84698cb3d49e48155492bdbad8bf5803f4bd1a70edaf6168c09a58b4849da5b9",
    ("check-llc", "apery", 1, "none"): "6ea5255402ef9f4c6319f06c3b13bb96bc99f3849b9678f9e876fdfd5ea07fdb",
    ("check-llc", "apery", 2, "none"): "6ea5255402ef9f4c6319f06c3b13bb96bc99f3849b9678f9e876fdfd5ea07fdb",
    ("check-llc", "apery", 3, "none"): "6ea5255402ef9f4c6319f06c3b13bb96bc99f3849b9678f9e876fdfd5ea07fdb",
    ("check-turan3", "apery", None, "factorial"): "cbe5b43e57bdc0694960bcabab861e8d44c7389327c8ae1b73d4963369e3942f",
    ("check-llc", "apery", 1, "factorial"): "cbb21716cf278cfa8597e509a2c48490c2f5c053667aae43847a11b9b4b0ec01",
    ("check-llc", "apery", 2, "factorial"): "c930145cdc874d545ee75325a612556d58e05b8ccd12f69250193a9a986c5ad6",
    ("check-llc", "apery", 3, "factorial"): "c3e2f153e7c22c601951c645c4cde07a8af1f8350a48fcb680af11465b7cd146",
    ("check-turan3", "binomial4", None, "none"): "ced4a13621c7817cc47dda4897a00658e3073c09a791fc0763873af9bb2d4aee",
    ("check-llc", "binomial4", 1, "none"): "405b918ebd0aab53b238392f3f5c7a6be0f0302625fa83600330657fd6e6597b",
    ("check-llc", "binomial4", 2, "none"): "405b918ebd0aab53b238392f3f5c7a6be0f0302625fa83600330657fd6e6597b",
    ("check-llc", "binomial4", 3, "none"): "405b918ebd0aab53b238392f3f5c7a6be0f0302625fa83600330657fd6e6597b",
    ("check-turan3", "binomial4", None, "factorial"): "d7cb2133c8695f3e31766cef1c6d21397f58b2c58f7dd3d0ded3f64e16fea83c",
    ("check-llc", "binomial4", 1, "factorial"): "5789f17bbba8cffbdbe1afd8c1ef66e6f32b08289aae31e6a3484c3d51b78582",
    ("check-llc", "binomial4", 2, "factorial"): "6cb03b86578534cafe38eb567d2f52bc2b3f99c2bd141c32acc352b1533e8372",
    ("check-llc", "binomial4", 3, "factorial"): "3a210a2282b8be552d7cabc670900ca2a5ddf9f144721528c072a179b57df212",
    ("check-turan3", "bn", None, "none"): "7455983b5b80c84c6f210768a586825ab555d8821b24b5a42b31fa8ce48295b7",
    ("check-llc", "bn", 1, "none"): "81ca72e95af99221e9a73e8e2427fc3584215060ecd881852135e97bf3bd634c",
    ("check-llc", "bn", 2, "none"): "81ca72e95af99221e9a73e8e2427fc3584215060ecd881852135e97bf3bd634c",
    ("check-llc", "bn", 3, "none"): "81ca72e95af99221e9a73e8e2427fc3584215060ecd881852135e97bf3bd634c",
    ("check-turan3", "bn", None, "factorial"): "c1395c908dc9921dc904c15455af7188608edde85f56e1d778ce103d097a0072",
    ("check-llc", "bn", 1, "factorial"): "49fb537151e9ba0e8b540d52a1bb7a1030ca335b3e524d1692b30018bf20e33c",
    ("check-llc", "bn", 2, "factorial"): "1ab3e9bddc74cf851880601a733fdf04551195797ca15e44cea9edbde13d375a",
    ("check-llc", "bn", 3, "factorial"): "d72212895ef0160ce05e3d38daa5a1e264ab653674adf1229eccfcfd21e604b4",
    ("check-turan3", "domb", None, "none"): "b646f2694c6a4402c80d2ca81699f6acf80ed6d6c8a0557691302ff49734304c",
    ("check-llc", "domb", 1, "none"): "62eb8dbf0f5e81100ab24fe79c507e0a68dd0ee4f0e4135d9af91c94130a2d41",
    ("check-llc", "domb", 2, "none"): "62eb8dbf0f5e81100ab24fe79c507e0a68dd0ee4f0e4135d9af91c94130a2d41",
    ("check-llc", "domb", 3, "none"): "62eb8dbf0f5e81100ab24fe79c507e0a68dd0ee4f0e4135d9af91c94130a2d41",
    ("check-turan3", "domb", None, "factorial"): "4ad8a3a3e42f42559847fff18b2e61a7da3faf7809333101a19ed6754e070d36",
    ("check-llc", "domb", 1, "factorial"): "11875e84b0189a8798751c38444617a68aa4973c3644323403fefb8ba1e43399",
    ("check-llc", "domb", 2, "factorial"): "9884085490c626c88b53c4b8296aa6f1489a787efe2cbdd79e9beb2859096283",
    ("check-llc", "domb", 3, "factorial"): "0eb2419e73c1728b697f04a739ce4f7037fba420d1deae8c8ce6f7c91356f3b5",
    ("check-turan3", "fine", None, "none"): "0d24d5042afa77da8c30201b9a019a56afc2ac1f6548080d15bffcdf4e734a2c",
    ("check-llc", "fine", 1, "none"): "eccbf2147194f1dc64a22510992b144d9cf1c1fbaff15d324a0afa67cbe0fa7f",
    ("check-llc", "fine", 2, "none"): "eccbf2147194f1dc64a22510992b144d9cf1c1fbaff15d324a0afa67cbe0fa7f",
    ("check-llc", "fine", 3, "none"): "eccbf2147194f1dc64a22510992b144d9cf1c1fbaff15d324a0afa67cbe0fa7f",
    ("check-turan3", "fine", None, "factorial"): "1d0f0d455ff20a4db019232059685b3a20d003568f296fcf17bb01b00c90a9d9",
    ("check-llc", "fine", 1, "factorial"): "4a8556c6493cad5ea41516d87d767250d05d5a78373a134f60eda23ce5b7fc34",
    ("check-llc", "fine", 2, "factorial"): "51561049f9834a8089efe293ffad159fd8ec7bab6938e66d90db09775a59ab9c",
    ("check-llc", "fine", 3, "factorial"): "8c9d43ab7f8adf7b969572ceb20c46bd5e40196bc693615d8de1696d9368c623",
    ("check-turan3", "franel3", None, "none"): "302ebdd9ec0782dbbf073cc32695004c6e7c64eb0b6430e43205928527c4e96a",
    ("check-llc", "franel3", 1, "none"): "96bc19492a604211c57443fb9d9338dcd2f51c094d6929c6e4f555dbf29bb9ca",
    ("check-llc", "franel3", 2, "none"): "96bc19492a604211c57443fb9d9338dcd2f51c094d6929c6e4f555dbf29bb9ca",
    ("check-llc", "franel3", 3, "none"): "96bc19492a604211c57443fb9d9338dcd2f51c094d6929c6e4f555dbf29bb9ca",
    ("check-turan3", "franel3", None, "factorial"): "05eb8d7e5ed199fdd83492ee01e220ab7df64e37cf7806fa183bd8508c4b902f",
    ("check-llc", "franel3", 1, "factorial"): "9bd0bea9e4779e9f5ef8b9b4cd9110a13be269466fa704ff87a361ab0572a048",
    ("check-llc", "franel3", 2, "factorial"): "2c0d3af91d6900bd09e2a6c6c542d34d7474a2fad163a47a44f11507d22fc36f",
    ("check-llc", "franel3", 3, "factorial"): "987dd06d3130a3eabd66b2804c0d363076d2ef9c6c29af7817dbfb92e601d84f",
    ("check-turan3", "inverse-catalan", None, "none"): "caf6d1c525c265b59e89dff0bb7b0de112c65c9a24e20ae36d3bad8618b7895e",
    ("check-llc", "inverse-catalan", 1, "none"): "2a77513140012c343389c01510ac6e4fad317da284b8e1d34d8ad224383bb007",
    ("check-llc", "inverse-catalan", 2, "none"): "cecfe2927f907db9ceb0234664698198793c888f8540c2af5f6ba18c75c01177",
    ("check-llc", "inverse-catalan", 3, "none"): "f48d281bc57e6ea3c3ee8462a3827458247f6fc109b71493beb62783e36b3785",
    ("check-turan3", "inverse-catalan", None, "factorial"): "17133faaedfb8523c0f5366b6925e3486f26678d74217ef3c792f64ba4f6694b",
    ("check-llc", "inverse-catalan", 1, "factorial"): "c480517a7c07053af4266f263ac6824c058d69757bd42be72cc2339f2d1f11d3",
    ("check-llc", "inverse-catalan", 2, "factorial"): "0c3bac7c99a483d12e8ebb7c0122c4ff5333db9d99a2f08256017a583f5fc020",
    ("check-llc", "inverse-catalan", 3, "factorial"): "9b4a9f720a2566d3c89934b441da98ecf6b9fb7bc1afec8909a81c56137d386f",
    ("check-turan3", "involutions", None, "none"): "775e645b3c8e9023a5daff46050ebbff401e60b04a78c678487377d7afe425d4",
    ("check-llc", "involutions", 1, "none"): "c3c9826b25183e449d48fa8d77e726ea41285eb3151bfdd71c07df354a86aab7",
    ("check-llc", "involutions", 2, "none"): "7866e56c8d2495a4ad4d2760ea9cae4c552c84d7006f9c5667b4c81c943fef9f",
    ("check-llc", "involutions", 3, "none"): "1e64231ccb0b6f83dd133959614399d1d207cd2213de84653e6d75f5bbf19365",
    ("check-turan3", "involutions", None, "factorial"): "07aa934d0010c5adadd8efd31f7ac736260950758853341d608799bd445c8ad8",
    ("check-llc", "involutions", 1, "factorial"): "3ca2653da8ea4b1012888577c813d6ce70ec288969deae142cb68179b3c94e0e",
    ("check-llc", "involutions", 2, "factorial"): "b174f33c90dd5ad1e7836737482969e0dc5628e4ee088c1f2663916d11cee807",
    ("check-llc", "involutions", 3, "factorial"): "711514e8470018c0c17c308b042c21cc36e95d1b05df5f365090fc22d5df175a",
    ("check-turan3", "motzkin", None, "none"): "d21a4c1a9e37a9ce898cd1bb707d1d9de662d3ebfb7ca189d471aafd10f7ba65",
    ("check-llc", "motzkin", 1, "none"): "f494d2b2d63c152d050194d873fdade24c2907ef8dabcf0302a52c8951386892",
    ("check-llc", "motzkin", 2, "none"): "f494d2b2d63c152d050194d873fdade24c2907ef8dabcf0302a52c8951386892",
    ("check-llc", "motzkin", 3, "none"): "f494d2b2d63c152d050194d873fdade24c2907ef8dabcf0302a52c8951386892",
    ("check-turan3", "motzkin", None, "factorial"): "e36095de4ca8b1876f70e3b5a6dd30cd6069eab3c70eda7e15e75928edec93a7",
    ("check-llc", "motzkin", 1, "factorial"): "731f5b2751b67cf1fe8a501e9f2651a06696081e9b53eaffe0d3f02e9ffafb7c",
    ("check-llc", "motzkin", 2, "factorial"): "bd26897cb3da7b65ebc990f1a693db7e02007e3e370f888cc780d8901a6471ea",
    ("check-llc", "motzkin", 3, "factorial"): "40c1bfb48eaa9f4623e462e06449652824c38ada0740f13e3a9da2efa5ab9c9e",
}


class TestVerdictCommands:
    def test_holds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check-turan3", "motzkin")
        assert code == 0
        assert "verdict: holds" in out

    def test_fails_exit_three(self, capsys):
        code, out, _ = run(capsys, "check-turan3", "binomial4")
        assert code == 3
        assert "verdict: fails" in out

    def test_inconclusive_exit_two(self, capsys):
        code, out, _ = run(capsys, "check-turan3", SUPER_CRITICAL)
        assert code == 2
        assert "verdict: inconclusive" in out

    def test_scale_flag(self, capsys):
        code, out, _ = run(capsys, "check-turan3", "binomial4", "--scale", "n!")
        assert code == 0
        assert "verdict: holds" in out

    def test_llc(self, capsys):
        code, out, _ = run(capsys, "check-llc", "inverse-catalan", "--ell", "2")
        assert code == 0
        assert "verdict: holds" in out

    def test_max_k_caps_retries(self, capsys):
        code, out, _ = run(
            capsys, "--json", "check-llc", "inverse-catalan", "--ell", "3", "--max-K", "4"
        )
        assert code == 2
        assert json.loads(out)["rule"] == "llc.insufficient-order"

    def test_max_k_default_reaches_boundary(self, capsys):
        code, out, _ = run(capsys, "--json", "check-llc", "inverse-catalan", "--ell", "3")
        assert code == 2
        assert json.loads(out)["rule"] == "llc.boundary"

    def test_irrational_critical_limit_is_decided(self, capsys):
        # alpha_1 = 2 with r_1 -> (2 - sqrt 6)/2, a root of 2x^2 + 4x - 1 > -1
        src = "(n^2+3*n+2)*a(n+2) - (6*n+10)*a(n+1) - (6*n^2+6*n+1)*a(n) = 0 ; a(0)=5, a(1)=5"
        code, out, err = run(capsys, "check-turan3", src)
        assert (code, err) == (3, "")
        assert "limit of r_1 at infinity: ~-0.2247448714" in out

    def test_verdict_json_payload(self, capsys):
        code, out, _ = run(capsys, "check-turan3", "franel3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "holds"
        assert doc["scaling"] == "factorial"
        assert doc["rule"].startswith("turan3.")


class TestCertifyAndVerify:
    def test_induction_threshold_past_the_scan_budget_is_an_error(self, capsys, tmp_path):
        src = "(4*n+16)*a(n+2) - (2*n+9)*a(n+1) - 11*a(n) = 0 ; a(0)=6, a(1)=2"
        code, out, err = run(capsys, "certify", src, "-o", str(tmp_path / "c.json"))
        assert (code, out) == (1, "")
        assert err == (
            "error: the ratio induction starts past n = 45495, beyond the "
            f"{certify_module.BASE_SCAN_BUDGET} indices a base scan covers\n"
        )
        assert not (tmp_path / "c.json").exists()

    def test_certify_writes_and_verifies(self, capsys, tmp_path):
        cert_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "certify", "motzkin", "-o", str(cert_path))
        assert code == 0
        assert "holds for all n >= 2" in out
        assert cert_path.exists()
        code, out, _ = run(capsys, "verify", str(cert_path), "motzkin")
        assert code == 0
        assert "verified" in out

    def test_certify_json_mode(self, capsys, tmp_path):
        cert_path = tmp_path / "f.json"
        code, out, _ = run(capsys, "--json", "certify", "franel3", "-o", str(cert_path))
        assert code == 0
        doc = json.loads(out)
        assert doc == json.loads(cert_path.read_text())
        assert doc["holdsFrom"] == 2

    def test_certify_refusal_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "certify", "bn", "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "rational growth constant" in err

    @pytest.mark.parametrize("name", ["motzkin", "inverse-catalan"])
    def test_discharge_refusal_builds_the_window_once(self, capsys, tmp_path, u_bounds_calls, name):
        # only a corner refusal falls back to the window-only certificate;
        # a refused discharge of the u-window itself ends the command, naming
        # the inequality that is not eventually positive
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "certify", name, "-K", "1", "-o", str(path))
        assert (code, out) == (1, "")
        inequality = {"motzkin": "f(n) - s_u(n+1)/s_l(n)", "inverse-catalan": "s_l(n)"}[name]
        assert err == f"error: required inequality is not eventually positive: {inequality}\n"
        assert u_bounds_calls == [1]
        assert not path.exists()

    def test_certify_window_only_fallback(self, capsys, tmp_path, u_bounds_calls):
        # corners refuse on binomial4, so the command falls back to a
        # window-only certificate and reports inconclusive
        cert_path = tmp_path / "b4.json"
        code, out, _ = run(capsys, "certify", "binomial4", "-o", str(cert_path))
        assert code == 2
        assert u_bounds_calls == [4, 4]  # the fallback reads the table's window
        assert "does not settle" in out
        assert "g(n) = (2*n^2 + 1) / (2*n^2)" in out
        assert "f(n) = (2*n^2 + 5) / (2*n^2)" in out
        doc = json.loads(cert_path.read_text())
        assert doc["kind"] == "u-window"
        assert doc["bounds"]["validFrom"] <= 200
        code, out, _ = run(capsys, "verify", str(cert_path), "binomial4")
        assert code == 0
        assert "verified" in out and "no sign conclusion" in out

    def test_certify_window_only_default_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "certify", "binomial4")
        assert code == 2
        assert (tmp_path / "binomial4.uwindow.json").exists()

    def test_verify_rejects_tampering(self, capsys, tmp_path):
        cert_path = tmp_path / "m.json"
        run(capsys, "certify", "motzkin", "-o", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["holdsFrom"] = 1
        cert_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_path), "motzkin")
        assert code == 3
        assert "REJECTED" in out

    def test_verify_rejects_empty_segment(self, capsys, tmp_path):
        cert_path = tmp_path / "b4.json"
        run(capsys, "certify", "binomial4", "-o", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["checkedSegment"]["to"] = doc["checkedSegment"]["from"] - 1
        cert_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_path), "binomial4")
        assert code == 3
        assert "REJECTED" in out and "checked segment is empty" in out

    def test_verify_rejects_an_order_it_cannot_recompute(self, capsys, tmp_path):
        cert_path = tmp_path / "b4.json"
        run(capsys, "certify", "binomial4", "-o", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["order"] = 3
        cert_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert_path), "binomial4")
        assert (code, err) == (3, "")
        assert out.splitlines() == [
            "certificate for binomial4: REJECTED",
            "  s_u(n) - s_l(n) is not 2 n^-2, the slack of mu = 0 at order 3",
        ]

    @pytest.mark.parametrize("src, name, message", [
        ("involutions", "involutions", "lower step - s_l(n+d)"),
        (HARMONIC, "sequence", "lower step - s_l(n+d)"),
    ], ids=["involutions", "harmonic"])
    def test_verify_rejects_a_window_on_the_wrong_sequence(self, capsys, tmp_path, src, name, message):
        # the header names the sequence checked, not the certificate's label
        cert_path = tmp_path / "b4.json"
        run(capsys, "certify", "binomial4", "-o", str(cert_path))
        code, out, err = run(capsys, "verify", str(cert_path), src)
        assert (code, err) == (3, "")
        head, mismatch, window = out.splitlines()
        assert head == f"certificate for {name}: REJECTED"
        assert mismatch == "  certificate does not describe this recurrence"
        assert window == "  the window is not proved: required inequality is not eventually positive: " + message

    def test_verify_wrong_sequence(self, capsys, tmp_path):
        cert_path = tmp_path / "m.json"
        run(capsys, "certify", "motzkin", "-o", str(cert_path))
        code, out, _ = run(capsys, "verify", str(cert_path), "franel3")
        assert code == 3
        assert "REJECTED" in out
        code, out, _ = run(capsys, "verify", str(cert_path), "franel3", "--json")
        assert (code, json.loads(out)["name"]) == (3, "franel3")

    def test_scale_spelling_variants(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "certify", "motzkin", "--scale", "n!", "-o", str(a))
        run(capsys, "certify", "motzkin", "--scale", "factorial", "-o", str(b))
        assert json.loads(a.read_text()) == json.loads(b.read_text())

    @pytest.mark.parametrize("command, name, ell, scale", sorted(VERDICT_SHA256, key=str))
    def test_verdict_bytes(self, capsys, command, name, ell, scale):
        argv = [command, name] + ([] if ell is None else ["--ell", str(ell)])
        if scale != get(name).scaling:
            argv += ["--scale", scale]
        code, out, _ = run(capsys, *argv, "--json")
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        assert digest == VERDICT_SHA256[command, name, ell, scale]


# sha256 of the file `certify <name> -o FILE` writes: the certificate bytes
# are an output contract, so a refactor of the writer must keep them
CERTIFICATE_SHA256 = {
    "domb": "e8f2e65daf29404f4bd891c605631f08054cde35e7ca4d047d86d67bebc9a709",
    "fine": "639f395fdb9056630ba7c074d79fe57270e08c721d88d5837a562d78cca81c66",
    "franel3": "5549ba3c7e9cab4b1e6cd208a63eadcd7237c81f780c7a779209c05ce2b306e5",
    "motzkin": "eeba75659b61af4579668259ef061e281b6732f147d8eb8c977fa0e129be0cf4",
    "binomial4": "28a79f9cb5d09d15e376c0597ce3eb2c15a7573da79fbf38021fb9161e34e583",
    "inverse-catalan": "f376445bdc6c8fa43b7b8b8cef9711cbad203cae4427e19734844fb3fc7ff036",
}

HEAD_KEYS = ["toolVersion", "kind", "sequence", "order", "ratioBounds", "bounds"]
TAIL_KEYS = {
    "turan3": ["corners", "N", "initialSegment", "holdsFrom"],
    "u-window": ["checkedSegment"],
}

# (tamper, diagnosis) for JSON files that do not parse as a certificate;
# a tamper of None wraps the certificate in a list
MALFORMED = {
    "empty-initial-segment": (
        lambda doc: doc.update(initialSegment={}),
        "malformed certificate: 'from'",
    ),
    "corner-without-threshold": (
        lambda doc: doc["corners"][0].pop("threshold"),
        "malformed certificate: 'threshold'",
    ),
    "corner-without-num": (
        lambda doc: doc["corners"][0].pop("num"),
        "malformed certificate: 'num'",
    ),
    "holds-from-missing": (
        lambda doc: doc.pop("holdsFrom"),
        "malformed certificate: 'holdsFrom'",
    ),
    "holds-from-not-a-number": (
        lambda doc: doc.update(holdsFrom="x"),
        "malformed certificate: holdsFrom must be an integer, got 'x'",
    ),
    # integer fields must be JSON integers: int() would accept each of these
    "n-as-string": (
        lambda doc: doc.update(N=str(doc["N"])),
        "malformed certificate: N must be an integer, got '67'",
    ),
    "n-as-float": (
        lambda doc: doc.update(N=doc["N"] + 0.9),
        "malformed certificate: N must be an integer, got 67.9",
    ),
    "valid-from-as-string": (
        lambda doc: doc["bounds"].update(validFrom=str(doc["bounds"]["validFrom"])),
        "malformed certificate: validFrom must be an integer, got '67'",
    ),
    "holds-from-as-string": (
        lambda doc: doc.update(holdsFrom=str(doc["holdsFrom"])),
        "malformed certificate: holdsFrom must be an integer, got '2'",
    ),
    "segment-from-as-bool": (
        lambda doc: doc["initialSegment"].update({"from": True}),
        "malformed certificate: from must be an integer, got True",
    ),
    "segment-to-as-string": (
        lambda doc: doc["initialSegment"].update(to=str(doc["initialSegment"]["to"])),
        "malformed certificate: to must be an integer, got '67'",
    ),
    "violations-as-strings": (
        lambda doc: doc["initialSegment"].update(
            violations=[str(v) for v in doc["initialSegment"]["violations"]]
        ),
        "malformed certificate: violation must be an integer, got '1'",
    ),
    "threshold-as-string": (
        lambda doc: doc["corners"][1].update(threshold=str(doc["corners"][1]["threshold"])),
        "malformed certificate: threshold must be an integer, got '4'",
    ),
    "order-as-bool": (
        lambda doc: doc.update(order=True),
        "malformed certificate: order must be an integer, got True",
    ),
    # rational coefficients must be strings in the writer's form: Fraction()
    # would accept each of these
    **{
        f"g-coefficient-{case}": (
            lambda doc, value=value: doc["bounds"]["g"]["num"].__setitem__(0, value),
            f"malformed certificate: g.num must be a rational string, got {value!r}",
        )
        for case, value in (
            ("int", 1), ("float", 1.0), ("exponent", "1e0"), ("bool", True),
            ("space", " 1"), ("decimal", "1.0"), ("unreduced", "2/2"),
        )
    },
    "f-den-unreduced": (
        lambda doc: doc["bounds"]["f"]["den"].__setitem__(1, "4/2"),
        "malformed certificate: f.den must be a rational string, got '4/2'",
    ),
    "corner-coefficient-decimal": (
        lambda doc: doc["corners"][2]["num"].__setitem__(0, "-9.0"),
        "malformed certificate: corner.num must be a rational string, got '-9.0'",
    ),
    "g-num-as-string": (
        lambda doc: doc["bounds"]["g"].update(num="102"),
        "malformed certificate: g.num must be a list, got '102'",
    ),
    "zero-denominator": (
        lambda doc: doc["bounds"]["g"].update(den=["0"]),
        "malformed certificate: rational function with zero denominator",
    ),
    "top-level-list": (None, "malformed certificate: expected a JSON object"),
    "negative-valid-from": (
        lambda doc: doc["bounds"].update(validFrom=-5),
        "malformed certificate: negative validFrom -5",
    ),
    "unknown-scaling": (
        lambda doc: doc["sequence"].update(scaling="geometric"),
        "malformed certificate: unknown scaling 'geometric'",
    ),
    "order-zero": (
        lambda doc: doc.update(order=0),
        "malformed certificate: order must be an integer >= 1, got 0",
    ),
}

# tampers of the window-only kind's own fields
MALFORMED_U_WINDOW = {
    "checked-from-as-string": (
        lambda doc: doc["checkedSegment"].update({"from": str(doc["checkedSegment"]["from"])}),
        "malformed certificate: from must be an integer, got '",
    ),
    "checked-to-as-float": (
        lambda doc: doc["checkedSegment"].update(to=doc["checkedSegment"]["to"] + 0.5),
        "malformed certificate: to must be an integer, got ",
    ),
}


class TestCertificateContract:
    @pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
    def test_certificate_bytes_and_key_order(self, capsys, tmp_path, name):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, "certify", name, "-o", str(path))
        doc = json.loads(path.read_text())
        assert code == (0 if doc["kind"] == "turan3" else 2)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CERTIFICATE_SHA256[name]
        assert list(doc) == HEAD_KEYS + TAIL_KEYS[doc["kind"]]

    @pytest.mark.parametrize(
        "case, certify",
        [pytest.param(case, certify_turan3, id=case) for case in sorted(MALFORMED)]
        + [pytest.param("order-zero", certify_u_window, id="order-zero-u-window")]
        + [pytest.param(case, certify_u_window, id=case) for case in sorted(MALFORMED_U_WINDOW)],
    )
    def test_malformed_certificate_is_rejected(self, capsys, tmp_path, case, certify):
        tamper, diagnosis = {**MALFORMED, **MALFORMED_U_WINDOW}[case]
        doc = certify(TermTable(get("motzkin").recurrence), 4, scaling="factorial").to_json()
        if tamper is None:
            doc = [doc]
        else:
            tamper(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "motzkin")
        assert code == 3
        assert err == ""
        head, *diag = out.splitlines()
        assert head == "certificate for motzkin: REJECTED"
        assert len(diag) == 1 and diag[0].strip().startswith(diagnosis)


class TestCorpusRun:
    def test_all_green(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "corpus", "run", "--cache-dir", str(tmp_path), "--seed", "7"
        )
        assert code == 0
        assert ", 0 failures" in out
        assert len(list(tmp_path.glob("*.terms"))) == 9  # every entry's table is flushed

    def test_json_deterministic(self, capsys, tmp_path):
        code, out1, _ = run(
            capsys, "--json", "corpus", "run", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "--json", "corpus", "run", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["failures"] == 0
        assert doc["checks"] == len(doc["results"])


class TestProcessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "turancert.cli", "terms", "apery", "--to", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1, 5, 73, 1445, 33001, 819005"

    def test_console_script(self):
        exe = shutil.which("turancert")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "turancert" in proc.stdout


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); a parser exit is a return too."""
    return run(capsys, *argv)


PARSE_CASES = [
    ["--help"],
    *([name, "--help"] for name in COMMANDS),
    ["bogus", "motzkin"],  # an unknown command
    ["terms", "motzkin"],  # a missing required option
    ["verify", "cert.json"],  # a missing positional
    ["terms", "motzkin", "--to", "3", "--bogus"],  # a trailing unrecognised argument
    ["corpus", "run", "extra"],
    ["check-turan3", "motzkin", "--scale", "weird"],
    ["--json", "terms", "motzkin", "--to", "3"],  # a root option before the command
    ["terms", "--json", "motzkin", "--to", "3"],
]

VALID = [
    ["terms", "motzkin", "--to", "3", "--cache-dir", "d"],
    ["ratio-asymp", "--operator", "N - 2", "-K", "3"],
    ["u-asymp", "fine", "--scale", "n!", "--json"],
    ["check-turan3", "fine", "--max-K", "5"],
    ["check-llc", "motzkin", "--ell", "2", "--max-K", "3"],
    ["certify", "motzkin", "-K", "5", "-o", "out.json"],
    ["verify", "cert.json", "motzkin"],
    ["corpus", "run"],
]


def reference_outcome(capsys, monkeypatch, argv):
    """outcome(argv) with the argparse reference parsing the line; its usage
    exit 2 counts as main's usage exit 1."""
    monkeypatch.setattr(cli, "parse_args", argparse_reference().parse_args)
    code, out, err = outcome(capsys, argv)
    monkeypatch.undo()
    return (EXIT_ERROR if code == 2 else code), out, err


class TestOneCommandParser:
    """main parses with the option table, with the argparse reference's outcome."""

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_same_output_and_exit_as_the_full_tree(self, capsys, monkeypatch, argv):
        code, out, err = outcome(capsys, argv)
        want_code, want_out, want_err = reference_outcome(capsys, monkeypatch, argv)
        assert code == want_code
        if "--help" in argv:  # the help layout is the table's own
            assert (code, err) == (0, "") and out.startswith("usage: turancert")
        else:
            assert out == want_out
            assert err.splitlines()[-1:] == want_err.splitlines()[-1:]

    def test_valid_lines_parse_alike(self):
        assert sorted(argv[0] for argv in VALID) == sorted(COMMANDS)
        for argv in VALID:
            assert vars(cli.parse_args(argv)) == vars(argparse_reference().parse_args(argv))

    @pytest.mark.parametrize("argv, code", [
        (["check-turan3", "motzkin", "--bogus"], 1),  # usage errors exit 1, not argparse's 2
        (["bogus"], 1),
        (["--version"], 0),
        (["terms", "--help"], 0),
    ], ids=str)
    def test_parser_exit_code(self, capsys, argv, code):
        got, _, err = outcome(capsys, argv)
        assert got == code
        assert err.startswith("usage: turancert") == (code == 1)

    @pytest.mark.parametrize("argv", [
        ["check-turan3", "motzkin", "--bogus"],
        ["--json", "check-turan3", "motzkin", "--bogus", "x"],
    ], ids=" ".join)
    def test_unknown_option_gets_the_command_usage(self, capsys, argv):
        code, _, err = outcome(capsys, argv)
        assert code == 1
        lines = err.splitlines()
        assert lines[0].startswith("usage: turancert check-turan3 [-h]")
        extra = " ".join(argv[argv.index("--bogus"):])
        assert lines[-1] == f"turancert check-turan3: error: unrecognized arguments: {extra}"

    def test_help_lists_every_option(self, capsys):
        for name, (_, help_text, positionals, options) in COMMANDS.items():
            code, out, _ = outcome(capsys, [name, "-h"])
            lines = out.splitlines()
            assert code == 0 and lines[0] == cli._usage(name) and help_text in lines
            for a in (*positionals, *cli.COMMON, *options):
                assert any(a.help in line and (a.flags[-1] if a.flags else "") in line for line in lines)
        code, out, _ = outcome(capsys, ["-h"])
        assert code == 0 and all(any(name in line for line in out.splitlines()) for name in COMMANDS)
        assert outcome(capsys, ["--version"]) == (0, f"turancert {__version__}\n", "")

    @pytest.mark.parametrize("argv, prog, rest", [
        (["-hh"], "turancert", "h"),
        (["ratio-asymp", "motzkin", "-hK5"], "turancert ratio-asymp", "K5"),
    ], ids=["-hh", "-hK5"])
    def test_help_joined_to_another_short_option_is_a_usage_error(self, capsys, argv, prog, rest):
        """-h stands alone, as the README says; argparse printed help here."""
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"{prog}: error: argument -h/--help: ignored explicit argument {rest!r}"


# one line for each kind of usage error: (argv, argparse's message after "error: ")
ERROR_LINES = [
    (["check-turan3", "motzkin", "--scale", "weird"],
     "argument --scale: invalid choice: 'weird' (choose from 'factorial', 'n!', 'none')"),
    (["corpus", "walk"], "argument corpus_cmd: invalid choice: 'walk' (choose from 'run')"),
    (["--json", "bogus"], "argument command: invalid choice: 'bogus' (choose from "
     + ", ".join(map(repr, COMMANDS)) + ")"),
    (["terms", "motzkin", "--to", "3", "extra"], "unrecognized arguments: extra"),
    (["--cache-dir", "d", "--bogus", "terms", "motzkin", "--to", "3"], "unrecognized arguments: --bogus"),
    (["terms", "motzkin", "--to", "3", "--"], "unrecognized arguments: --"),
    (["certify", "motzkin", "-o"], "argument -o/--output: expected one argument"),
    (["terms", "motzkin", "--to", "--json"], "argument --to: expected one argument"),
    (["--cache-dir"], "argument --cache-dir: expected one argument"),
    (["u-asymp", "motzkin", "-K", "two"], "argument -K: invalid int value: 'two'"),
    (["check-llc", "motzkin", "--ell=1.5"], "argument --ell: invalid int value: '1.5'"),
    (["check-llc", "motzkin"], "the following arguments are required: --ell"),
    (["verify"], "the following arguments are required: cert, src"),
    ([], "the following arguments are required: command"),
    (["certify", "motzkin", "--o", "out.json"], "ambiguous option: --o could match --operator, --output"),
    (["certify", "motzkin", "--o=out.json"], "ambiguous option: --o=out.json could match --operator, --output"),
    (["terms", "motzkin", "--to", "3", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
    (["ratio-asymp", "motzkin", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
]


def _units(argv: list) -> tuple:
    """(root options, command, units): each unit an option word with its value, or a positional."""
    name = next(w for w in argv if w in COMMANDS)
    takes_value = {f: a.kind != "flag" for a in (*cli.COMMON, *COMMANDS[name][3]) for f in a.flags}
    units, i = [], argv.index(name) + 1
    while i < len(argv):
        n = 2 if takes_value.get(argv[i]) else 1
        units.append(argv[i:i + n])
        i += n
    return argv[:argv.index(name)], name, units


def _prefixes(name: str, flag: str) -> list:
    """The prefixes of a long option that name it alone among `name`'s options."""
    flags = [f for a in cli._spec(name)[2] for f in a.flags]
    return [flag[:k] for k in range(3, len(flag) + 1) if [f for f in flags if f.startswith(flag[:k])] == [flag]]


def _variant(rng, argv: list) -> list:
    """argv with its options reordered and respelled at random, meaning the same."""
    root, name, units = _units(argv)
    common = {f for a in cli.COMMON for f in a.flags}
    args = {f: a for a in cli._spec(name)[2] for f in a.flags}
    options = [u for u in units if u[0] in args]
    positionals = [u[0] for u in units if u[0] not in args]
    front = [u for u in options if u[0] in common and rng.random() < 0.3]  # a root option
    options = [u for u in options if u not in front]
    spelled = []
    for flag, *value in options:
        other = {"int": "-7", "choice": "none"}.get(args[flag].kind, "x")
        if flag.startswith("--") and rng.random() < 0.5:
            flag = rng.choice(_prefixes(name, flag))
        if value and rng.random() < 0.3:  # a repeated option: the last one wins
            spelled.append([flag, other])
        if value and rng.random() < 0.5:
            spelled.append([f"{flag}={value[0]}" if flag.startswith("--") else flag + value[0]])
        else:
            spelled.append([flag, *value])
    words = [w for u in front for w in u]
    if rng.random() < 0.3 and positionals:  # "--" ends the options
        rng.shuffle(spelled)
        return root + words + [name] + [w for u in spelled for w in u] + ["--"] + positionals
    slots = spelled + [[p] for p in positionals]
    rng.shuffle(slots)
    order = iter(positionals)  # positionals keep their order
    slots = [[next(order)] if u[0] in positionals else u for u in slots]
    return root + words + [name] + [w for u in slots for w in u]


def differential_lines() -> list:
    """The lines the option table and the argparse reference must read alike."""
    rng = random.Random(40)
    base = list(VALID) + [EVERY_OPTION[c].format(d="d").split() for c in sorted(EVERY_OPTION)]
    base += [
        ["--json", "--cache-dir", "d", "check-turan3", "motzkin", "--cache-dir", "e"],
        ["certify", "-5", "-K", "-3", "-o", "-1"],  # negative numbers are values
        ["certify", "motzkin", "-K=3", "-o=out.json", "--json", "--json"],
        ["check-turan3", "motzkin", "--max-K", "-2", "--scale", "none", "--scale", "n!"],
        ["verify", "c.json", "-.5", "--operator"],
        ["corpus", "run", "--seed", "-1", "--seed", "12"],
    ]
    lines = [*base, *(_variant(rng, line) for line in base for _ in range(12))]
    lines += [argv for argv, _ in ERROR_LINES]
    for line in base:  # one word dropped, doubled or replaced by a wrong one
        for _ in range(4):
            argv, k = list(line), rng.randrange(len(line))
            argv[k:k + 1] = rng.choice([[], [argv[k]] * 2, ["--bogus"], ["-K", "x"], ["--o"], ["--"]])
            lines.append(argv)
    return lines


class TestDifferential:
    """The option table reads every line as argparse read `cli.COMMANDS`."""

    def test_lines_cover_every_form(self):
        lines = differential_lines()
        words = [w for line in lines for w in line]
        assert len(lines) >= 300
        assert all(line in lines for line in VALID)
        assert any("=" in w and w.startswith("--") for w in words)  # --opt=value
        assert any(w.startswith(("-K", "-o")) and len(w) > 2 for w in words)  # -K5, -oF
        flags = {f for name in COMMANDS for a in cli._spec(name)[2] for f in a.flags if f[1] == "-"}
        assert any(2 < len(w) < len(f) and f.startswith(w) for w in words for f in flags)  # a prefix
        assert "--" in words and "-3" in words
        assert any(line[0] in ("--json", "--cache-dir") for line in lines)  # a root option first

    def test_lines_parse_alike(self):
        ref = argparse_reference()
        diffs = []
        for argv in differential_lines():
            code, got, _, err = parse_outcome(cli.parse_args, argv)
            want_code, want, _, want_err = parse_outcome(ref.parse_args, argv)
            if (code, got) != (want_code, want) or err.splitlines()[-1:] != want_err.splitlines()[-1:]:
                diffs.append((argv, err.splitlines()[-1:], want_err.splitlines()[-1:]))
        assert diffs == []

    @pytest.mark.parametrize("argv, msg", ERROR_LINES, ids=[" ".join(a) for a, _ in ERROR_LINES])
    def test_usage_error_line(self, capsys, argv, msg):
        code, out, err = outcome(capsys, argv)
        command = [w for w in argv[:1] if w in COMMANDS]
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"{' '.join(['turancert', *command])}: error: {msg}"
        assert parse_outcome(argparse_reference().parse_args, argv)[3].splitlines()[-1] == err.splitlines()[-1]


def settings(options: tuple) -> dict:
    """The option settings among `options`, bar -h and --version: dest -> option strings."""
    return {a.dest: a.flags for a in options if a.flags and a.kind not in ("help", "version")}


def command_parsers() -> dict:
    """The options the parser accepts at the root (under None) and after each command."""
    return {name: cli._spec(name)[2] for name in (None, *COMMANDS)}


# one cheap line per command that sets every option the command accepts;
# {d} is a scratch directory, which also holds the certificate that verify reads
EVERY_OPTION = {
    "terms": "terms motzkin --operator --to 3",
    "ratio-asymp": "ratio-asymp motzkin --operator -K 2",
    "u-asymp": "u-asymp motzkin --operator --scale n! -K 2",
    "check-turan3": "check-turan3 motzkin --operator --scale n! --max-K 4",
    "check-llc": "check-llc motzkin --operator --scale n! --max-K 4 --ell 1",
    "certify": "certify motzkin --operator --scale n! -K 4 -o {d}/out.json",
    "verify": "verify {d}/cert.json motzkin --operator",
    "corpus": "corpus run --seed 3",
}
IGNORED = {("corpus", "seed")}  # the benchmark's `corpus run` op still passes --seed

# each setting that nothing read, as a line that used to parse
REMOVED_SETTINGS = [
    ["--max-K=3", "terms", "motzkin", "--to", "3"],
    ["--seed=3", "terms", "motzkin", "--to", "3"],
    *([*line.split(), flag, "3"] for flag, lines in (
        ("--max-K", ["terms motzkin --to 3", "ratio-asymp motzkin", "u-asymp motzkin",
                     "certify motzkin", "verify cert.json motzkin", "corpus run"]),
        ("--seed", ["terms motzkin --to 3", "ratio-asymp motzkin", "u-asymp motzkin",
                    "check-turan3 motzkin", "check-llc motzkin --ell 1", "certify motzkin",
                    "verify cert.json motzkin"]),
    ) for line in lines),
]


class TestEveryOptionIsRead:
    """A command accepts only the options that its code reads."""

    def test_settings_count(self):
        parsers = list(command_parsers().values())
        assert len(parsers) == 9
        assert sum(len(settings(p)) for p in parsers) == 38
        assert len(REMOVED_SETTINGS) == 53 - 38

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_parsed_option_is_read(self, tmp_path, name):
        assert main(["certify", "motzkin", "-o", str(tmp_path / "cert.json")]) == 0
        argv = [*EVERY_OPTION[name].format(d=tmp_path).split(), "--json", "--cache-dir", str(tmp_path)]
        accepted = settings(command_parsers()[name])
        assert all(set(opts) & set(argv) for opts in accepted.values())
        reads = set()

        class Recording(SimpleNamespace):
            def __getattribute__(self, attr):
                reads.add(attr)
                return super().__getattribute__(attr)

        args = cli.parse_args(argv, namespace=Recording())
        reads.clear()
        assert args.fn(args) == 0
        assert {d for d in accepted if d not in reads} == {d for c, d in IGNORED if c == name}

    @pytest.mark.parametrize("argv", REMOVED_SETTINGS, ids=" ".join)
    def test_removed_setting_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        flag = next(a for a in argv if a.startswith(("--max-K", "--seed")))
        extra = flag if "=" in flag else f"{flag} 3"  # a root setting, or a command's
        assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {extra}")
