"""Golden CLI output: the sha256 of stdout and stderr, and the exit code, of
each panel subcommand on the bundled data and on a small fixture, and of
`ineq micro` on two small samples.

The fixture ``tests/data/golden_panel.csv`` starts with a byte-order mark,
ends its lines with CRLF and holds every skip reason, quoted names with
commas, quotes and newlines, a negative year, a zero bottom share and
percent-unit columns.  The sample ``tests/data/golden_micro.txt`` holds
blank lines, padded values and exponent notation; the zeros of
``tests/data/golden_micro_zeros.txt`` make the tail ratios, the Palma
ratio and the mean log deviation print ``inf``.  A digest that
changes means the printed output changed; update the table only for an
intended change.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from ineqkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = "tests/data/golden_panel.csv"
MICRO = "tests/data/golden_micro.txt"
PERCENT = (
    "--schema", "gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct",
    "--gini-unit", "percent", "--share-unit", "percent",
)


def _cases():
    panels = {"data/dynamics_panel.csv": ("Mexico", "2014"), FIXTURE: ("Alpha", "2015")}
    for path, (country, year) in panels.items():
        where = ("--input", path)
        one = (*where, "--year", year, "--source", "wb")
        yield ("compute", *where)
        yield ("rank", *where)
        for indicator in ("index", "gini", "ratio", "alt"):
            yield ("rank", *one, "--indicator", indicator)
        yield ("compare", *one)
        yield ("compare", *one, "--summary-only")
        yield ("series", *where, "--country", country)
        yield ("calibrate", *where)
        yield ("calibrate", *where, "--by-sample")
    for table in ("data/wb_2015_indicators.csv", "data/oecd_2015_indicators.csv"):
        yield ("compute", "--input", table)
        yield ("rank", "--input", table)
        yield ("replicate", "--input", table)
        yield ("replicate", "--input", table, "--tol-h", "0.003", "--tol-i", "0.003")
        yield ("replicate", "--input", table, "--expect-changed", "0")
    where = ("--input", FIXTURE)
    one = (*where, "--year", "2015", "--source", "oecd")
    for command in ("compute", "calibrate"):
        yield (command, *where, *PERCENT)
        yield (command, *where, "--strict")
        yield (command, *where, "--year", "2015")
        yield (command, *where, "--source", "wb")
        yield (command, *one)
    for command in ("rank", "compare"):
        yield (command, *one)
        yield (command, *one, *PERCENT)
        yield (command, *one, "--strict")
    yield ("compute", *where, "--weight", "0.5")
    yield ("calibrate", *where, "--by-sample", *PERCENT)
    yield ("series", *where, "--country", "Multi\nLine")
    yield ("series", *where, "--country", "Korea, Rep.")
    yield ("series", *where, "--country", "Nowhere")
    yield ("compute", "--input", "-")
    yield ("micro", "--input", MICRO)
    yield ("micro", "--input", MICRO, "--epsilon", "0.5", "--alpha", "0")
    yield ("micro", "--input", MICRO, "--alpha", "1")
    yield ("micro", "--input", "tests/data/golden_micro_zeros.txt")
    yield ("micro", "--input", "-")


CASES = {" ".join(map(repr, argv)): argv for argv in _cases()}

# sha256 of stdout, sha256 of stderr and the exit code of each case.
DIGESTS = {
    "'compute' '--input' 'data/dynamics_panel.csv'": ('3cec7469dc988adb25fb1c600d18544f219251badc9484573afac51ea916b383', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'rank' '--input' 'data/dynamics_panel.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a0e54d0bd5334759edb0c886198c70f69cba9c94be191cc09fc658fdf0e2a5f5', 2),
    "'rank' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb' '--indicator' 'index'": ('9ba28adb488e9a15cd85f9341642f009b61e179d7119a996aa2f91380fcb10c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'rank' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb' '--indicator' 'gini'": ('4e470e53a52c6d6ce90a5c26495d6ee8c8080eaed17c7d47657640564c87d8d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'rank' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb' '--indicator' 'ratio'": ('5489fcec57e52a62d738e2028443ebacfeeeebf222c64cf138fab983401e1f5c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'rank' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb' '--indicator' 'alt'": ('d81cdbb2680dcc26c489766276f16ab21e12bd6c3bc23c97db19ecf346e1f2eb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'compare' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb'": ('a239b708a33f45d012b00518f46d5c040fdc15d03d1a6a04cd6f93c9a4692925', '36879cb9e9994f8317460f5d23b643c1b73c8831c4b8319d0abd2a2c2b5d9c2b', 0),
    "'compare' '--input' 'data/dynamics_panel.csv' '--year' '2014' '--source' 'wb' '--summary-only'": ('570e0e0b72c71ba677d2e0d63f84b854004bc1f0afedec069b275e4a19777498', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'series' '--input' 'data/dynamics_panel.csv' '--country' 'Mexico'": ('e5d70ef1100a322f3c5d0187b357030aa627758c03805198a489c45d7b7fdee8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'calibrate' '--input' 'data/dynamics_panel.csv'": ('f759305ffd8a8d5f6d8b2756df8443dcd9f091adbc9d4ddde6896ae40e484738', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'calibrate' '--input' 'data/dynamics_panel.csv' '--by-sample'": ('8b0016fb46e61d18478152c4505e244be8a9255ded5594add1f89d8c8a8e8b35', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'compute' '--input' 'tests/data/golden_panel.csv'": ('04e1794088cea341bae7d00c9276eda6ee1459f67f41c48209f11be7f4941d01', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a16eb27903ddf6ba14771723abc02abcba134daad326f3a0a564148c6022715e', 2),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb' '--indicator' 'index'": ('2ec433f95776e7f6d6726039bd583564eb99ba63731374279f75ef0456eace2f', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb' '--indicator' 'gini'": ('3a7a219d6daf0cf5c466ff4ff6cd46846b908277ef3dc8887c344b5f16b73b0f', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb' '--indicator' 'ratio'": ('7fbb699b0c8ba409bd094ba81471f6658885f25d73eac88703007ec940bebaf0', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb' '--indicator' 'alt'": ('8da756595dff336e3b6b092cc896c5e1f6b83a82a697b0cba13610ecc8647a72', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'compare' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb'": ('6de95aa967bb62573f7578be5b59bdc91809f47757c3710c1c0f5056bccb611b', 'eca983bfefa6ae32286fe016e25426331bc564e0c42cfcd6c2fcac32132b9151', 0),
    "'compare' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'wb' '--summary-only'": ('608e27d447308c8c24def4faf0616501bade531a44b78f0936d1b1797ee2dbf3', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'series' '--input' 'tests/data/golden_panel.csv' '--country' 'Alpha'": ('abf5740b899e06d7922b067801ea68d46f5102e8104d412b5165263ddd8ddf3e', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv'": ('29408475d73647649d817fc3de68d7e394e7c9c0ac93518102e2ba8cce4d12eb', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--by-sample'": ('1cd8740e63c397356e577104d258e3b3afce636f90c73ede0d6cf41e9546e0d1', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'compute' '--input' 'data/wb_2015_indicators.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a49fd904a7292a8b72882ffab0ffd84129422a82844ba92cfc5c4a25b829dec4', 2),
    "'rank' '--input' 'data/wb_2015_indicators.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a49fd904a7292a8b72882ffab0ffd84129422a82844ba92cfc5c4a25b829dec4', 2),
    "'replicate' '--input' 'data/wb_2015_indicators.csv'": ('0dd61f6dc11e0628826dca2013e73fe7935877439ecf875aa75511801f8d14c5', '676d953bfa7cfe658d16f92fffb0a46f6926361c7f1efa7c873636b8255f8a30', 0),
    "'replicate' '--input' 'data/wb_2015_indicators.csv' '--tol-h' '0.003' '--tol-i' '0.003'": ('0dd61f6dc11e0628826dca2013e73fe7935877439ecf875aa75511801f8d14c5', '983ba074c8a80af7e42edae7b6b8dde7c5711a954519f53a2e8a548dc78dea77', 0),
    "'replicate' '--input' 'data/wb_2015_indicators.csv' '--expect-changed' '0'": ('0dd61f6dc11e0628826dca2013e73fe7935877439ecf875aa75511801f8d14c5', 'c87ce6bd91cbf1ad963bcab430bc82692688fc3ee03c1c52d80a3331742a88f8', 1),
    "'compute' '--input' 'data/oecd_2015_indicators.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a49fd904a7292a8b72882ffab0ffd84129422a82844ba92cfc5c4a25b829dec4', 2),
    "'rank' '--input' 'data/oecd_2015_indicators.csv'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a49fd904a7292a8b72882ffab0ffd84129422a82844ba92cfc5c4a25b829dec4', 2),
    "'replicate' '--input' 'data/oecd_2015_indicators.csv'": ('cba01d3b47643e4233008d588ca1fdbfcefeeaec4c262671d04fcdb45da3669d', '01e808b02d2d7cd2dbffb0001ba60f1a6d42c411ad71dce448a03034fedd9b42', 0),
    "'replicate' '--input' 'data/oecd_2015_indicators.csv' '--tol-h' '0.003' '--tol-i' '0.003'": ('cba01d3b47643e4233008d588ca1fdbfcefeeaec4c262671d04fcdb45da3669d', '61e341b6a5b7dfe4c017ac49a6c389666b30edcb8856673a4715c580e06fbc61', 0),
    "'replicate' '--input' 'data/oecd_2015_indicators.csv' '--expect-changed' '0'": ('cba01d3b47643e4233008d588ca1fdbfcefeeaec4c262671d04fcdb45da3669d', 'a1cb5bc45d2908d23ed270d79bc565c80d481485a9596b82f6d9f6ce03ede42d', 1),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--schema' 'gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct' '--gini-unit' 'percent' '--share-unit' 'percent'": ('59ba9ab3d17731dd425806134ce81027be72897d8531d4db1ed10e4ff95f261f', '2b6c7b6ff911baad65e7c2c0dc62359d95008a3591ba61bfccbb40b5814645b1', 0),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--strict'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '409feeeb64566d529c3305bf650603bcd2346990d7e8f776152b77aeb537f855', 2),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--year' '2015'": ('5455a7be34e40fb8f3fd304b53282b45dc7fd271ad543f721c30e0e6e9e5c26a', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--source' 'wb'": ('b418e12a228f765c851b19b0735c229e86ccb7381098c086b7729e385713929d', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd'": ('732a752dd3742562274f878096f869c2baf467ef17e492b056a9a13363fe0714', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--schema' 'gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct' '--gini-unit' 'percent' '--share-unit' 'percent'": ('186908db3aba1a4e4a44e6103659a72c65815e8f9cfa00fe95500344cd014cc3', '2b6c7b6ff911baad65e7c2c0dc62359d95008a3591ba61bfccbb40b5814645b1', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--strict'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '409feeeb64566d529c3305bf650603bcd2346990d7e8f776152b77aeb537f855', 2),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--year' '2015'": ('3bf70d5d56c88cb5971bcab69dab2cb4410c4b3c6d94fcfbf3f065377ba6d843', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--source' 'wb'": ('3c25920a0c18c5939b06004685d7b940d4f84fbef1564052a2481a404fd5eab4', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd'": ('e698ddb795784b75d5f88f61e3ae3cb3f41fd9787ee2eb67975a24eb00f65ccd', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd'": ('69044c82ee01768026ef0cfaab58f83c7f12f32d63d97c34c194d90ebdd7ff2c', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd' '--schema' 'gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct' '--gini-unit' 'percent' '--share-unit' 'percent'": ('b3d7ffae8d92d4868f841c29a98d6de4ab27f1977076b84b8ed75476cd08d439', '2b6c7b6ff911baad65e7c2c0dc62359d95008a3591ba61bfccbb40b5814645b1', 0),
    "'rank' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd' '--strict'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '409feeeb64566d529c3305bf650603bcd2346990d7e8f776152b77aeb537f855', 2),
    "'compare' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd'": ('33a8bf74d474bf63fce3db222f32b80ced9341ffb6979d02b6bd376e31bde890', '9a68833ab0470398f20c8c72ada592d998e5d4990c091eda1dfc334aaac38823', 0),
    "'compare' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd' '--schema' 'gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct' '--gini-unit' 'percent' '--share-unit' 'percent'": ('2f68585eabefa270c1bd74c7e140f146b59c70e648d6ae8e55ffac70b31e117a', 'e4b0360c5f5f09b1de115538a274769634b2c666c6d1e6d84f6ab1bdfeeb2e4d', 0),
    "'compare' '--input' 'tests/data/golden_panel.csv' '--year' '2015' '--source' 'oecd' '--strict'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '409feeeb64566d529c3305bf650603bcd2346990d7e8f776152b77aeb537f855', 2),
    "'compute' '--input' 'tests/data/golden_panel.csv' '--weight' '0.5'": ('0cb4b6d09aff2e7864f48f8e56b24cc6afb358b2ad00ea1ab32233e73675d82e', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'calibrate' '--input' 'tests/data/golden_panel.csv' '--by-sample' '--schema' 'gini=gini_pct,top10=top10_pct,bottom10=bottom10_pct' '--gini-unit' 'percent' '--share-unit' 'percent'": ('e2cf547b1f14e0049d17aa6d9ca4acfee6401268b72aa68b9e4d772cafb4a9a9', '2b6c7b6ff911baad65e7c2c0dc62359d95008a3591ba61bfccbb40b5814645b1', 0),
    "'series' '--input' 'tests/data/golden_panel.csv' '--country' 'Multi\\nLine'": ('444b1858401943cd145c26d0eba04d35bfca84f212dc5719cd9893bd30084805', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'series' '--input' 'tests/data/golden_panel.csv' '--country' 'Korea, Rep.'": ('1675043e945042c6d675dd03481c892405bc5f703620a44b0589cfef9de548bb', 'f85be4a8a4e2f8edc72b677a46b407cf61b4a585804a3409e9c06a1159328834', 0),
    "'series' '--input' 'tests/data/golden_panel.csv' '--country' 'Nowhere'": ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '26aab2a24a227abc5fb8b1ad0452d305223bce2fb7c7a7e3a5b871e4dfdd401e', 2),
    "'compute' '--input' '-'": ('04e1794088cea341bae7d00c9276eda6ee1459f67f41c48209f11be7f4941d01', 'a665a397759e800f6f4b9d9d89892254242f39feb18dd593c3945c5339b4e8e5', 0),
    "'micro' '--input' 'tests/data/golden_micro.txt'": ('1c91e3e430e4b08265c62c491c3e7845146675c5bc11faea68b51c6620c8e38e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'micro' '--input' 'tests/data/golden_micro.txt' '--epsilon' '0.5' '--alpha' '0'": ('be246018c094d777356d120891fdfac6b28247e44eff000c01e4de639b0db1ac', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'micro' '--input' 'tests/data/golden_micro.txt' '--alpha' '1'": ('3f1410bb28ca359999d6ef6da0c09605afe15da3d36dafed5aa059a73b8ac7b3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'micro' '--input' 'tests/data/golden_micro_zeros.txt'": ('a4b6814a16b3d5a681cb8c12f011348ce2651de637accd78bbdcd4bc289f4b38', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    "'micro' '--input' '-'": ('1c91e3e430e4b08265c62c491c3e7845146675c5bc11faea68b51c6620c8e38e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
}


def run_case(argv) -> tuple[str, str, int]:
    """Run ``main(argv)`` in process from the repository root, with the
    micro sample as stdin of `ineq micro` and the panel fixture as that of
    any other subcommand, read as the CLI reads it (UTF-8, universal
    newlines)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    path = ROOT / (MICRO if argv[0] == "micro" else FIXTURE)
    with open(path, encoding="utf-8") as stdin, mock.patch("sys.stdin", stdin):
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
    digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest(out.getvalue()), digest(err.getvalue()), code


@pytest.mark.parametrize("case", CASES)
def test_output_is_unchanged(case):
    assert run_case(CASES[case]) == DIGESTS[case]


# Rows 3 and 13 of the fixture's key order print by f-string (a negative
# year and a zero bottom share): chunks of 3, 4 and 13 rows put them first
# or last in a chunk.
@pytest.mark.parametrize("chunk_rows", [1, 3, 4, 13])
def test_compute_is_unchanged_by_its_chunk_size(chunk_rows, monkeypatch):
    from ineqkit import cli

    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    for case, argv in CASES.items():
        if argv[0] == "compute":
            assert run_case(argv) == DIGESTS[case], case


# Blocks of 1 and 7 bytes cut inside quoted names, CRLF pairs and the
# byte-order mark; 64 bytes holds a few rows.
@pytest.mark.parametrize("block_chars", [1, 7, 64])
def test_output_is_unchanged_by_its_block_size(block_chars, monkeypatch):
    from ineqkit import panel

    monkeypatch.setattr(panel, "_BLOCK_CHARS", block_chars)
    for case, argv in CASES.items():
        if argv[0] != "micro":
            assert run_case(argv) == DIGESTS[case], case


if __name__ == "__main__":
    for case, argv in CASES.items():
        print(f"    {case!r}: {run_case(argv)!r},")
