"""Golden digests of every report file the CLI writes for the fixture corpora.

The Table-3 fixture and the nine-model batch run in both detection
modes, the desk-scale workbook in lexical mode, and the Table-3 fixture
beside three workbooks that fail to load, each in text, CSV and JSON.
Inputs are given as paths relative to the run directory, so the
summary's location column does not depend on where the test runs.  A
rewrite of any layer must leave every digest unchanged; a deliberate
report change updates the table here and says why.
"""

import hashlib
import json

import pytest

from sheetaudit.cli import main
from table3 import workbook_document
from test_acceptance import _desk_scale_document
from test_cli import MALFORMED_SHEETS
from xlsx_builder import build_xlsx

FORMATS = ["--format", "text", "--format", "csv", "--format", "json"]

# run name -> (input pattern, extra CLI arguments)
RUNS = {
    "table3-lexical": ("table3.json", ["--mode", "lexical", "--data-region", "Data"]),
    "table3-heuristic": ("table3.json", ["--mode", "heuristic", "--data-region", "Data"]),
    "batch-lexical": ("batch/*.json", ["--mode", "lexical", "--data-region", "Data"]),
    "batch-heuristic": ("batch/*.json", ["--mode", "heuristic", "--data-region", "Data"]),
    "desk-lexical": ("desk.json", ["--mode", "lexical"]),
    # a non-ZIP package, a cell given twice in XLSX and in JSON: three error rows
    "errors": ("errors/*", ["--mode", "lexical", "--data-region", "Data"]),
}

GOLDEN = {
    "batch-heuristic/constants.csv": "74c0fa083b1598ae12ce17a2365a81334dc502fc7c266526f11482bedc1684e5",
    "batch-heuristic/constants.json": "55373d8cf9df0c8d9e43ae9a0ca9608e244d23b9fb5d4d78eb24d97ac14f390f",
    "batch-heuristic/constants.txt": "69140560c2a17b77fa759b8a8a3450359d3af3b60b830bd332b137e8d71f63be",
    "batch-heuristic/student1.findings.csv": "b375f865a36e207852ef14902c20b72144f94daceeeb8109e365277b62aed7d9",
    "batch-heuristic/student1.findings.json": "d9e9793952028a4c606d6d2812bb405d1e3b45c41cbde35a51ddf60868560658",
    "batch-heuristic/student1.findings.txt": "d1dc2fd8f9d31de1f89e3d920dae4835acfd9f9c73218f8191cb7d22da37c220",
    "batch-heuristic/student2.findings.csv": "76a4ba0d84f9b4d5a06df5f4829dfc5f7a158b4d5b4829a4964d8bebab3bffcb",
    "batch-heuristic/student2.findings.json": "9f1ec0137b1d6839403fc6136a42adf3cfd3ff973300d20d5146f2adb2dfbe93",
    "batch-heuristic/student2.findings.txt": "0dbbfecc782ab77e8a2fa52f2c6246efd16d4483e58d566df0c247fb4af766a6",
    "batch-heuristic/student3.findings.csv": "75a7bf20a3e658be1411f47a04e11109c5af9742f8f2904f882097b257c0bd8a",
    "batch-heuristic/student3.findings.json": "0b62fce003376bdc36e8613f2d896233575b0d2024dabe1eda89a895b551031e",
    "batch-heuristic/student3.findings.txt": "4e804d0b39bb8e1f7560d7f39cdd32c98606dbcc6a127868f4e11eb3f009aa0a",
    "batch-heuristic/student4.findings.csv": "407ec2cdfe86c334f590d72add28986f98c03230ca0336aba7aee57f81d1906b",
    "batch-heuristic/student4.findings.json": "d96c5fefffe844974aeed8093752bf1b2b26a6300878cc1e6ac590cc1a047203",
    "batch-heuristic/student4.findings.txt": "0b3eb11d89ae9c0f1662438e1d0fdd473775ec5568cbd127a94f47386addd576",
    "batch-heuristic/student5.findings.csv": "d799c052ea0c728ec5797bc41128768f4752118edc6eb6bc80a60307031165aa",
    "batch-heuristic/student5.findings.json": "b091bef384cf3f07291b69d2a652d32aee44017f4127e954ea606bc990a7e3cc",
    "batch-heuristic/student5.findings.txt": "00217b7c5d67f6f535ec907a3c068416f5799bc3ca65cd7747ade0d4b9a5b041",
    "batch-heuristic/student6.findings.csv": "d783c89dcb13428df29010a2cf83bbd62511acaa112dcb2343bf91fde2305c53",
    "batch-heuristic/student6.findings.json": "e41dd80c06996d24a8f63a80ed6d57250bfa2b2c185dd09f1544cbb088b7fab3",
    "batch-heuristic/student6.findings.txt": "37301a3816a54ff95a21a39a52f35bb4ec65504e939532f89199937cf8525ad2",
    "batch-heuristic/student7.findings.csv": "6c9d3d90780b9ae3ffc9481de8fca66e0cebbf3e93a65c154af0b2ef2c99e48f",
    "batch-heuristic/student7.findings.json": "e886fae91fa5c77738d83999db6c62f643fecf218ebb4a1ce10b3c4d5b9582c8",
    "batch-heuristic/student7.findings.txt": "1ba16fa7f62ca9f0598311343d404e4635ba9cc32082e669b99b3d66058e4d39",
    "batch-heuristic/student8.findings.csv": "fddd6ee2dd6463eedf3b4a02b5c63ebb4e5ad8d1ebc08bccc099d3795a719f4f",
    "batch-heuristic/student8.findings.json": "0c01d2d3b5560276a08fe5e4794584f0773d1173c5e17a8e5d8ea1a0b9fbd152",
    "batch-heuristic/student8.findings.txt": "ddd995817bb6cd5e1eacdc9bfc6573626e9943690022689cdcf39b82f857c295",
    "batch-heuristic/student9.findings.csv": "6613ffe7c71185f65bf5dfac0f3cea830db1657a8cb0763c1b4bec71d9506a20",
    "batch-heuristic/student9.findings.json": "833bd0ba63809ff235f2c5030af6fea374a11c9f0139e2c374dcccc860c1e509",
    "batch-heuristic/student9.findings.txt": "d5cf18fe169de67d825c22c98b4d2acca36c9845d845ebb6f49a487e09e25fcd",
    "batch-heuristic/summary.csv": "a3b02fc355c9860dc89e3420acbaaa9764b57d4ea6170b63501b0d03830849a3",
    "batch-heuristic/summary.json": "377808de03b78ae867f6c43abf19e6c0fb99d4372c95a9c934ef3712e0703e32",
    "batch-heuristic/summary.txt": "4ed5318f854624d273c4fcfbe78e5150b50f3303864cd7e6e86dfc0d7a449068",
    "batch-lexical/constants.csv": "e70bed222c4ca4e2ead1d658453e0e05afa3a2d1bb1c527608fd96d8993ad3f8",
    "batch-lexical/constants.json": "0e3428ebd91c401cfeffb1bfac6cc83bd064909685a033fb8a9745326f4dd6ba",
    "batch-lexical/constants.txt": "6ca652e6f1952e4c3114971e05eada72b9c97304bbdf8e0274ae55274d598c95",
    "batch-lexical/student1.findings.csv": "e913862fd8b8fac275e344f0883dc39e9123cec1f580c906f37bdf2a3ed33596",
    "batch-lexical/student1.findings.json": "3c0babb50c9a2154150e703a4d36543271b5b4ed04f26c3d11618f2e3a48841f",
    "batch-lexical/student1.findings.txt": "0f6409d6e155aca0b967a418f8a123f7518aba3b97f7c1613fc53160e5c32ab4",
    "batch-lexical/student2.findings.csv": "779a2adc996c0ff720f26a31da1ed0644460a4ef038d09600d2be162907ef36e",
    "batch-lexical/student2.findings.json": "2b36a9aa5e451c250fa4b7a0c7af598daa1d74d6bb94457fb933784dcea11057",
    "batch-lexical/student2.findings.txt": "6917edeba7ea9e3f6037b7f5ea08b531d9e90b159dbe51a3c39208fec798d8d4",
    "batch-lexical/student3.findings.csv": "9070d31f9abd381664758e681d8434457eb592a722b48b36d876b5a732813556",
    "batch-lexical/student3.findings.json": "a75c0c587ebbf8a5c54d3213a4912e83e5799fb6ec4d2e54f203bfc9a8d1da9e",
    "batch-lexical/student3.findings.txt": "0e8a83b5c356a575247df60c55f9970eaae68cc2ad9ed9dfabb47334ced9fa2b",
    "batch-lexical/student4.findings.csv": "4ea5717e2c056e04a71d4619fc8dfb5822b8e58a654cdd54285632909256029c",
    "batch-lexical/student4.findings.json": "97145bbb15006eebc89cafee2c2340fe06f45081d53148e0496282d7874d0b26",
    "batch-lexical/student4.findings.txt": "a58d89be527a452a48387bed7d82b3b5033858a7b712e330b730e950c2d57bf8",
    "batch-lexical/student5.findings.csv": "fcc1bd3f62598d61574a672284bf8aa9e43b321d05422870ad2a289d7e194fe4",
    "batch-lexical/student5.findings.json": "981d2886c27c4148f0b38705328f5e98e07696d6055389423195be2619c1615b",
    "batch-lexical/student5.findings.txt": "d1720344950328ad7707806a3902d4c096c8977056ae615570bf25b5ddc0b589",
    "batch-lexical/student6.findings.csv": "957a2c30d259b3e15b19e5d99b3869832550c789dc09b61ca2d1b45ccc8ee6da",
    "batch-lexical/student6.findings.json": "725d1b322a07bde29acf19bc25d1ef743fb2a4de4ab0a5fb70301f9d1f5fce0f",
    "batch-lexical/student6.findings.txt": "4c0a888e458fc7bf2924c4b6d0d3ddba0f132773104bc3794f203cf4858d2f57",
    "batch-lexical/student7.findings.csv": "cc527892359a194144cd16adb072fea019b1d7f1dc56bc6cb5842d2ef9eb6530",
    "batch-lexical/student7.findings.json": "ca826e6102e4d6314c4a11845c5308f097f8eb9b093f19aabd6bfbce23784d38",
    "batch-lexical/student7.findings.txt": "569634ad8ad44a4eb9e6ce2162ce52c4df1a843cd81cd7365a98651c737cb30f",
    "batch-lexical/student8.findings.csv": "2d742d8284fd8fd26f97f9177ed49cb7739e87f57268cf94e75ddf99cf333309",
    "batch-lexical/student8.findings.json": "334c74dfa0496f136d3bac44428f764750dd1d1fb8d6e5e0a7565b507dce138c",
    "batch-lexical/student8.findings.txt": "43a2f4a5591f3e331b830afa26f15fb06666387f9fd616e89cd65c53d50788ab",
    "batch-lexical/student9.findings.csv": "9bb10564503a1a0ec0298ec30adaf6b604ca75a1ae124ff849b8943d934d2e6d",
    "batch-lexical/student9.findings.json": "3ee580f1a00afe82758841768038352a0effed2f5f76790f02504ab3363338a0",
    "batch-lexical/student9.findings.txt": "7ef36b20725ce7a28dfcc4707749465f7bb9ef421eabf6371c9e9bb6bf058e27",
    "batch-lexical/summary.csv": "9c197f51db9784eadcac412edbba110335bca84e91780d40b39a31dc2a4428a4",
    "batch-lexical/summary.json": "f20e7d92206c40ac65ac24ba5b945b5c357426bb0f99541f7069afd0dba4e4af",
    "batch-lexical/summary.txt": "9f8d581ebbf812e64fe47810f55d36c6dabf144421ddd49d0a3bc1516d49a676",
    "desk-lexical/constants.csv": "3f356d38c9d1c3727c053fdbfb53cf9173da814f4dc785999a3363de7db3b202",
    "desk-lexical/constants.json": "bc10e98aa994657286a4700d6645eb1cffaa9e66fc38981570261e7b15cac38f",
    "desk-lexical/constants.txt": "c842ae5817c4e63ea3661df19dafb275c0372b78dd8519d5ba8f71540e0331d4",
    "desk-lexical/desk.findings.csv": "d187f49c22edbfef9b5928956ea4bf87c0e1c2bc68f005adaf81ff764b75d5f4",
    "desk-lexical/desk.findings.json": "9568022aeb6db607df3e2ee8966f24247f89ea326ec94d17b84ea12da8da1503",
    "desk-lexical/desk.findings.txt": "d703a6f1e3e12d9516251499ffe325e90fc333757e179d5a0614de5e6ec6fcde",
    "desk-lexical/summary.csv": "02e45778f336d7cfc057341df0ddaa5a6d0aa2c29be6f1deb66ff26553bde0a4",
    "desk-lexical/summary.json": "e25287be0261eaacb419f9ef7eab47c2cca2e9fa0ee94797d5cde4e7a474281d",
    "desk-lexical/summary.txt": "f85640b7a403e8653ba95c32dcdada596f1d45d93e8a46c657e5e1055a1ee5ab",
    "errors/constants.csv": "ed6d67d29a8a0fb601528d4c1952ee2e38812b508faeca8a7b02d1943fde5045",
    "errors/constants.json": "908e784ba1fe5b00fffd160837ec59095c740b568997f3b58d27ff7474ead77e",
    "errors/constants.txt": "c5cfb102f053819508950fee0509b4f25dbdb93bb0b822c414443f0c25305106",
    "errors/summary.csv": "b00d15164cf784a162c2129c99761c83658d811f91f349be5f36877ea00972b6",
    "errors/summary.json": "0c64b9b9d02e839708584a94bd33a66b9eb104759fc965af559784afea56ef44",
    "errors/summary.txt": "ec13c08ffed1f428532cd5f0660f95dbeb57d61ed6cb7aec144139d4b27167ed",
    "errors/table3.findings.csv": "92517a650d8668f341f2e10ccde3c97b2a70b28e74f6d21c1c5087bae40ee5a5",
    "errors/table3.findings.json": "42569e55061f8fc44cd2b8ff1fad716d570bcee7fd36deb3ea72e6445379a546",
    "errors/table3.findings.txt": "4dde6bf8a33795b99cc2a3c30cfbda28ffd17d6aa7f8b5b4490306d9414ccd8e",
    "table3-heuristic/constants.csv": "9d43704e032be7152b7a3f7858716b96b6524936c9dba8bf64481188db70bb4d",
    "table3-heuristic/constants.json": "cf2b666bf81241a67d33667fae9547ac0c73b3148b8b1d13e9a95cda4c8982e9",
    "table3-heuristic/constants.txt": "0bd79e16888ca67b96be8e38c62825f0d2542e7947d24a309bc1511ef2345574",
    "table3-heuristic/summary.csv": "0c58ea0ebf3dde121f0a4de2b8f915baa796373ac44a2ab2630d698bb35d051e",
    "table3-heuristic/summary.json": "4d16774e27e101cf9f82b5cfa6acff36dc49950b65ed2d08e2bc605479977342",
    "table3-heuristic/summary.txt": "3f7a6e92a353fa1aae0a99d86e879f9e7946ad878df0d43502bfa8499fa60ac0",
    "table3-heuristic/table3.findings.csv": "064a58c7e623d08dc3ab7d9267ee1ceb5b7f48d1a7625bad15fc8f1a15381fed",
    "table3-heuristic/table3.findings.json": "3e851788c9d98f7ce2748059520234381277bedf70f781730567f812a35267d4",
    "table3-heuristic/table3.findings.txt": "5b46297a34275ab7abe58e287ba8c6974e8703f89725e5e4c807fb20f81cd575",
    "table3-lexical/constants.csv": "ed6d67d29a8a0fb601528d4c1952ee2e38812b508faeca8a7b02d1943fde5045",
    "table3-lexical/constants.json": "908e784ba1fe5b00fffd160837ec59095c740b568997f3b58d27ff7474ead77e",
    "table3-lexical/constants.txt": "c5cfb102f053819508950fee0509b4f25dbdb93bb0b822c414443f0c25305106",
    "table3-lexical/summary.csv": "dcc6a3cf8a2ff25a3e75698353a811164ed10d24fc749ff8da0c1c984af42cf8",
    "table3-lexical/summary.json": "bc3b18276e406e3e9f13079ced0a61c18df9ae4d4a9b1f29adfdc67f7a1c4924",
    "table3-lexical/summary.txt": "1d63d12b4536efc3c39be861707db7272f857a3a8d6b09bccb25dda133efdaa8",
    "table3-lexical/table3.findings.csv": "131fdb68733a4df9b4a9db64935647976394be860f620d1ae077748d8517a8bd",
    "table3-lexical/table3.findings.json": "539ffe1ddf9e7269244467e9b1a9ce0a8d5815a393a145f3be360653a17019cb",
    "table3-lexical/table3.findings.txt": "064eb3db049bfb614857de9e5b17a880fb054aa4eb38e7e75df306f68dbe7954",
}


def report_digests(root):
    """SHA-256 of every report file the runs write under ``root``, keyed ``run/filename``."""
    (root / "table3.json").write_text(json.dumps(workbook_document("table3.xls")), encoding="utf-8")
    (root / "batch").mkdir()
    for i in range(1, 10):
        doc = workbook_document(f"student{i}.xls")
        (root / "batch" / f"student{i}.json").write_text(json.dumps(doc), encoding="utf-8")
    (root / "desk.json").write_text(json.dumps(_desk_scale_document()[0]), encoding="utf-8")
    errors = root / "errors"
    errors.mkdir()
    (errors / "table3.json").write_text((root / "table3.json").read_text(encoding="utf-8"))
    (errors / "broken.xlsx").write_bytes(b"not a ZIP package")
    sheets = [{"name": "S", **sheet} for sheet in MALFORMED_SHEETS["duplicate-cell.xlsx"]]
    build_xlsx(errors / "duplicate-cell.xlsx", sheets)
    sheets = [{"name": "S", "cells": {"A1": {"f": "=B1*12"}, "a1": {"v": 5}}}]
    (errors / "keys.json").write_text(json.dumps({"name": "keys", "sheets": sheets}))

    digests = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for run, (pattern, extra) in RUNS.items():
            code = main([pattern, "--out", f"out/{run}", *FORMATS, *extra])
            assert code == (2 if run == "errors" else 1)
            for path in sorted((root / "out" / run).iterdir()):
                digests[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return report_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", RUNS)
def test_report_bytes_unchanged(reports, run):
    pinned = {name: digest for name, digest in GOLDEN.items() if name.startswith(f"{run}/")}
    written = {name: digest for name, digest in reports.items() if name.startswith(f"{run}/")}
    assert written == pinned
