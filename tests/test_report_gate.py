"""The behaviour gate: `defring report --all` gives the same JSON as before,
leaving out the oracle rows' runtime_ms, the only field that changes between
runs.  The JSON is compared by the first 16 hex digits of the sha256 of
`json.dumps(report, sort_keys=True)`."""

import hashlib
import json

from defring.cli import main

REPORT_SHA256_16 = "5ba4b24c248f915d"


def test_report_all_json_is_unchanged(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--all", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["oracle"] and all("runtime_ms" in row for row in report["oracle"])
    for row in report["oracle"]:
        del row["runtime_ms"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == REPORT_SHA256_16
