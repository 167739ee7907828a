"""Every ``repro run`` experiment prints exactly the pinned table.

Each test runs one experiment through the CLI at its default scale and
compares the SHA-256 of everything it printed with a recorded digest, so
any change to a runner, a row shape or a printer that moves one printed
byte fails here.  The only line that is not deterministic is overhead's
Algorithm 1 planning time (real CPU time); its number is masked before
hashing.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.cli import main

#: SHA-256 of each experiment's masked stdout.
DIGESTS = {
    "fig2": "ca3b73b63ff974dcf9b6aa2ca5809bba63139e3ffa0064795428dc7adf2734d2",
    "fig3": "c23e6fc9811b1facced2f252650afa39f1766a90fc4f4042e29f72187e9afd3c",
    "fig4": "08049530ce28eb8461b79d294115e1b5bb83871562d85145f6fc0aad609d4dc9",
    "fig5": "e3384692a3d091a28aa867f693c238f733a2f1b25e545cf8ea84badee5c8b194",
    "fig8": "d795a5387ea978176729fc413e25dcdb5bc6228c9330ae497e8fe991f8071460",
    "fig9_10": "962bc2dbaf23723e5261b11a42082a2fc2e62d5c7a4a4c8cb620d64323e38a67",
    "fig11": "8598aeec1435e420e97bef79e405fadd1a3bd1a2c6bf28c7a7aea3e354b47c87",
    "fig12": "4362d85ae86c86f25dc5b47f5a0507fca7b19826dd62af3c3c8146070ae5c41c",
    "fig13": "96c94a2c67a8b15b3e58fe2af795d4a20e66cf75a0aafd2507fefffc1f2b323e",
    "table2": "4d6df37b4bce6bb2851626657fefe5ab31b154974a15d02d6841d92b9025ba48",
    "table3": "0e42cb56964b628f2a4e7b38dc44646e5029561cf02ee8c666658dd6bb9ff5b2",
    "hetero": "5fa62880a5e52c18900a431e2c3d031fe7aa477667ee762a4accefa32b3024f9",
    "overhead": "5a132c1c06a6990af61cf370ee0ddf9951435dbe7e25fc227be1f1899a2e3ade",
    "ablations": "24c4ab4d81e808d1167a5afb76a416ea88b3a34b7581d4803dd5ca4870172910",
    "asp": "9a90600abbf82eef7d52f49fef634e0d2f8c93cbda585449a98579ad2a847e42",
    "devices": "d0256ed15d495d564d14225c66ff29437b7e05b4bf17b32ee09d8992e6fb63d7",
    "dynamic": "44c8ee26f2b979481909733a49f3c6f950aaaf8e771c70c2746b7c3fdc0079e8",
    "convergence": "aa58b40df73995e0e0ecc4735f49205cc1940779d0886a27e3dd5c3e2069e736",
    "chaos": "a8afd7a91f31f07857e307f1a47c08e7f04c058fdf2c56a7125235e92bd49348",
    "scalability": "528abbb1e1c07ecfa21192ab544a6301f6f0cc76da23495893ab5d25f32f0b69",
    "collective": "225b0f0f22a87385a5026a94ef749b0754488c9e5cfa664cb7687c77b9d70ea6",
    "fleet": "41dd1c7b25a9e4b997cbe2edfe43f326969d00e2db5b4dca512ec08323ff76be",
}

_PLANNING_TIME = re.compile(r"(Algorithm 1 planning pass: )[0-9.]+( ms CPU)")


def masked(out: str) -> str:
    return _PLANNING_TIME.sub(r"\1X\2", out)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_printed_table(name: str, capsys) -> None:
    assert main(["run", name]) == 0
    out = masked(capsys.readouterr().out)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS[name], f"repro run {name} printed:\n{out}"
