"""Golden output digests for ``nextsym simulate``.

The sha256 of ``metrics.csv`` and ``tails.csv`` is pinned for small configs
covering every process family (iid, order-2 markov, hmm) in every scoring
mode (indicator, table payoff, and distribution with ``--wide``).  A change
in these bytes must be a deliberate choice, recorded with the new digests,
never the side effect of a refactor.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from nextsym.cli import main

PROCESSES = {
    "iid": {"kind": "iid", "alphabet": "abc", "probs": [0.2, 0.5, 0.3]},
    "markov2": {
        "kind": "markov",
        "alphabet": "01",
        "order": 2,
        "transition": [[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.1, 0.9]],
    },
    "hmm": {
        "kind": "hmm",
        "alphabet": "abc",
        "transition": [[0.95, 0.05], [0.1, 0.9]],
        "emission": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]],
    },
}

PAYOFFS = {
    "indicator": lambda symbols: {"kind": "indicator", "symbol": symbols[-1]},
    "table": lambda symbols: {
        "kind": "table",
        "values": {s: v for s, v in zip(symbols, (-1.5, 2.25, 0.125))},
    },
    "distribution": lambda symbols: {"kind": "distribution"},
}

# (metrics.csv, tails.csv) sha256 per (process, payoff)
GOLDEN = {
    ("hmm", "distribution"): (
        "f5bdc9bf1b8d39ccfbea25b7049f67cd0b9de63e1701192ade71c414ae67dea5",
        "d88bf547cd515cf2d18b80e84bb78946388b96cbf5253027611d348630a95b49",
    ),
    ("hmm", "indicator"): (
        "a9e3052d6ea21f681a8854edb12c2bb7fe9a2a2216a0670a7665230f94ad3d7a",
        "2e751e6b824b4b442d30a61900609d0012e02c774f26b11d9fc71c6c174a3edb",
    ),
    ("hmm", "table"): (
        "4aca52dae6901b8149566910ef2bb803fef27edfd61788c6b1ddafc41ce07525",
        "316199b251de1c380cf5bed53eda9d36d642c6718b3fbc185f99868b47c1997c",
    ),
    ("iid", "distribution"): (
        "f45790b0439dc182cb5381bcead703c67c4816fa93ce27608e7173ef850f723d",
        "1219fde3e8f59f6c10a829dc80b17f1cfd8f178fc5c71e6625fd792b191c2104",
    ),
    ("iid", "indicator"): (
        "bf33d78cfbf363da56f750933acfacd34c297fffdbed4e1e6ccc3c7c9b2a101e",
        "000278267ca33046acab84ca30ad14ec6ea20365de1311a00e2ef45fe1218a3a",
    ),
    ("iid", "table"): (
        "ec7aa7ba0029c620d7e42a7604729bf098feedb0d135dd2d9c3861f492e1c648",
        "c72192c2c689aa4ea03828e47a75a4b7837fb24ce8e70c34bf9d59ef86ccfb20",
    ),
    ("markov2", "distribution"): (
        "a493152c2d140fd5e3b7e7b95f756345601fdf09cf4e69904d6650ac9bb85c5d",
        "514b693b5a3e490a9b0dccf321fe73e46aef5639e77b76926d0637087f0a27de",
    ),
    ("markov2", "indicator"): (
        "ebd39534a9f6337a441c7c64874f98ca171b98733457823792ef5e2e1e5961e8",
        "514b693b5a3e490a9b0dccf321fe73e46aef5639e77b76926d0637087f0a27de",
    ),
    ("markov2", "table"): (
        "f2d6596bd8509896f4ea7fcb830b2509206b2b4b6cda7d22062b0e37bce6c5e8",
        "94119da7aed8330eb02a3a06386bb390b8f375ed207d32b8f390342e8ea486ca",
    ),
}


def _document(process: str, payoff: str) -> dict:
    proc = PROCESSES[process]
    symbols = list(proc["alphabet"])
    doc = {
        "process": proc,
        "experiment": {
            "horizon": 3000,
            "replicates": 2,
            "base_seed": 7,
            "epsilons": [0.05, 0.2],
            "payoff": PAYOFFS[payoff](symbols),
        },
    }
    if process == "markov2":
        # K(n) = max(1, floor(log2(n) / 4)) steps from 1 to 2 at n = 256
        doc["schedules"] = {"K": {"kind": "log", "coeff": 0.25}}
    return doc


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
@pytest.mark.parametrize("process", sorted(PROCESSES))
def test_simulate_output_digests(tmp_path, capsys, process, payoff):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_document(process, payoff)))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    if payoff == "distribution":
        argv.append("--wide")
    assert main(argv) == 0
    got = (_sha256(out / "metrics.csv"), _sha256(out / "tails.csv"))
    assert got == GOLDEN[(process, payoff)]
