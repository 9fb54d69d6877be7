"""Set-up probe: a fresh interpreter imports qbattery and parses one
workload's inputs, then exits.  The benchmark times whole launches of it.

    python3 perfbench/setup_probe.py SRC_DIR INPUTS_JSON
"""

from __future__ import annotations

import json
import sys


def parse_inputs(inputs: dict) -> list:
    """Configs parsed or battery specs validated, as a user's script would."""
    import qbattery
    from qbattery import experiment_cli

    if "batteries" in inputs:
        return [
            qbattery.BatterySpec(J=s["J"], gamma=s["gamma"], delta=s["delta"], h=s["h"],
                            n_sites=s["n"], boundary=s["boundary"])
            for s in inputs["batteries"]
        ]
    return [(name, experiment_cli.parse_config_text(text)) for name, text in inputs["configs"]]


def main(argv: list[str]) -> int:
    src, path = argv
    sys.path.insert(0, src)
    with open(path) as fh:
        parse_inputs(json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
