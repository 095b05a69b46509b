"""Write the oracle reference: the simulator's natural-rule forced-strategy
Monte Carlo on the default DGP and grid.

    python3 perfbench/oracle_ref.py OUT.csv

It depends on no benchmark seed: it is the population truth the estimates
are checked against, computed once per checkout (about 20 s, 310 MB).
"""

import sys
from pathlib import Path

from checks import REFERENCE_N_MC, REFERENCE_SEED

ROOT = Path(__file__).resolve().parent.parent


def main(out):
    sys.path.insert(0, str(ROOT / "src"))
    from rcds.io import truth_to_csv
    from rcds.simulate import DgpParams, oracle_truth
    from rcds.strategies import StrategyGrid

    truth = oracle_truth(DgpParams(), StrategyGrid.default(), REFERENCE_N_MC,
                         rule="natural", seed=REFERENCE_SEED)
    truth_to_csv(truth, out)


if __name__ == "__main__":
    main(sys.argv[1])
