"""Classify the data races of one island-GA config in all three modes.

The paper's central claim (§2.1) is that emerging applications tolerate
data races *up to a staleness bound*: the races a `Global_Read(age)`
program admits are exactly the bounded ones, while a fully asynchronous
program races without limit and a barrier-synchronized one does not race
at all.  This example makes the claim concrete: it runs the same P-deme
f1 island GA under the three coherence organisations with the
trace bus on, folds each trace into race classes
(:func:`repro.analysis.races.classify_races`), and prints one verdict
table.

Expected shape (any seed):

* synchronous    — every missed write is ordered by barrier traffic:
                   0 tolerated, 0 unbounded;
* asynchronous   — free-running `read_local` carries no contract:
                   >= 1 unbounded race;
* Global_Read    — races exist but all are tolerated, and the maximum
                   observed staleness never exceeds the declared age.

Run:  python examples/race_classification.py [function-id] [n-demes] [age]
"""

import sys

from repro.experiments.race_report import classify_three_modes, race_table


def main(fid: int = 1, n_demes: int = 4, age: int = 10) -> None:
    print(
        f"f{fid} island GA, {n_demes} demes, Global_Read age bound {age}: "
        "classifying every (missed write, read) pair...\n"
    )
    runs = classify_three_modes(fid=fid, n_demes=n_demes, age=age, n_generations=60, seed=0)
    print(race_table(runs))

    gr = runs[-1]
    print(
        f"\nGlobal_Read run: {gr.summary['tolerated_races']} tolerated race(s), "
        f"max staleness {gr.summary['max_observed_staleness']} <= bound {gr.age}; "
        f"{gr.summary['consistency_violations']} consistency violation(s)."
    )
    sample = [p for p in gr.pairs if p.classification.value == "tolerated"][:3]
    if sample:
        print("sample tolerated pairs:")
        for pair in sample:
            print(f"  {pair.describe()}")


if __name__ == "__main__":
    main(
        fid=int(sys.argv[1]) if len(sys.argv) > 1 else 1,
        n_demes=int(sys.argv[2]) if len(sys.argv) > 2 else 4,
        age=int(sys.argv[3]) if len(sys.argv) > 3 else 10,
    )
