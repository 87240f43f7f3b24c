"""Walkthrough: coded bit-error-rate of the estimators across SNR.

Runs a reduced copy of the BER-vs-SNR study (150 trials per point instead
of the shipped scenario's 500, one pass over common frames per SNR) and
prints the resulting table.  It ran in 1.75-2.0 s on a 2-CPU Xeon with
Python 3.11 and numpy 2.4.
The full-size study is available through the scenario harness:

    pnofdm run --config <file with 'scenario = ber-vs-snr'> --out results/

Expected picture: the constrained estimators sit between the unconstrained
fit and the genie reference, with the geometry-constrained fit closest to
ideal at high SNR.
"""

from pnofdm.link import LinkConfig, ber_records

TRIALS = 150
SNRS = (10.0, 20.0, 30.0)
ESTIMATORS = ("cpe", "cis", "uls", "nls", "gls", "genie")

print(f"{TRIALS} frames per point, 128 subcarriers, 8 estimated components, rho=0.02\n")
header = f"{'snr_db':>7s} " + " ".join(f"{e:>10s}" for e in ESTIMATORS)
print(header)
for snr in SNRS:
    records = ber_records(LinkConfig(snr_db=snr), ESTIMATORS, TRIALS, seed=515_000)
    print(" ".join([f"{snr:7.1f}"] + [f"{rec.ber:10.2e}" for rec in records.values()]))

print("""
Notes:
 * every estimator sees the same frames (common random numbers), so the
   columns are directly comparable row by row;
 * at 10 dB receiver noise dominates and the estimators bunch together;
   the geometry constraint pays off in the high-SNR, leakage-limited regime;
 * 'genie' compensates with the true rotation and marks the channel-limited
   floor of this desk-scale link.
""")
