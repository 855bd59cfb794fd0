#!/usr/bin/env python3
"""One sample path of the full mechanism on a second-order plant.

Watch the eavesdropper's covariance trace climb through every withheld or
dropped packet and then collapse the moment a packet slips through: the
intercepted measurement is worth little after a long silence because the
plant has wandered too far. The user, on a better link, rarely waits long.
"""

import numpy as np

from secest import ChannelParams, LinearSystem, Mechanism, collapse_events, simulate_trace

A = np.array([[1.2, 1.0], [0.0, 1.1]])
Q = np.array([[1.0, 0.5], [0.5, 2.0]])
sys = LinearSystem(A=A, C=np.array([[1.0, 0.0]]), Q=Q, R=1.0, Sigma0=Q)
ch = ChannelParams(p1=0.9, p2=0.6)

trace = simulate_trace(sys, Mechanism(p=0.51), ch, T=200, seed=42)

print(f"withholding p = {trace.p}: sensor sent {int(trace.sent.sum())}/201 packets")
print(f"user received {int(trace.gamma1.sum())}, eavesdropper {int(trace.gamma2.sum())}")

print(f"\ntime-averaged covariance trace, user:         {np.mean(trace.trP1[1:]):10.2f}")
print(f"time-averaged covariance trace, eavesdropper: {np.mean(trace.trP2[1:]):10.2f}")

events = collapse_events(trace)
print(f"\ninterceptions after >= 10 consecutive misses: {len(events)}")
for k, before, after in events:
    print(f"  step {k:3d}: trP2 {before:12.1f} -> {after:8.3f}  "
          f"(x{before / after:.0f} collapse)")

# the same seed with no withholding: both receivers stay comfortable,
# secrecy gone
nominal = simulate_trace(sys, Mechanism(p=1.0), ch, T=200, seed=42)
print(f"\nsame noise sample at p = 1.0:")
print(f"time-averaged covariance trace, user:         {np.mean(nominal.trP1[1:]):10.2f}")
print(f"time-averaged covariance trace, eavesdropper: {np.mean(nominal.trP2[1:]):10.2f}")
