"""Gaussian-pulse shaping by one cavity round trip.

A modulator adds gamma_T to the pulse parameter (time-like element); the
filter adds 1/gamma_F to its inverse (frequency-like element).  Their
composition is a Moebius map whose normalized iteration converges to the
mode-locked width g = g_m, following the tanh solution of
dg/dtau = g_m^2 - g^2.
"""

import numpy as np

from ringlock import pulses

gt, gf = 2.0 + 1.0j, 4.0 - 0.5j
el = pulses.compose(pulses.element_time_like(gt), pulses.element_freq_like(gf))
print("round-trip element (modulator then filter):")
print(f"  A = {el.a}  (= 1 + g_m^2, g_m^2 = gamma_T/gamma_F = {gt/gf})")
print(f"  B = {el.b}  (= 1/gamma_F)")
print(f"  C = {el.c}  (= gamma_F g_m^2 = gamma_T)")
print(f"  D = {el.d}")

gm = 1e-3
n = 5000
traj = pulses.roundtrip_iterate(0.0, gm, n).real
print(f"\nnormalized iteration from g = 0 with g_m = {gm}:")
print("  trips   g (iterated)   g_m tanh(g_m n)")
for i in (10, 500, 1000, 2500, 5000):
    exact = pulses.continuous_solution(gm, 0.0, float(i)).real
    print(f"  {i:5d}   {traj[i]:.6e}   {exact:.6e}")
rel = np.abs(traj[1:] - gm * np.tanh(gm * np.arange(1, n + 1)))
print(f"  max relative deviation: {np.max(rel / (gm * np.tanh(gm * np.arange(1, n+1)))):.1e}"
      f"  (scales as ~g_m/2)")

print("\nfilter bandwidth to pulse-parameter scale:")
for dl, label in ((0.2e-9, "grating, 0.2 nm"), (50e-9, "amplifier, 50 nm")):
    v = pulses.gamma_f_from_band(dl, 1550e-9, 1.47)
    print(f"  |gamma_F|^(1/2) ({label:17s}) = {v:.3e} rad/s")
