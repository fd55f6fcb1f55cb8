"""Injection locking of the pulse train by external modulation.

The relative phase obeys dphi/dtau + sin(phi) = i_b.  Below |i_b| = 1 the
train locks; above it the phase slips in comb-function bursts and the
detector spectrum grows a ladder of sidebands spaced by the beat
frequency, with amplitude ratio exp(-arccosh(i_b)) between rungs.
"""

import numpy as np

from ringlock import adler

params = adler.AdlerParams(
    omega_am=2 * np.pi * 371.4e3, omega_r=2 * np.pi * 371.3e3, v_am0=0.156)
print(f"calibration: zeta_AM = {params.zeta_am:.1f} rad/(s V) from the "
      f"0.156 V locking threshold at 100 Hz detuning")

print("\nlocked vs slipping:")
for v in (0.312, 0.156, 0.078):
    i_b = adler.normalized_bias(params, v)
    beat = adler.beat_frequency(i_b)
    state = "locked" if abs(i_b) <= 1 else \
        f"slipping at {params.zeta_am * v * beat / (2*np.pi):.1f} Hz"
    print(f"  V_AM = {v:.3f} V: i_b = {i_b:.2f} -> {state}")

traj = adler.integrate_adler(0.5, 0.0, 40.0, 0.01)
print(f"\ni_b = 0.5 settles to arcsin(0.5) = {np.arcsin(0.5):.4f}: "
      f"phi(end) = {traj.phi[-1]:.4f}")

traj = adler.integrate_adler(2.0, 0.0, 200.0, 0.005)
slope = (traj.phi[-1] - traj.phi[len(traj.phi) // 2]) \
    / (traj.tau[-1] - traj.tau[len(traj.tau) // 2])
print(f"i_b = 2 mean slip rate: {slope:.4f} (sqrt(i_b^2-1) = "
      f"{np.sqrt(3):.4f})")

print("\nspectral map around the carrier (V_AM = V0/2, i_b = 2):")
smap = adler.pd_spectrum_sweep(params, np.array([0.078]), duration=0.5,
                               sample_rate=2.0 ** 20, segment_len=2 ** 16)
psd = smap.psd[:, 0]
f_am = params.omega_am / (2 * np.pi)
beat_hz = params.zeta_am * 0.078 * np.sqrt(3.0) / (2 * np.pi)
sel = np.abs(smap.freqs - f_am) < 4 * beat_hz
top = np.argsort(psd[sel])[-4:]
freqs_sel = smap.freqs[sel]
print("  strongest lines (Hz relative to the modulation):")
for i in sorted(top, key=lambda j: freqs_sel[j]):
    print(f"    {freqs_sel[i] - f_am:+9.1f} Hz   psd {psd[sel][i]:.3e}")
print(f"  predicted spacing: {beat_hz:.1f} Hz; amplitude ratio exp(-b) = "
      f"{np.exp(-np.arccosh(2)):.3f}")
