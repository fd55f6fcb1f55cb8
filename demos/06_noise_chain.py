"""Amplifier quantum noise to mode-locking threshold, end to end.

The erbium amplifier's noise figure sets the effective phase-noise
strength T_N of the mode lattice, which in turn fixes both the pulse-train
linewidth beta_N and the huge gamma_H1/gamma_H0 ratio that makes the
mechanical mode-locking threshold orders of magnitude lower than the
self-oscillation one.
"""

import numpy as np

from ringlock import thermomech as tm

omega_m = 2 * np.pi * 368.2e3           # mirror used for the locking runs
chain = tm.NoiseChain(g_oa=1600.0, n_pi=1.25, gamma_om=0.1 * omega_m,
                      n_p=2e6, lambda_l=1550e-9, delta_lambda=0.2e-9,
                      l_r=553.88, omega_p=2 * np.pi * 193.4e12)

a_nf = tm.noise_figure(chain.g_oa, chain.n_pi)
t_n, n_r, p_oa = tm.effective_noise(chain)

print(f"small-signal gain G = {chain.g_oa:.0f}, inversion n_PI = "
      f"{chain.n_pi}")
print(f"noise figure alpha_NF = 2 n_PI (G-1)/G = {a_nf:.4f}")
print(f"effective noise strength T_N = {t_n:.1f} 1/s")
print(f"modes in the filter band N_R = L_R dlambda/lambda^2 = {n_r:.0f}")
print(f"amplifier output power P_OA = {p_oa*1e3:.2f} mW")
print()
print(f"2 w_m / T_N = {2*omega_m/t_n:.0f}  "
      "(the |gamma_H1 / gamma_H0| enhancement)")
print(f"MML/SEO threshold ratio ~ T_N/(2 w_m) = {t_n/(2*omega_m):.2e}")
print()
mu_m = 1e4  # representative modulation amplitude, 1/s
print(f"at modulation amplitude mu_M = {mu_m:.0f} 1/s the pulse-train "
      f"linewidth is beta_N = T_N/(2 mu_M) = {t_n/(2*mu_m):.2e}")
