"""Hot numeric kernels for the coherence-vector integrator.

The integrator entry point ``coherence_euler`` is batched: B points that
share the cell order, clock zones, driven cells, time grid and clock
advance in lockstep, each with its own kink matrix ``kink[b]`` (n x n),
drive values ``drive_values[b]`` (n,) and temperature ``temperature[b]``.
The recorded times and clock values are shared by the batch; the recorded
polarizations are per point, ``rec_pols[b]``. A single run is the B=1 case.

Which kernel runs depends on the problem size only, never on a user
option: ``coherence_euler`` runs ``coherence_euler_numpy``, one numpy
kernel vectorised over (batch x free cells), unless the batch is so small
that the loop kernel once per point is faster (``uncompiled_kernel``: a
single run of a two- or three-cell inverter, say).

The numpy kernel is bit-identical to the loop kernel run once per point
(``coherence_euler_loop``), which is kept as the reference: every ``+``,
``*``, ``/`` and ``sqrt`` is the same IEEE operation in the same order,
the local field is summed over ascending j as an explicit per-column loop
(zero and self columns included), and the transcendental functions stay
on libm. The four clock values per step are ``math.cos`` scalars shared
by the batch, and the thermal tanh is ``math.tanh`` mapped over the
elements, because ``np.tanh`` differs from libm in the last bit on about
a fifth of its arguments. ``benchmarks/bench_coherence.py`` times the
kernels against each other.
"""

from __future__ import annotations

import math

import numpy as np

# No compiled kernel exists; perfbench/run.py reports this in its
# environment line.
NUMBA_ENABLED = False

UNIT_BALL_LIMIT_SQ = (1.0 + 1e-6) ** 2


def clock_value(t: float, zone: int, periods: float, total_time: float,
                shift: float, amplitude: float, low: float, high: float) -> float:
    value = shift + amplitude * math.cos(
        2.0 * math.pi * periods * t / total_time - zone * math.pi / 2.0)
    if value < low:
        return low
    if value > high:
        return high
    return value


def _coherence_euler(kink, zones, driven, drive_values, n_steps, dt, total_time,
                     periods, clock_shift, clock_amplitude, clock_low, clock_high,
                     tau, temperature, boltzmann_k, hbar, stride,
                     rec_times, rec_clocks, rec_pols):
    """Integrate d(lambda)/dt = Gamma x lambda - (lambda - lambda_ss)/tau
    for one point (kink (n, n), drive_values (n,), scalar temperature).

    Gamma = (-2*gamma_z(t), 0, E_i(t))/hbar per cell; lambda_ss is the
    thermal steady state tanh(hbar*|Gamma|/(2 kB T)) * Gamma/|Gamma|, and
    0 when |Gamma| = 0; the polarization is lambda_z. Driven cells hold
    their drive value. Updates are synchronous: all local fields are
    evaluated from the previous step's polarizations. Returns
    (final_pol, ok, bad_step); ok=False means |lambda| exceeded 1 + 1e-6
    (or became NaN) at step bad_step.

    Recording arrays are filled every `stride` steps (step 0 included).
    """
    n = kink.shape[0]
    pol = np.zeros(n)
    lam = np.zeros((n, 3))
    fields = np.zeros(n)
    gammas = np.zeros(4)
    for i in range(n):
        if driven[i]:
            pol[i] = drive_values[i]
    limit_sq = UNIT_BALL_LIMIT_SQ
    rec = 0
    for step in range(n_steps + 1):
        t = step * dt
        for z in range(4):
            gammas[z] = clock_value(t, z, periods, total_time, clock_shift,
                                    clock_amplitude, clock_low, clock_high)
        if step % stride == 0 and rec < rec_times.shape[0]:
            rec_times[rec] = t
            for z in range(4):
                rec_clocks[rec, z] = gammas[z]
            for i in range(n):
                rec_pols[rec, i] = pol[i]
            rec += 1
        if step == n_steps:
            break
        # local fields from the previous step's polarizations, ascending id
        for i in range(n):
            if driven[i]:
                continue
            acc = 0.0
            for j in range(n):
                acc += kink[i, j] * pol[j]
            fields[i] = acc
        for i in range(n):
            if driven[i]:
                continue
            gx = -2.0 * gammas[zones[i]] / hbar
            gz = fields[i] / hbar
            mag = math.sqrt(gx * gx + gz * gz)
            if temperature > 0.0:
                th = math.tanh(hbar * mag / (2.0 * boltzmann_k * temperature))
            else:
                th = 1.0
            if mag == 0.0:
                ss_x = 0.0
                ss_z = 0.0
            else:
                ss_x = th * gx / mag
                ss_z = th * gz / mag
            lx = lam[i, 0]
            ly = lam[i, 1]
            lz = lam[i, 2]
            # Gamma x lambda with Gamma = (gx, 0, gz)
            dx = -gz * ly - (lx - ss_x) / tau
            dy = gz * lx - gx * lz - ly / tau
            dz = gx * ly - (lz - ss_z) / tau
            nx = lx + dt * dx
            ny = ly + dt * dy
            nz = lz + dt * dz
            lam[i, 0] = nx
            lam[i, 1] = ny
            lam[i, 2] = nz
            pol[i] = nz
            norm_sq = nx * nx + ny * ny + nz * nz
            if not norm_sq <= limit_sq:
                return pol, False, step
    return pol, True, -1


def coherence_euler_numpy(kink, zones, driven, drive_values, n_steps, dt,
                          total_time, periods, clock_shift, clock_amplitude,
                          clock_low, clock_high, tau, temperature, boltzmann_k,
                          hbar, stride, rec_times, rec_clocks, rec_pols):
    """Batched ``_coherence_euler``, vectorised over (batch x free cells).

    kink (B, n, n), drive_values (B, n), temperature (B,), rec_pols
    (B, n_rec, n); zones and driven (n,) and everything else are shared.
    Returns (final_pol (B, n), ok (B,), bad_step (B,)). An element that
    leaves the unit ball keeps its own first bad step; the loop stops once
    every element has failed.
    """
    batch, n = drive_values.shape
    free = np.flatnonzero(~driven)
    width = free.size
    pol = np.where(driven, drive_values, 0.0)
    # lam[c] is component c of every free cell's coherence vector; it is
    # only updated in place, so lx, ly, lz and the views below stay live
    lam = np.zeros((3, batch, width))
    lx, ly, lz = lam
    steady = np.zeros_like(lam)      # lambda_ss; its y component stays 0
    ss_x, _, ss_z = steady
    deriv = np.empty_like(lam)       # Gamma x lambda, then d(lambda)/dt
    dx, dy, dz = deriv
    sq = np.empty_like(lam)
    sq_x, sq_y, sq_z = sq
    norm_sq = np.empty((batch, width))
    # column j of the field sum: kink[:, free, j] times P_j, where P_j is a
    # drive value or a view of lambda_z
    kink_cols = [np.ascontiguousarray(kink[:, free, j]) for j in range(n)]
    slot = {int(i): k for k, i in enumerate(free)}
    pol_cols = [lz[:, slot[j]:slot[j] + 1] if j in slot else pol[:, j:j + 1]
                for j in range(n)]
    field = np.zeros((batch, width))
    free_zones = [int(zones[i]) for i in free]
    one_zone = len(set(free_zones)) == 1
    # 2 kB T per row; rows with T = 0 take th = 1.0 (their slices of the
    # flat tanh list), so their placeholder 1.0 is never used
    cold = temperature <= 0.0
    thermal = np.where(cold, 1.0, 2.0 * boltzmann_k * temperature)[:, None]
    cold_slices = [slice(b * width, (b + 1) * width) for b in np.flatnonzero(cold)]
    cold_th = [1.0] * width
    tanh = math.tanh
    ok = np.ones(batch, dtype=np.bool_)
    bad_step = np.full(batch, -1, dtype=np.int64)
    rec = 0
    with np.errstate(all="ignore"):  # failed elements may overflow
        for step in range(n_steps + 1):
            t = step * dt
            gammas = [clock_value(t, z, periods, total_time, clock_shift,
                                  clock_amplitude, clock_low, clock_high)
                      for z in range(4)]
            if step % stride == 0 and rec < rec_times.shape[0]:
                rec_times[rec] = t
                rec_clocks[rec] = gammas
                pol[:, free] = lz
                rec_pols[:, rec] = pol
                rec += 1
            if step == n_steps:
                break
            field.fill(0.0)
            for kink_col, pol_col in zip(kink_cols, pol_cols):
                field += kink_col * pol_col
            gx_zone = [-2.0 * g / hbar for g in gammas]
            gx = (gx_zone[free_zones[0]] if one_zone
                  else np.array([gx_zone[z] for z in free_zones]))
            gz = field / hbar
            mag = np.sqrt(gx * gx + gz * gz)
            arg = (hbar * mag / thermal).ravel().tolist()
            th = list(map(tanh, arg))
            for cold_slice in cold_slices:
                th[cold_slice] = cold_th
            th = np.array(th).reshape(mag.shape)
            np.divide(np.multiply(th, gx, out=ss_x), mag, out=ss_x)
            np.divide(np.multiply(th, gz, out=ss_z), mag, out=ss_z)
            if 0.0 in arg:  # hbar * |Gamma| is 0 here: lambda_ss = 0 where |Gamma| = 0
                zero = mag == 0.0
                ss_x[zero] = 0.0
                ss_z[zero] = 0.0
            # d(lambda)/dt = Gamma x lambda - (lambda - lambda_ss)/tau, the
            # y row of (lambda - lambda_ss) being ly - 0.0 = ly exactly
            np.multiply(-gz, ly, out=dx)
            np.subtract(gz * lx, gx * lz, out=dy)
            np.multiply(gx, ly, out=dz)
            deriv -= (lam - steady) / tau
            lam += dt * deriv
            np.multiply(lam, lam, out=sq)
            np.add(np.add(sq_x, sq_y, out=norm_sq), sq_z, out=norm_sq)
            if not norm_sq.max(initial=0.0) <= UNIT_BALL_LIMIT_SQ:  # NaN fails too
                failed = ok & ~(norm_sq <= UNIT_BALL_LIMIT_SQ).all(axis=1)
                bad_step[failed] = step
                ok[failed] = False
                if not ok.any():
                    break
    pol[:, free] = lz
    return pol, ok, bad_step


def coherence_euler_loop(kink, zones, driven, drive_values, n_steps, dt,
                         total_time, periods, clock_shift, clock_amplitude,
                         clock_low, clock_high, tau, temperature, boltzmann_k,
                         hbar, stride, rec_times, rec_clocks, rec_pols):
    """The batched signature over ``_coherence_euler``: the loop kernel run
    once per batch element, the reference the numpy kernel is compared with
    (tests) and benchmarked against."""
    batch = drive_values.shape[0]
    final = np.zeros(drive_values.shape)
    ok = np.ones(batch, dtype=np.bool_)
    bad_step = np.full(batch, -1, dtype=np.int64)
    for b in range(batch):
        final[b], ok[b], bad_step[b] = _coherence_euler(
            kink[b], zones, driven, drive_values[b], n_steps, dt, total_time,
            periods, clock_shift, clock_amplitude, clock_low, clock_high, tau,
            float(temperature[b]), boltzmann_k, hbar, stride, rec_times,
            rec_clocks, rec_pols[b])
    return final, ok, bad_step


def uncompiled_kernel(batch: int, n: int, width: int):
    """The faster batched kernel for `batch` points of n cells, `width` of
    them free. Both give identical bits, so only speed decides: the numpy
    kernel costs about 25 + 2n us per step at any batch size, the loop
    kernel about 3 + width * (3 + 0.8n) us per point and step (CPython
    3.11, numpy 2.4, 2-vCPU x86 VM), so small single runs stay on the
    loop."""
    loop_us = batch * (3.0 + width * (3.0 + 0.8 * n))
    numpy_us = 25.0 + 2.0 * n
    return coherence_euler_loop if loop_us < numpy_us else coherence_euler_numpy


def coherence_euler(kink, zones, driven, drive_values, *args):
    """The batched integrator: ``uncompiled_kernel``'s choice for this
    size, called with the arguments of ``coherence_euler_numpy``."""
    batch, n = drive_values.shape
    width = n - int(np.count_nonzero(driven))
    kernel = uncompiled_kernel(batch, n, width)
    return kernel(kink, zones, driven, drive_values, *args)
