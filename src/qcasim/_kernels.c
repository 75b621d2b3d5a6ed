/* The compiled kernels of qcasim, one library with two entry points:
 *
 * qcasim_coherence_euler, the batched coherence-vector Euler integrator,
 * a transcription of qcasim.kernels.coherence_euler_loop: the points of a
 * batch advance in lockstep.
 *
 * qcasim_bistable_sweep, the bistable Gauss-Seidel sweep, a transcription
 * of qcasim.kernels.bistable_sweep_loop.
 *
 * Every floating-point operation is the loop kernel's, in its order, so
 * the results are bit-identical to it. Build with -ffp-contract=off and
 * never with -ffast-math: a fused multiply-add would change the bits.
 * cos, tanh and sqrt are libm's, as math.cos, math.tanh and math.sqrt are.
 *
 * In the integrator, the local field of free cell i of point b is summed
 * over row i of the neighbor list the points share: columns
 * cols[offsets[i]:offsets[i + 1]] in ascending order, with point b's kink
 * energies
 * energies[b * nnz + k] at the same positions k. A pair that point b
 * lacks has energy 0.0 and leaves the sum as a sum over b's own neighbors
 * (or over every cell) would be: the sum starts at +0.0, never becomes
 * -0.0, and adding +-0.0 (a zero energy times a finite polarization)
 * leaves any other value as it is. Every polarization of a point is
 * finite until the unit-ball guard stops that point.
 *
 * A point whose coherence vector leaves the unit ball (or becomes NaN)
 * stops at that cell, mid-sweep: ok[b] = 0, bad_step[b] = the step, its
 * polarizations stay as they are and it is no longer recorded. A point
 * where |Gamma|^2 overflows to inf fails the same way, at that cell and
 * before its update. The batch
 * ends once every point has failed. The shared times and clock values are
 * recorded at every recording step that some point is still alive at.
 */

#include <math.h>
#include <stdint.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

static double clock_value(double t, int64_t zone, double periods,
                          double total_time, double shift, double amplitude,
                          double low, double high)
{
    double value = shift + amplitude * cos(2.0 * M_PI * periods * t / total_time
                                           - (double)zone * M_PI / 2.0);
    if (value < low)
        return low;
    if (value > high)
        return high;
    return value;
}

void qcasim_coherence_euler(
    int64_t batch, int64_t n,
    const int64_t *offsets, const int64_t *cols, const double *energies,
    const int64_t *zones, const uint8_t *driven, const double *drive_values,
    int64_t n_steps, double dt, double total_time, double periods,
    double clock_shift, double clock_amplitude, double clock_low,
    double clock_high, double tau, const double *temperature,
    double boltzmann_k, double hbar, double limit_sq, int64_t stride,
    int64_t n_rec, double *rec_times, double *rec_clocks, double *rec_pols,
    double *pol, uint8_t *ok, int64_t *bad_step,
    double *lam, double *fields)
{
    double gammas[4], gx_zone[4];
    int64_t nnz = offsets[n];
    int64_t alive = batch;
    int64_t rec = 0;

    for (int64_t b = 0; b < batch; b++) {
        ok[b] = 1;
        bad_step[b] = -1;
        for (int64_t i = 0; i < n; i++) {
            pol[b * n + i] = driven[i] ? drive_values[b * n + i] : 0.0;
            lam[(b * n + i) * 3 + 0] = 0.0;
            lam[(b * n + i) * 3 + 1] = 0.0;
            lam[(b * n + i) * 3 + 2] = 0.0;
        }
    }

    for (int64_t step = 0; step <= n_steps && alive > 0; step++) {
        double t = (double)step * dt;
        for (int z = 0; z < 4; z++) {
            gammas[z] = clock_value(t, z, periods, total_time, clock_shift,
                                    clock_amplitude, clock_low, clock_high);
            gx_zone[z] = -2.0 * gammas[z] / hbar;
        }
        int record = step % stride == 0 && rec < n_rec;
        if (record) {
            rec_times[rec] = t;
            for (int z = 0; z < 4; z++)
                rec_clocks[rec * 4 + z] = gammas[z];
        }
        for (int64_t b = 0; b < batch; b++) {
            if (!ok[b])
                continue;
            double *p = pol + b * n;
            const double *e = energies + b * nnz;
            if (record)
                for (int64_t i = 0; i < n; i++)
                    rec_pols[(b * n_rec + rec) * n + i] = p[i];
            if (step == n_steps)
                continue;
            /* local fields from the previous step's polarizations */
            for (int64_t i = 0; i < n; i++) {
                if (driven[i])
                    continue;
                double acc = 0.0;
                for (int64_t k = offsets[i]; k < offsets[i + 1]; k++)
                    acc += e[k] * p[cols[k]];
                fields[i] = acc;
            }
            double temp = temperature[b];
            for (int64_t i = 0; i < n; i++) {
                if (driven[i])
                    continue;
                double gx = gx_zone[zones[i]];
                double gz = fields[i] / hbar;
                double mag = sqrt(gx * gx + gz * gz);
                if (isinf(mag)) {
                    /* |Gamma|^2 overflows: lambda_ss would be 0 */
                    ok[b] = 0;
                    bad_step[b] = step;
                    alive--;
                    break;
                }
                double th;
                if (temp > 0.0)
                    th = tanh(hbar * mag / (2.0 * boltzmann_k * temp));
                else
                    th = 1.0;
                double ss_x, ss_z;
                if (mag == 0.0) {
                    ss_x = 0.0;
                    ss_z = 0.0;
                } else {
                    ss_x = th * gx / mag;
                    ss_z = th * gz / mag;
                }
                double *l = lam + (b * n + i) * 3;
                double lx = l[0], ly = l[1], lz = l[2];
                /* Gamma x lambda with Gamma = (gx, 0, gz) */
                double dx = -gz * ly - (lx - ss_x) / tau;
                double dy = gz * lx - gx * lz - ly / tau;
                double dz = gx * ly - (lz - ss_z) / tau;
                double nx = lx + dt * dx;
                double ny = ly + dt * dy;
                double nz = lz + dt * dz;
                l[0] = nx;
                l[1] = ny;
                l[2] = nz;
                p[i] = nz;
                double norm_sq = nx * nx + ny * ny + nz * nz;
                if (!(norm_sq <= limit_sq)) {
                    ok[b] = 0;
                    bad_step[b] = step;
                    alive--;
                    break;
                }
            }
        }
        if (record)
            rec++;
    }
}

/* The bistable update f(x) = x / sqrt(1 + x^2). Where x * x overflows
 * (|x| > ~1.3e154) the true value rounds to +-1. */
static double saturate(double x)
{
    double square = x * x;
    if (square == INFINITY)
        return copysign(1.0, x);
    return x / sqrt(1.0 + square);
}

/* Sweep the free cells, at positions free_at[0..n_free), Gauss-Seidel in
 * that order: pols[k] <- saturate(field_k / two_gamma), each field summed
 * from +0.0 over row k of the neighbor list in ascending column, until the
 * largest change of a sweep is below tolerance or max_iterations sweeps
 * have run. pols is updated in place. Returns 1 if the last sweep
 * converged, else 0; *sweeps is the number of sweeps run and *worst_at
 * the position whose change was the largest in the last sweep (the first
 * such, -1 if no change was above 0). */
int64_t qcasim_bistable_sweep(
    int64_t n_free, const int64_t *free_at,
    const int64_t *offsets, const int64_t *cols, const double *energies,
    double *pols, double two_gamma, double tolerance, int64_t max_iterations,
    int64_t *sweeps, int64_t *worst_at)
{
    *sweeps = 0;
    *worst_at = -1;
    for (int64_t sweep = 0; sweep < max_iterations; sweep++) {
        double worst = 0.0;
        int64_t worst_k = -1;
        for (int64_t f = 0; f < n_free; f++) {
            int64_t k = free_at[f];
            double field = 0.0;
            for (int64_t e = offsets[k]; e < offsets[k + 1]; e++)
                field += energies[e] * pols[cols[e]];
            double value = saturate(field / two_gamma);
            double change = fabs(value - pols[k]);
            if (change > worst) {
                worst = change;
                worst_k = k;
            }
            pols[k] = value;
        }
        *sweeps = sweep + 1;
        *worst_at = worst_k;
        if (worst < tolerance)
            return 1;
    }
    return 0;
}
