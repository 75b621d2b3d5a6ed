/* The compiled kernels of qcasim, one library with four entry points:
 *
 * qcasim_coherence_euler, the batched coherence-vector Euler integrator,
 * a transcription of qcasim.kernels.coherence_euler_loop: the points of a
 * batch advance in lockstep. One call runs the points b = first,
 * first + every, ... < batch of a batch, so that calls on disjoint sets
 * of points can run on threads of their own (see below).
 *
 * qcasim_bistable_sweep, the bistable Gauss-Seidel sweep, a transcription
 * of qcasim.kernels.bistable_sweep_loop.
 *
 * qcasim_format_sci, the CSV number text "%.5e" of an array of doubles,
 * written only where its rounding is proven correct; every other value is
 * handed back, to be formatted by Python's '%' (see its comment for the
 * proof). Its bytes are those of the loop path's '%' throughout.
 *
 * qcasim_write_rows, the rows of a block of CSV fields gathered from a
 * text table, a transcription of qcasim.kernels.write_rows_loop.
 *
 * In the two engine kernels, every floating-point operation is the loop
 * kernel's, in its order, so the results are bit-identical to it (the
 * integrator skips some, whose results it reuses; see below). Build
 * with -ffp-contract=off and never with -ffast-math: a fused
 * multiply-add would change the bits. cos, tanh and sqrt are libm's, as
 * math.cos, math.tanh and math.sqrt are.
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
 * Each free cell of each point keeps a struct cell_state in the scratch
 * that each call allocates for itself and frees at its end: its coherence
 * vector and the thermal steady state last computed (gz = field / hbar,
 * ss_x and ss_z), with the bit patterns of the clock term gx = -2
 * gamma_z / hbar and of the local field it was computed from. Where a
 * step's gx and field have those same bit patterns, the cell reuses gz,
 * ss_x and ss_z and skips the division, sqrt, tanh and the |Gamma|^2
 * overflow check; otherwise it computes them as the loop kernel does and
 * refreshes the entry. This is exact: the three values are a pure
 * function of gx, the field, the point's fixed temperature, hbar and kB
 * (libm's tanh is deterministic), and the stored ones passed the
 * overflow check when they were computed. The match is on bit patterns,
 * never ==, so -0.0 and 0.0 (and NaNs) stay apart. Every free cell of a
 * live point computes or matches its entry at every step, so from step 1
 * on the entry holds the previous step's values; at step 0 every cell
 * computes. Reuse pays while a zone's clock is clamped to clock_low or
 * clock_high (clock_low for about half of every period at the default
 * clock) and the fields repeat. The loop kernel stays the plain
 * reference and recomputes at every step: in Python the reuse saved
 * under 5%.
 *
 * Threads. A call reads the batch's arrays (energies, drive_values,
 * temperature) at the global point b and fills the caller's rec_pols,
 * final and bad_step in place at b, so a split batch is never gathered
 * or copied. Everything it writes at every step is in its own scratch,
 * indexed by its local point j (b = first + j * every): state (one
 * struct cell_state per point and cell), the working polarizations pols
 * (n doubles per point) and fields (n doubles). It copies pols to final
 * once, at the end. The scratch starts on a 64-byte line and spans whole
 * lines, so no two threads write to one cache line at every step (a
 * shared line would bounce between the cores). The shared arrays are
 * written only at recording steps (rec_pols, whose rows of different
 * points lie n_rec rows apart), at a failure (bad_step) and once at the
 * end (final). Only one call records the shared times and clocks: the
 * others pass NULL rec_times and rec_clocks. A call returns 0, or -1
 * when it cannot allocate its scratch, before it writes anything. There
 * is no static or global state.
 *
 * A point whose coherence vector leaves the unit ball (or becomes NaN)
 * stops at that cell, mid-sweep: bad_step[b] = the step (-1 while it
 * runs), its polarizations stay as they are and it is no longer
 * recorded. A point where |Gamma|^2 overflows to inf fails the same way,
 * at that cell and before its update. A call ends once every one of its
 * points has failed. The call that records the times and clock values
 * records every row, those after its last point failed included: a
 * row's time and clocks depend on its step alone.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The per-call scratch of one cell of one point. */
struct cell_state {
    double lam[3];                /* the coherence vector */
    uint64_t gx_bits, field_bits; /* what gz, ss_x and ss_z were computed from */
    double gz, ss_x, ss_z;
};

static uint64_t bits_of(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits;
}

int64_t qcasim_coherence_euler(
    int64_t batch, int64_t first, int64_t every, int64_t n,
    const int64_t *offsets, const int64_t *cols, const double *energies,
    const int64_t *zones, const uint8_t *driven, const double *drive_values,
    int64_t n_steps, double dt, double total_time, double periods,
    double clock_shift, double clock_amplitude, double clock_low,
    double clock_high, double tau, const double *temperature,
    double boltzmann_k, double hbar, double limit_sq, int64_t stride,
    int64_t n_rec, double *rec_times, double *rec_clocks, double *rec_pols,
    double *final, int64_t *bad_step)
{
    double gammas[4], gx_zone[4];
    int64_t nnz = offsets[n];
    int64_t alive = 0;
    int64_t rec = 0;

    /* the scratch of the call's points, in whole 64-byte lines */
    int64_t points = first < batch ? (batch - 1 - first) / every + 1 : 0;
    size_t bytes = (size_t)(points * n) * sizeof(struct cell_state)
                   + (size_t)(points * n + n) * sizeof(double);
    struct cell_state *state = aligned_alloc(64, (bytes / 64 + 1) * 64);
    if (state == NULL)
        return -1;
    double *pols = (double *)(state + points * n);
    double *fields = pols + points * n;

    /* point b of the batch is the call's local point j */
    for (int64_t b = first, j = 0; b < batch; b += every, j++) {
        bad_step[b] = -1;
        for (int64_t i = 0; i < n; i++) {
            pols[j * n + i] = driven[i] ? drive_values[b * n + i] : 0.0;
            state[j * n + i].lam[0] = 0.0;
            state[j * n + i].lam[1] = 0.0;
            state[j * n + i].lam[2] = 0.0;
        }
        alive++;
    }

    for (int64_t step = 0; step <= n_steps && alive > 0; step++) {
        double t = (double)step * dt;
        for (int z = 0; z < 4; z++) {
            gammas[z] = clock_value(t, z, periods, total_time, clock_shift,
                                    clock_amplitude, clock_low, clock_high);
            gx_zone[z] = -2.0 * gammas[z] / hbar;
        }
        int record = step % stride == 0 && rec < n_rec;
        if (record && rec_times != NULL) {
            rec_times[rec] = t;
            for (int z = 0; z < 4; z++)
                rec_clocks[rec * 4 + z] = gammas[z];
        }
        for (int64_t b = first, j = 0; b < batch; b += every, j++) {
            if (bad_step[b] >= 0)
                continue;
            double *p = pols + j * n;
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
                struct cell_state *s = state + j * n + i;
                double gx = gx_zone[zones[i]];
                uint64_t gx_bits = bits_of(gx), field_bits = bits_of(fields[i]);
                if (step == 0 || gx_bits != s->gx_bits
                    || field_bits != s->field_bits) {
                    double gz = fields[i] / hbar;
                    double mag = sqrt(gx * gx + gz * gz);
                    if (isinf(mag)) {
                        /* |Gamma|^2 overflows: lambda_ss would be 0 */
                        bad_step[b] = step;
                        alive--;
                        break;
                    }
                    double th;
                    if (temp > 0.0)
                        th = tanh(hbar * mag / (2.0 * boltzmann_k * temp));
                    else
                        th = 1.0;
                    s->gx_bits = gx_bits;
                    s->field_bits = field_bits;
                    s->gz = gz;
                    if (mag == 0.0) {
                        s->ss_x = 0.0;
                        s->ss_z = 0.0;
                    } else {
                        s->ss_x = th * gx / mag;
                        s->ss_z = th * gz / mag;
                    }
                }
                double gz = s->gz, ss_x = s->ss_x, ss_z = s->ss_z;
                double *l = s->lam;
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
                    bad_step[b] = step;
                    alive--;
                    break;
                }
            }
        }
        if (record)
            rec++;
    }

    /* the rows of the recording steps left after every point has failed */
    for (; rec_times != NULL && rec < n_rec && rec <= n_steps / stride; rec++) {
        double t = (double)(rec * stride) * dt;
        rec_times[rec] = t;
        for (int z = 0; z < 4; z++)
            rec_clocks[rec * 4 + z] = clock_value(t, z, periods, total_time,
                clock_shift, clock_amplitude, clock_low, clock_high);
    }

    for (int64_t b = first, j = 0; b < batch; b += every, j++)
        memcpy(final + b * n, pols + j * n, (size_t)n * sizeof(double));
    free(state);
    return 0;
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

/* a * 10^k for 0 <= |k| <= 44, in at most two correctly rounded
 * multiplications or divisions by the exact doubles 1e0 ... 1e22. */
static double scale_by_power_of_ten(double a, int64_t k)
{
    static const double powers[23] = {
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
        1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    if (k >= 0) {
        if (k > 22) {
            a *= 1e22;
            k -= 22;
        }
        return a * powers[k];
    }
    k = -k;
    if (k > 22) {
        a /= 1e22;
        k -= 22;
    }
    return a / powers[k];
}

/* Write the "%.5e" text of values[0..n) into text, back to back, and
 * set ends[i] to the offset in text just past the text of values[i] (at
 * most 13 bytes per value). A value whose rounding this cannot prove gets
 * an empty text: its index goes to rejected, in ascending order, and the
 * return value is their count.
 *
 * The proof. +-0 is exact: "0.00000e+00", with its sign. For a = |v| in
 * [1e-38, 1e38] and the decimal exponent e10,
 * the mantissa digits are the integer nearest to S = a * 10^(5 - e10),
 * which lies in [1e5, 1e6); e10 starts at floor(log10(a)) and steps by
 * one while the computed s falls outside [1e5, 1e6), up to 3 tries.
 * |5 - e10| <= 44, so s takes at most two correctly rounded operations,
 * each with relative error at most 2^-53: |s - S| <= (2^-52 + 2^-106) S
 * < 2.3e-10 for S < 1e6. A value is written only when s lies at least
 * 1e-7 (over 400 times that bound) from the nearest half-integer; then
 * S lies on the same side of it as s, and rounding s to nearest gives
 * the correctly rounded mantissa r. r = 1000000 carries into 100000 with
 * e10 + 1. Near that carry, and near 1e5, s and S may fall on different
 * sides of a power of ten, but both round to the same text. Everything
 * else is rejected: exact ties and near-ties (Python's '%' rounds a tie
 * half to even), subnormals, values outside the range, inf and NaN.
 * The margin test and the rounding compare s with exact values only:
 * s - floor(s) is exact. Build without -ffast-math, which would void the
 * error bound. */
int64_t qcasim_format_sci(int64_t n, const double *values, char *text,
                          int64_t *ends, int64_t *rejected)
{
    int64_t n_rejected = 0;
    char *p = text;
    for (int64_t i = 0; i < n; i++) {
        double a = fabs(values[i]);
        double s = 0.0;
        int64_t e10 = 0;
        if (a == 0.0) {
            if (signbit(values[i]))
                *p++ = '-';
            memcpy(p, "0.00000e+00", 11);
            p += 11;
            ends[i] = p - text;
            continue;
        }
        if (a >= 1e-38 && a <= 1e38) { /* false for NaN */
            e10 = (int64_t)floor(log10(a));
            /* the bounds on e10 keep |5 - e10| <= 44 whatever log10 gives */
            for (int tries = 0; tries < 3 && e10 >= -39 && e10 <= 49; tries++) {
                s = scale_by_power_of_ten(a, 5 - e10);
                if (s < 1e5)
                    e10--;
                else if (s >= 1e6)
                    e10++;
                else
                    break;
            }
        }
        double whole = floor(s);
        double fraction = s - whole;
        if (!(s >= 1e5 && s < 1e6) || fabs(fraction - 0.5) < 1e-7) {
            rejected[n_rejected++] = i;
            ends[i] = p - text;
            continue;
        }
        int64_t r = (int64_t)whole + (fraction > 0.5);
        if (r == 1000000) {
            r = 100000;
            e10++;
        }
        if (signbit(values[i]))
            *p++ = '-';
        *p++ = (char)('0' + r / 100000);
        *p++ = '.';
        for (int64_t unit = 10000; unit > 0; unit /= 10)
            *p++ = (char)('0' + r / unit % 10);
        *p++ = 'e';
        *p++ = e10 < 0 ? '-' : '+';
        int64_t m = e10 < 0 ? -e10 : e10;
        if (m >= 100) {
            *p++ = (char)('0' + m / 100);
            m %= 100;
        }
        *p++ = (char)('0' + m / 10);
        *p++ = (char)('0' + m % 10);
        ends[i] = p - text;
    }
    return n_rejected;
}

/* Write n_rows rows of n_cols fields into out and return the bytes
 * written: field (r, c) is entry indices[c * n_rows + r] of the text
 * table, entry k being the bytes data[offsets[k]:offsets[k + 1]]. Every
 * field but the last of a row ends in ',', the last in '\n'. out must
 * hold the entries' bytes plus one byte per field. */
int64_t qcasim_write_rows(int64_t n_rows, int64_t n_cols, const char *data,
                          const int64_t *offsets, const int64_t *indices,
                          char *out)
{
    char *p = out;
    for (int64_t r = 0; r < n_rows; r++)
        for (int64_t c = 0; c < n_cols; c++) {
            int64_t k = indices[c * n_rows + r];
            int64_t length = offsets[k + 1] - offsets[k];
            memcpy(p, data + offsets[k], (size_t)length);
            p += length;
            *p++ = c + 1 < n_cols ? ',' : '\n';
        }
    return p - out;
}
