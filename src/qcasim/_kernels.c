/* The compiled kernels of qcasim, one library with seven entry points:
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
 * qcasim_near_pairs, the pairs of cells within a reach along both axes,
 * found with a cell list, with the result of
 * qcasim.kernels.near_pairs_loop. The pairs come out in (i, j) order from
 * a two-pass stable counting sort, first by j, then by i, so no two pairs
 * are ever compared (see its comment).
 *
 * qcasim_kink_pairs, one pass from the cells to the pairs of the kink
 * matrix and their geometry groups, certified or handed back: the pair
 * search of qcasim_near_pairs with the radius of effect decided by
 * squares where a margin proves them right, and the kept pairs numbered
 * by geometry with a hash table, groups in the order of their first
 * pairs. The pairs the squares cannot decide go back to Python, a group
 * at a time, and qcasim.kernels.kink_pairs decides them with math.hypot;
 * its numpy transcription, qcasim.kernels.kink_pairs_loop, hands back the
 * same groups, so both kernel paths share that decision. Keys
 * compare as integers, so a float goes in as the bit pattern of v + 0.0,
 * which is that of +0.0 for -0.0 as for 0.0: the two fall in one group,
 * as float == holds them equal.
 *
 * qcasim_parse_cells, the cell lines of a .qcl document read into the
 * layout columns, certified or handed back: it reads from the line after
 * the header up to the first line it cannot certify, and
 * qcasim.geometry.parse_cells_loop reads on from there. It certifies only
 * lines that the loop reads into the same cells (its comment gives the
 * grammar), and converts a number only on Clinger's exact fast path, one
 * correctly rounded operation, so each real has the bits of Python's
 * float. Every diagnostic comes from the loop.
 *
 * In the two engine kernels, every floating-point operation is the loop
 * kernel's, in its order, so the results are bit-identical to it (the
 * integrator skips the steps that would repeat the last one; see below).
 * Build with -ffp-contract=off and never with -ffast-math: a fused
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
 * A call skips every step that would repeat the last one. One step of a
 * point is a pure function of its free cells' coherence vectors, its
 * polarizations, the clock terms gx of the zones that hold a free cell,
 * and inputs that do not change during a call (energies, drive values,
 * temperature, dt, tau, hbar and kB). The call keeps one flag, quiet: set
 * after a computed step in which no live point of the call changed the
 * bit pattern of any component (x, y or z) of any free cell's vector and
 * no point failed, and cleared after every other computed step. At a step
 * where quiet holds and the gx of every zone that holds a free cell has
 * the bits it had at the step before, the step would compute exactly what
 * the step before did: the same vectors, and so the same polarizations,
 * which are their z components. So the call skips all point work there
 * (field sums, steady states and Euler updates), and its points only fill
 * their recording rows from the unchanged polarizations; quiet stays set.
 * The match is on bit patterns, never ==, so -0.0 and 0.0 (and NaNs) stay
 * apart. To keep a skipped step cheap, a step evaluates the clock only
 * for the zones that hold a free cell, as the loop kernel's steps do. At
 * the default clock, zone 0 is held at clock_low for 51% of each period,
 * and the state settles there bit for bit: the temperature sweep's 15
 * points at 10,000 steps skip 45% of their steps. The loop kernel never
 * skips: it is the reference that the tests compare the skipping kernel
 * with.
 *
 * Threads. A call reads the batch's arrays (energies, drive_values,
 * temperature) at the global point b and fills the caller's rec_pols,
 * final and bad_step in place at b, so a split batch is never gathered
 * or copied. Everything it writes at every step is in its own scratch,
 * indexed by its local point j (b = first + j * every): the coherence
 * vectors lam (3 doubles per point and cell), the working polarizations
 * pols (n doubles per point) and fields (n doubles). It copies pols to final
 * once, at the end. The scratch starts on a 64-byte line and spans whole
 * lines, so no two threads write to one cache line at every step (a
 * shared line would bounce between the cores). The shared arrays are
 * written only at recording steps (rec_pols, whose rows of different
 * points lie n_rec rows apart), at a failure (bad_step) and once at the
 * end (final). Only one call records the shared times and clocks, once
 * after its last step: the others pass NULL rec_times and rec_clocks. A
 * call returns 0, or -1 when it cannot allocate its scratch, before it
 * writes anything. There is no static or global state.
 *
 * A point whose coherence vector leaves the unit ball (or becomes NaN)
 * stops at that cell, mid-sweep: bad_step[b] = the step (-1 while it
 * runs), its polarizations stay as they are and it is no longer
 * recorded. A point where |Gamma|^2 overflows to inf fails the same way,
 * at that cell and before its update. A call ends once every one of its
 * points has failed. The call that records the times and clock values
 * writes every row after stepping, as the loop kernel does, those after
 * its last point failed included: a row's time and clocks depend on its
 * step alone, at t = (double)(rec * stride) * dt, the t of step
 * rec * stride.
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
    double gx_zone[4];
    uint64_t gx_bits_zone[4] = {0, 0, 0, 0};
    int used[4] = {0, 0, 0, 0}; /* the zones that hold a free cell */
    int64_t nnz = offsets[n];
    int64_t alive = 0;
    int64_t rec = 0;
    /* the last computed step changed no bit of any vector and failed no
       point */
    int quiet = 0;

    for (int64_t i = 0; i < n; i++)
        if (!driven[i])
            used[zones[i]] = 1;

    /* the scratch of the call's points, in whole 64-byte lines */
    int64_t points = first < batch ? (batch - 1 - first) / every + 1 : 0;
    size_t bytes = (size_t)(4 * points * n + n) * sizeof(double);
    double *lam = aligned_alloc(64, (bytes / 64 + 1) * 64);
    if (lam == NULL)
        return -1;
    double *pols = lam + 3 * points * n;
    double *fields = pols + points * n;

    /* point b of the batch is the call's local point j */
    for (int64_t b = first, j = 0; b < batch; b += every, j++) {
        bad_step[b] = -1;
        for (int64_t i = 0; i < n; i++) {
            double *l = lam + 3 * (j * n + i);
            pols[j * n + i] = driven[i] ? drive_values[b * n + i] : 0.0;
            l[0] = l[1] = l[2] = 0.0;
        }
        alive++;
    }

    for (int64_t step = 0; step <= n_steps && alive > 0; step++) {
        double t = (double)step * dt;
        int record = step % stride == 0 && rec < n_rec;
        int same_clock = 1;
        for (int z = 0; z < 4; z++) {
            if (!used[z])
                continue;
            gx_zone[z] = -2.0 * clock_value(t, z, periods, total_time,
                clock_shift, clock_amplitude, clock_low, clock_high) / hbar;
            uint64_t gx_bits = bits_of(gx_zone[z]);
            same_clock &= gx_bits == gx_bits_zone[z];
            gx_bits_zone[z] = gx_bits;
        }
        /* a quiet step with the clock bits of the last one would repeat
           it: its points only record */
        int skip = quiet && same_clock;
        uint64_t moved = 0;
        int64_t was_alive = alive;
        for (int64_t b = first, j = 0; b < batch; b += every, j++) {
            if (bad_step[b] >= 0)
                continue;
            double *p = pols + j * n;
            const double *e = energies + b * nnz;
            if (record)
                for (int64_t i = 0; i < n; i++)
                    rec_pols[(b * n_rec + rec) * n + i] = p[i];
            if (step == n_steps || skip)
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
                    bad_step[b] = step;
                    alive--;
                    break;
                }
                double th;
                if (temp > 0.0)
                    th = tanh(hbar * mag / (2.0 * boltzmann_k * temp));
                else
                    th = 1.0;
                double ss_x = 0.0, ss_z = 0.0;
                if (mag != 0.0) {
                    ss_x = th * gx / mag;
                    ss_z = th * gz / mag;
                }
                double *l = lam + 3 * (j * n + i);
                double lx = l[0], ly = l[1], lz = l[2];
                /* Gamma x lambda with Gamma = (gx, 0, gz) */
                double dx = -gz * ly - (lx - ss_x) / tau;
                double dy = gz * lx - gx * lz - ly / tau;
                double dz = gx * ly - (lz - ss_z) / tau;
                double nx = lx + dt * dx;
                double ny = ly + dt * dy;
                double nz = lz + dt * dz;
                moved |= (bits_of(nx) ^ bits_of(lx)) | (bits_of(ny) ^ bits_of(ly))
                         | (bits_of(nz) ^ bits_of(lz));
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
        if (!skip)
            quiet = moved == 0 && alive == was_alive;
        if (record)
            rec++;
    }

    /* the time and clocks of every recording row, at the t of its step */
    for (rec = 0; rec_times != NULL && rec < n_rec && rec <= n_steps / stride;
         rec++) {
        double t = (double)(rec * stride) * dt;
        rec_times[rec] = t;
        for (int z = 0; z < 4; z++)
            rec_clocks[rec * 4 + z] = clock_value(t, z, periods, total_time,
                clock_shift, clock_amplitude, clock_low, clock_high);
    }

    for (int64_t b = first, j = 0; b < batch; b += every, j++)
        memcpy(final + b * n, pols + j * n, (size_t)n * sizeof(double));
    free(lam);
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

/* The powers of ten that are exact doubles, 1e0 ... 1e22, for the
 * formatter and the parse. */
static const double powers_of_ten[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* a * 10^k for 0 <= |k| <= 44, in at most two correctly rounded
 * multiplications or divisions by the exact doubles in powers_of_ten. */
static double scale_by_power_of_ten(double a, int64_t k)
{
    if (k >= 0) {
        if (k > 22) {
            a *= 1e22;
            k -= 22;
        }
        return a * powers_of_ten[k];
    }
    k = -k;
    if (k > 22) {
        a /= 1e22;
        k -= 22;
    }
    return a / powers_of_ten[k];
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

/* Put order[0..n) in ascending key[order[k]], stably: a least significant
 * digit radix sort, a byte per pass, over the bytes that top (the largest
 * key) spans. tmp holds n entries. */
static void radix_sort(int64_t n, const uint64_t *key, uint64_t top,
                       int64_t *order, int64_t *tmp)
{
    for (int shift = 0; shift < 64 && top >> shift != 0; shift += 8) {
        int64_t start[257] = {0};
        for (int64_t k = 0; k < n; k++)
            start[(key[order[k]] >> shift & 255) + 1]++;
        for (int b = 0; b < 256; b++)
            start[b + 1] += start[b];
        for (int64_t k = 0; k < n; k++)
            tmp[start[key[order[k]] >> shift & 255]++] = order[k];
        memcpy(order, tmp, (size_t)n * sizeof *order);
    }
}

/* Every pair of cells, one of bin b and one of a later neighbor bin
 * (nbr[4 * b ...], -1 where there is none) or both of bin b, within reach
 * along both axes: counted in count_i and count_j (by lower and higher
 * index) where fill is NULL, else its lower index written at fill[at_j[j]++],
 * j its higher index. Returns their number. */
static int64_t scan_bins(int64_t m, const int64_t *start, const int64_t *nbr,
                         const int64_t *order, const double *x,
                         const double *y, double reach, int64_t *count_i,
                         int64_t *count_j, int64_t *fill, int64_t *at_j)
{
    int64_t pairs = 0;
    for (int64_t b = 0; b < m; b++)
        for (int q = -1; q < 4; q++) {
            int64_t other = q < 0 ? b : nbr[4 * b + q];
            if (other < 0)
                break;
            for (int64_t s = start[b]; s < start[b + 1]; s++) {
                int64_t i = order[s];
                for (int64_t t = other == b ? s + 1 : start[other];
                     t < start[other + 1]; t++) {
                    int64_t j = order[t];
                    if (!(fabs(x[i] - x[j]) <= reach && fabs(y[i] - y[j]) <= reach))
                        continue;
                    int64_t lo = i < j ? i : j, hi = i < j ? j : i;
                    if (fill == NULL) {
                        count_i[lo]++;
                        count_j[hi]++;
                    } else {
                        fill[at_j[hi]++] = lo;
                    }
                    pairs++;
                }
            }
        }
    return pairs;
}

/* The pairs (i, j), i < j, of the n cells centered at (x[k], y[k]) with
 * |x[i] - x[j]| <= reach and |y[i] - y[j]| <= reach, in lexicographic
 * (i, j) order: returns their number P and, where P <= capacity, writes
 * them to first[0..P) and second[0..P). Returns -2 where reach is not
 * finite and > 0 or a coordinate is not finite (n >= 2), -1 where the
 * scratch cannot be allocated.
 *
 * A cell list. Cells are binned by (floor(x / pitch), floor(y / pitch))
 * with pitch = reach + (reach + extent) * 2^-40, extent the largest
 * |coordinate|: the pitch exceeds reach by a margin far above the
 * rounding error of the bin arithmetic, so a pair within reach lies in
 * the same or neighboring bins, and every bin index stays within 2^41 in
 * magnitude (subnormal pitches included). The cells are sorted once by
 * bin, (column, row) lexicographic, with two radix sorts; each bin finds
 * its four later neighbor bins once, (column, row + 1) next to it and
 * (column + 1, row - 1 .. row + 1) with a pointer that only moves
 * forward. Pairs within a bin and with those neighbors are tested
 * exactly. Two scans: the first counts the pairs by lower and by higher
 * index, the second puts each lower index in its bucket by higher index
 * (the first pass of a stable counting sort, by j, written into first);
 * the second pass, by i, reads the buckets in ascending j and writes each
 * j to second at its i's next place, and first is then rewritten from
 * the counts by i. So the pairs come out in (i, j) order with no
 * comparison of pairs. */
int64_t qcasim_near_pairs(int64_t n, const double *x, const double *y,
                          double reach, int64_t capacity, int64_t *first,
                          int64_t *second)
{
    if (n < 2)
        return 0;
    if (!(isfinite(reach) && reach > 0.0))
        return -2;
    double extent = 0.0;
    for (int64_t k = 0; k < n; k++) {
        if (!(isfinite(x[k]) && isfinite(y[k])))
            return -2;
        extent = fmax(extent, fmax(fabs(x[k]), fabs(y[k])));
    }
    double pitch = reach + (reach + extent) * 0x1p-40;
    /* per cell: column, row, the sort keys, order and a radix buffer; per
     * bin (at most n): start (n + 1), column, row and four neighbors; and
     * the counts by i and by j (n + 1 each) */
    int64_t *scratch = calloc((size_t)(14 * n + 3), sizeof *scratch);
    if (scratch == NULL)
        return -1;
    int64_t *column = scratch, *row = column + n, *order = row + n;
    int64_t *tmp = order + n, *start = tmp + n, *bin_column = start + n + 1;
    int64_t *bin_row = bin_column + n, *nbr = bin_row + n;
    int64_t *count_i = nbr + 4 * n, *count_j = count_i + n + 1;
    uint64_t *key = (uint64_t *)(count_j + n + 1);
    int64_t column_min = INT64_MAX, row_min = INT64_MAX;
    for (int64_t k = 0; k < n; k++) {
        column[k] = (int64_t)floor(x[k] / pitch);
        row[k] = (int64_t)floor(y[k] / pitch);
        column_min = column[k] < column_min ? column[k] : column_min;
        row_min = row[k] < row_min ? row[k] : row_min;
        order[k] = k;
    }
    uint64_t top = 0;
    for (int64_t k = 0; k < n; k++) {
        key[k] = (uint64_t)(row[k] - row_min);
        top = key[k] > top ? key[k] : top;
    }
    radix_sort(n, key, top, order, tmp);
    top = 0;
    for (int64_t k = 0; k < n; k++) {
        key[k] = (uint64_t)(column[k] - column_min);
        top = key[k] > top ? key[k] : top;
    }
    radix_sort(n, key, top, order, tmp);
    int64_t m = 0;
    for (int64_t s = 0; s < n; s++) {
        int64_t c = column[order[s]], r = row[order[s]];
        if (m == 0 || c != bin_column[m - 1] || r != bin_row[m - 1]) {
            bin_column[m] = c;
            bin_row[m] = r;
            start[m++] = s;
        }
    }
    start[m] = n;
    for (int64_t b = 0, p = 0; b < m; b++) {
        int64_t c = bin_column[b], r = bin_row[b], *out = nbr + 4 * b;
        if (b + 1 < m && bin_column[b + 1] == c && bin_row[b + 1] == r + 1)
            *out++ = b + 1;
        while (p < m && (bin_column[p] < c + 1
                         || (bin_column[p] == c + 1 && bin_row[p] < r - 1)))
            p++;
        for (int64_t q = p; q < m && bin_column[q] == c + 1 && bin_row[q] <= r + 1; q++)
            *out++ = q;
        while (out < nbr + 4 * b + 4)
            *out++ = -1;
    }
    int64_t pairs = scan_bins(m, start, nbr, order, x, y, reach, count_i,
                              count_j, NULL, NULL);
    if (pairs <= capacity) {
        /* at_j[j]: the next place in bucket j; after the fill, the end of
         * bucket j, which is where bucket j + 1 starts */
        int64_t *at_j = tmp, *at_i = column;
        for (int64_t k = 0, total_i = 0, total_j = 0; k < n; k++) {
            at_i[k] = total_i;
            at_j[k] = total_j;
            total_i += count_i[k];
            total_j += count_j[k];
        }
        scan_bins(m, start, nbr, order, x, y, reach, NULL, NULL, first, at_j);
        for (int64_t j = 0, k = 0; j < n; j++)
            for (; k < at_j[j]; k++)
                second[at_i[first[k]]++] = j;
        for (int64_t i = 0, k = 0; i < n; i++)
            for (int64_t c = 0; c < count_i[i]; c++)
                first[k++] = i;
    }
    free(scratch);
    return pairs;
}

/* A mix of 64 bits (the finalizer of splitmix64). */
static uint64_t mix(uint64_t h)
{
    h = (h ^ h >> 30) * 0xbf58476d1ce4e5b9u;
    h = (h ^ h >> 27) * 0x94d049bb133111ebu;
    return h ^ h >> 31;
}

/* One multiply per column, and a full mix of the result. */
static uint64_t row_hash(const int64_t *row, int64_t n_cols)
{
    uint64_t h = 0;
    for (int64_t c = 0; c < n_cols; c++)
        h = (h << 29 | h >> 35) * 0x9e3779b97f4a7c15u ^ (uint64_t)row[c];
    return mix(h);
}

/* The groups of equal keys of n_cols int64 each, numbered in the order of
 * their first keys: an open-addressing table of group numbers (size a
 * power of two, -1 marking a free slot), at most half full, that doubles
 * as groups arrive, and the key of each group, room for size / 2. It
 * stays as small as the number of groups, not of keys. */
struct groups {
    int64_t n_cols, count, size;
    int64_t *table, *keys;
};

/* The slot of the table that holds the group of key, or else the free
 * slot where it would go. */
static int64_t probe(const struct groups *g, const int64_t *key)
{
    uint64_t mask = (uint64_t)(g->size - 1);
    for (uint64_t slot = row_hash(key, g->n_cols) & mask;; slot = (slot + 1) & mask) {
        int64_t k = g->table[slot];
        if (k < 0)
            return (int64_t)slot;
        const int64_t *other = g->keys + k * g->n_cols;
        int64_t c = 0;
        while (c < g->n_cols && other[c] == key[c])
            c++;
        if (c == g->n_cols)
            return (int64_t)slot;
    }
}

/* An empty struct groups of size slots; 0, or -1 where it cannot be
 * allocated. */
static int groups_init(struct groups *g, int64_t n_cols, int64_t size)
{
    g->n_cols = n_cols;
    g->count = 0;
    g->size = size;
    g->table = malloc((size_t)size * sizeof *g->table);
    g->keys = malloc((size_t)(size / 2 * n_cols) * sizeof *g->keys);
    if (g->table == NULL || g->keys == NULL)
        return -1;
    memset(g->table, -1, (size_t)size * sizeof *g->table);
    return 0;
}

static void groups_free(struct groups *g)
{
    free(g->table);
    free(g->keys);
}

/* The group of key, a new one where no earlier key equals it; -1 where
 * the grown table cannot be allocated. Keys are compared as integers: a
 * float goes in as the bit pattern of v + 0.0, which is +0.0 for -0.0 and
 * 0.0 alike, so that the groups are those that float == tells apart (NaN
 * aside, which the callers never pass). */
static int64_t group_of(struct groups *g, const int64_t *key)
{
    int64_t slot = probe(g, key);
    if (g->table[slot] >= 0)
        return g->table[slot];
    if (2 * (g->count + 1) > g->size) {
        struct groups grown;
        if (groups_init(&grown, g->n_cols, 2 * g->size) < 0) {
            groups_free(&grown);
            return -1;
        }
        memcpy(grown.keys, g->keys, (size_t)(g->count * g->n_cols) * sizeof *g->keys);
        for (grown.count = 0; grown.count < g->count; grown.count++)
            grown.table[probe(&grown, grown.keys + grown.count * g->n_cols)] = grown.count;
        groups_free(g);
        *g = grown;
        slot = probe(g, key);
    }
    memcpy(g->keys + g->count * g->n_cols, key, (size_t)g->n_cols * sizeof *key);
    g->table[slot] = g->count;
    return g->count++;
}

/* Where the squares decide the radius, that is for r2 = radius^2 in
 * [2^-900, 2^900]: 1 where centers that differ by (dx, dy) are surely
 * within it, -1 where they are surely beyond it, and 0 where
 * |d2 - r2| <= 2^-40 r2, d2 = dx^2 + dy^2, leaves the pair to math.hypot.
 * That margin dwarfs the rounding error of d2 and r2 (a few ulp, plus at
 * most 2^-1074 lost to underflow), and a d2 that overflows is surely
 * beyond. Its numpy transcription, qcasim.kernels._by_squares, runs the
 * same operations in the same order. */
static int by_squares(double dx, double dy, double r2)
{
    double d2 = dx * dx + dy * dy;
    if (fabs(d2 - r2) <= r2 * 0x1p-40)
        return 0;
    return d2 <= r2 ? 1 : -1;
}

/* The pairs of the kink matrix and their geometry groups, for
 * qcasim.kernels.kink_pairs: the box pairs (i, j) of qcasim_near_pairs
 * with reach = radius, cut to the radius by squares where they decide
 * (by_squares), and numbered by geometry; the groups that the squares
 * cannot decide are handed back. Returns -2 and -1 as qcasim_near_pairs
 * does. Where the box pairs number more than capacity, returns their
 * number and writes nothing else. Otherwise returns the number K of
 * pairs kept and writes:
 * - first[0..K) and second[0..K), in (i, j) order, the pairs that the
 *   squares put within the radius or cannot decide;
 * - group[0..K), each pair's geometry: the groups of equal keys (kind[j],
 *   kind[i], bits of dy + 0.0, bits of dx + 0.0), dx = x[j] - x[i] and
 *   dy = y[j] - y[i], numbered in the order of their first pairs, a
 *   cell's kind being its group of equal (rotation, bits of dot_offset +
 *   0.0, bits of size + 0.0);
 * - representative[0..counts[0]), the first pair of each group;
 * - unsure[0..counts[1]), ascending, the groups whose pairs the squares
 *   cannot decide: every group where r2 = radius^2 lies outside
 *   [2^-900, 2^900], else those at the margin.
 * The pairs of a group share the bits of dx + 0.0 and dy + 0.0, and so
 * d2, so that a group is decided whole: the pairs that math.hypot puts
 * beyond the radius are those of whole unsure groups. Its numpy
 * transcription, qcasim.kernels.kink_pairs_loop, returns the same arrays.
 *
 * The box pairs fill first and second, which the kept ones then
 * overwrite in place, each one at or before its own place. The kinds and
 * the geometries are numbered with hash tables that grow with the number
 * of groups (struct groups). */
int64_t qcasim_kink_pairs(int64_t n, const double *x, const double *y,
                          double radius, const int64_t *rotation,
                          const double *dot_offset, const double *size,
                          int64_t capacity, int64_t *first, int64_t *second,
                          int64_t *group, int64_t *representative,
                          int64_t *unsure, int64_t *counts)
{
    counts[0] = counts[1] = 0;
    int64_t pairs = qcasim_near_pairs(n, x, y, radius, capacity, first, second);
    if (pairs <= 0 || pairs > capacity)
        return pairs;
    double r2 = radius * radius;
    int decide = 0x1p-900 <= r2 && r2 <= 0x1p900;
    struct groups kinds, geometries;
    int64_t *kind = malloc((size_t)n * sizeof *kind);
    int failed = kind == NULL;
    failed |= groups_init(&kinds, 3, 16) < 0;
    failed |= groups_init(&geometries, 4, 16) < 0;
    for (int64_t k = 0; k < n && !failed; k++) {
        int64_t key[3] = {rotation[k], (int64_t)bits_of(dot_offset[k] + 0.0),
                          (int64_t)bits_of(size[k] + 0.0)};
        kind[k] = group_of(&kinds, key);
        failed = kind[k] < 0;
    }
    int64_t kept = 0;
    for (int64_t q = 0; q < pairs && !failed; q++) {
        int64_t i = first[q], j = second[q];
        double dx = x[j] - x[i], dy = y[j] - y[i];
        int sure = decide ? by_squares(dx, dy, r2) : 0;
        if (sure < 0)
            continue;
        int64_t key[4] = {kind[j], kind[i], (int64_t)bits_of(dy + 0.0),
                          (int64_t)bits_of(dx + 0.0)};
        int64_t g = group_of(&geometries, key);
        failed = g < 0;
        if (g == counts[0]) {
            representative[counts[0]++] = kept;
            if (sure == 0)
                unsure[counts[1]++] = g;
        }
        first[kept] = i;
        second[kept] = j;
        group[kept++] = g;
    }
    free(kind);
    groups_free(&kinds);
    groups_free(&geometries);
    return failed ? -1 : kept;
}

/* The keys of a cell line, bit k of a line's key set standing for
 * cell_keys[k], and the roles, a role's code being its index. */
static const char *const cell_keys[] = {"id", "x", "y", "size", "offset", "rot",
                                        "role", "clock", "pol"};
enum { KEY_ID, KEY_X, KEY_Y, KEY_SIZE, KEY_OFFSET, KEY_ROT, KEY_ROLE, KEY_CLOCK,
       KEY_POL, N_KEYS };
static const char *const roles[] = {"normal", "input", "output", "fixed"};

/* The index of the text p[0..n) in names[0..count), or -1. */
static int lookup(const char *p, int64_t n, const char *const *names, int count)
{
    for (int k = 0; k < count; k++)
        if ((int64_t)strlen(names[k]) == n && memcmp(p, names[k], (size_t)n) == 0)
            return k;
    return -1;
}

/* The value of the real p[0..n) where it matches
 * [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)? and lies on the exact fast path:
 * sets *out and returns 1, else returns 0. See qcasim_parse_cells. */
static int certify_real(const char *p, int64_t n, double *out)
{
    int64_t k = 0, digits = 0, fraction = 0, exponent = 0;
    uint64_t mantissa = 0;
    int negative = k < n && p[k] == '-';
    if (k < n && (p[k] == '+' || p[k] == '-'))
        k++;
    for (int point = 0; k < n; k++) {
        if (p[k] == '.' && !point) {
            point = 1;
            continue;
        }
        if (p[k] < '0' || p[k] > '9')
            break;
        mantissa = mantissa * 10 + (uint64_t)(p[k] - '0');
        if (mantissa > (uint64_t)1 << 53)
            return 0;
        digits++;
        fraction += point;
    }
    if (digits == 0)
        return 0;
    if (k < n && (p[k] == 'e' || p[k] == 'E')) {
        int exponent_negative = ++k < n && p[k] == '-';
        if (k < n && (p[k] == '+' || p[k] == '-'))
            k++;
        int64_t first = k;
        for (; k < n && p[k] >= '0' && p[k] <= '9' && k - first < 9; k++)
            exponent = exponent * 10 + (p[k] - '0');
        if (k == first)
            return 0;
        if (exponent_negative)
            exponent = -exponent;
    }
    if (k != n) /* another byte, or a tenth exponent digit */
        return 0;
    int64_t e10 = exponent - fraction;
    if (e10 < -22 || e10 > 22)
        return 0;
    double value = (double)mantissa;
    value = e10 >= 0 ? value * powers_of_ten[e10]
                     : value / powers_of_ten[-e10];
    *out = negative ? -value : value;
    return 1;
}

/* The value of the integer p[0..n) where it matches [+-]?\d{1,18}: sets
 * *out and returns 1, else returns 0. */
static int certify_integer(const char *p, int64_t n, int64_t *out)
{
    int64_t k = n > 0 && (p[0] == '+' || p[0] == '-'), value = 0;
    if (n - k < 1 || n - k > 18)
        return 0;
    for (int64_t j = k; j < n; j++) {
        if (p[j] < '0' || p[j] > '9')
            return 0;
        value = value * 10 + (p[j] - '0');
    }
    *out = p[0] == '-' ? -value : value;
    return 1;
}

/* The next token of text[*at..end), separated by spaces and tabs: sets
 * *at past it and returns its start, or returns -1 where none is left. */
static int64_t next_token(const char *text, int64_t *at, int64_t end)
{
    int64_t k = *at;
    while (k < end && (text[k] == ' ' || text[k] == '\t'))
        k++;
    if (k == end)
        return -1;
    int64_t first = k;
    while (k < end && text[k] != ' ' && text[k] != '\t')
        k++;
    *at = k;
    return first;
}

/* Read the cell line text[at..end) (its bytes checked already) into cell
 * `count` of the columns: returns 1, or 0 where it is not certified. */
static int certify_cell(const char *text, int64_t at, int64_t end, int64_t count,
                        int64_t capacity, double *reals, int64_t *ints,
                        char *id_data, int64_t *id_ends)
{
    double real[N_KEYS];
    int64_t integer[N_KEYS], id_first = 0, id_length = 0;
    unsigned seen = 0;
    for (int64_t first; (first = next_token(text, &at, end)) >= 0;) {
        const char *equals = memchr(text + first, '=', (size_t)(at - first));
        if (equals == NULL)
            return 0;
        int64_t value = equals + 1 - text, length = at - value;
        int key = lookup(text + first, equals - (text + first), cell_keys, N_KEYS);
        if (key < 0 || seen >> key & 1)
            return 0;
        seen |= 1u << key;
        switch (key) {
        case KEY_ID:
            if (memchr(text + value, '=', (size_t)length) != NULL)
                return 0;
            id_first = value;
            id_length = length;
            break;
        case KEY_ROLE:
            integer[key] = lookup(text + value, length, roles, 4);
            if (integer[key] < 0)
                return 0;
            break;
        case KEY_ROT:
        case KEY_CLOCK:
            if (!certify_integer(text + value, length, &integer[key]))
                return 0;
            break;
        default:
            if (!certify_real(text + value, length, &real[key]))
                return 0;
        }
    }
    unsigned required = 1u << KEY_ID | 1u << KEY_X | 1u << KEY_Y | 1u << KEY_ROLE;
    if ((seen & required) != required)
        return 0;
    /* the defaults of parse_cells_loop; NaN with the bits of float("nan") */
    uint64_t nan_bits = 0x7ff8000000000000u;
    if (!(seen >> KEY_SIZE & 1))
        real[KEY_SIZE] = 18.0;
    if (!(seen >> KEY_OFFSET & 1))
        real[KEY_OFFSET] = real[KEY_SIZE] / 4;
    if (!(seen >> KEY_POL & 1))
        memcpy(&real[KEY_POL], &nan_bits, sizeof nan_bits);
    if (!(seen >> KEY_ROT & 1))
        integer[KEY_ROT] = 0;
    if (!(seen >> KEY_CLOCK & 1))
        integer[KEY_CLOCK] = 0;
    const int real_keys[] = {KEY_X, KEY_Y, KEY_SIZE, KEY_OFFSET, KEY_POL};
    for (int c = 0; c < 5; c++)
        reals[c * capacity + count] = real[real_keys[c]];
    ints[count] = integer[KEY_ROT];
    ints[capacity + count] = integer[KEY_CLOCK];
    ints[2 * capacity + count] = integer[KEY_ROLE];
    ints[3 * capacity + count] = seen >> KEY_POL & 1;
    int64_t id_at = count > 0 ? id_ends[count - 1] : 0;
    memcpy(id_data + id_at, text + id_first, (size_t)id_length);
    id_ends[count] = id_at + id_length;
    return 1;
}

/* Read the lines of a .qcl document, its UTF-8 bytes text[0..length), from
 * byte offset start, which begins line lineno and follows the header line,
 * up to the first line it does not certify: returns the number of cells
 * read, and sets stop[0] and stop[1] to the offset and the number of that
 * line (length and one past the last line where it certifies them all).
 * Cell k goes to column entry k: reals (5 x capacity, row-major) holds x,
 * y, size, offset and pol, ints (5 x capacity) rot, clock, the role's code,
 * whether pol is given, and the line number; the id is the bytes
 * id_data[id_ends[k - 1]..id_ends[k]) (from 0 for k = 0). capacity must be
 * at least the number of lines left, and id_data hold length - start
 * bytes.
 *
 * What it certifies. A line of bytes 0x20-0x7e and tab only, ending in LF
 * or at the end of the document (so no CR, form feed or other character
 * that str.splitlines or str.split in Python would read as a line break
 * or a separator differently), that is blank, a comment (its first token
 * starts with '#'), or the token "cell" followed by key=value tokens,
 * tokens split at spaces and tabs: keys from cell_keys, none repeated, id,
 * x, y and role all given, the role one of roles, an id without '=', rot
 * and clock integers of at most 18 digits [+-]?\d{1,18}, the other values
 * reals on the fast path below. For such a line, qcasim.geometry's
 * parse_cells_loop appends the same cell to its columns as this writes,
 * the same defaults included (size 18, offset size / 4, pol NaN), or skips
 * the line as this does; every other line is left to it, and with it every
 * diagnostic.
 *
 * The fast path. A real matching [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)? has
 * the value M * 10^e, M the integer of its digits and e its exponent less
 * its digits after the point. It is certified where M <= 2^53 and |e| <=
 * 22 (Clinger's fast path): M and 10^|e| (5^22 < 2^53) are then exact
 * doubles, so the one IEEE multiplication M * 10^e or division M / 10^-e,
 * correctly rounded to nearest in double precision (the default rounding
 * mode, and FLT_EVAL_METHOD 0 as on x86-64 and arm64), gives the double
 * nearest to M * 10^e, the double that Python's float, itself correctly
 * rounded, reads from the text. The sign goes on last, so "-0" reads as
 * -0.0, as it does in Python. No strtod: its result would depend on the
 * locale, and on the C library's rounding. An exponent of ten or more
 * digits, digits whose integer exceeds 2^53 (trailing zeros count), and
 * every other text (underscores, inf, nan, hex, non-ASCII digits) go to
 * Python. */
int64_t qcasim_parse_cells(int64_t length, const char *text, int64_t start,
                           int64_t lineno, int64_t capacity, double *reals,
                           int64_t *ints, char *id_data, int64_t *id_ends,
                           int64_t *stop)
{
    int64_t count = 0, at = start;
    for (; at < length; lineno++) {
        int64_t end = at;
        for (unsigned char c; end < length && (c = (unsigned char)text[end]) != '\n'
                              && ((c >= 0x20 && c < 0x7f) || c == '\t');)
            end++;
        if (end < length && text[end] != '\n')
            break; /* a byte it does not certify */
        int64_t token = at, first = next_token(text, &token, end);
        if (first >= 0 && text[first] != '#') {
            if (!(token - first == 4 && memcmp(text + first, "cell", 4) == 0
                  && count < capacity
                  && certify_cell(text, token, end, count, capacity, reals, ints,
                                  id_data, id_ends)))
                break;
            ints[4 * capacity + count++] = lineno;
        }
        at = end < length ? end + 1 : end;
    }
    stop[0] = at;
    stop[1] = lineno;
    return count;
}
