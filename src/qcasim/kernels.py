"""Hot numeric kernels for the coherence-vector integrator.

The integrator entry point ``coherence_euler`` is batched: B points that
share the cell order, clock zones, driven cells, time grid and clock
advance in lockstep, each with its own kink matrix ``kink[b]`` (n x n),
drive values ``drive_values[b]`` (n,) and temperature ``temperature[b]``.
The recorded times and clock values are shared by the batch; the recorded
polarizations are per point, ``rec_pols[b]``. A single run is the B=1 case.

Three kernels give bit-identical results, so the output never depends on
which one ran; ``kernel_path`` names the one ``coherence_euler`` runs:

* ``c``: ``coherence_euler_c``, a C transcription of the loop kernel
  (``_euler.c``, shipped with the package) loaded through ``ctypes``. The
  first coherence call in a process compiles it with ``$CC`` (default
  ``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/qcasim/``, or, where that
  directory cannot be used, into ``qcasim-<uid>`` under the temporary
  directory, and failing that into a fresh temporary directory; later
  processes load the cached library. The library name
  carries a sha256 of the source, the flags and ``$CC --version``. When it
  loads, every batch size runs in C, and a step costs O(nnz): the local
  field is summed over the nonzero kink energies only.
* ``numpy``: ``coherence_euler_numpy``, one numpy kernel vectorised over
  (batch x free cells);
* ``loop``: ``coherence_euler_loop``, the plain Python loop kernel once
  per point, kept as the reference.

Without a working compiler (``CC=/nonexistent``, say) the choice depends
on the problem size only: the numpy kernel, unless the batch is so small
that the loop kernel is faster (``uncompiled_kernel``: a single run of a
two- or three-cell inverter, say).

The numpy and C kernels are bit-identical to the loop kernel: every
``+``, ``*``, ``/`` and ``sqrt`` is the same IEEE operation in the same
order, and the transcendental functions stay on libm. The numpy kernel
sums the local field over ascending j as an explicit per-column loop
(zero and self columns included); the C kernel skips exact-zero kink
energies, which leaves every finite sum unchanged. In the numpy kernel
the four clock values per step are ``math.cos`` scalars shared by the
batch, and the thermal tanh is ``math.tanh`` mapped over the elements,
because ``np.tanh`` differs from libm in the last bit on about a fifth of
its arguments. The C kernel is built with ``-ffp-contract=off`` and never
with ``-ffast-math``, since a fused multiply-add would change the bits.
``benchmarks/bench_coherence.py`` times the kernels against each other.
"""

from __future__ import annotations

import functools
import math
import os
from pathlib import Path

import numpy as np

# perfbench/run.py reads this name; there is no numba kernel.
NUMBA_ENABLED = False

SOURCE = Path(__file__).with_name("_euler.c")
COMPILE_FLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-shared")
LINK_FLAGS = ("-lm",)

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
    once per batch element, the reference the numpy and C kernels are
    compared with (tests) and benchmarked against."""
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


def _cache_dirs():
    """The user cache directory, then the per-user temporary one (only
    looked up when the first does not serve)."""
    yield Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qcasim"
    import tempfile
    yield Path(tempfile.gettempdir()) / f"qcasim-{os.getuid()}"


def _private(path: Path) -> bool:
    """True if the current user owns `path` and no one else can write it."""
    try:
        st = path.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile(cc: list, target: Path) -> bool:
    """Build the library at `target`, atomically: the compiler writes a
    temporary file in the same directory, which is then renamed."""
    import subprocess
    import tempfile
    fd, partial = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                                   suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([*cc, *COMPILE_FLAGS, str(SOURCE), "-o", partial,
                               *LINK_FLAGS], capture_output=True, timeout=300)
        if proc.returncode != 0:
            return False
        os.chmod(partial, 0o755)
        os.replace(partial, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _bind(path: Path):
    """The kernel function of the library at `path`, typed."""
    import ctypes
    fn = ctypes.CDLL(str(path)).qcasim_coherence_euler
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = ([i64, i64] + [ptr] * 6 + [i64] + [f64] * 8 + [ptr]
                   + [f64] * 3 + [i64, i64] + [ptr] * 8)
    fn.restype = None
    return fn


@functools.lru_cache(maxsize=None)
def _library():
    """The compiled kernel, built on first use; None where there is no
    working compiler. Loads a cached library only from a directory that
    the current user owns and no one else can write; if neither cache
    directory qualifies, builds into a fresh temporary directory."""
    if os.name != "posix":
        return None
    import hashlib
    import shlex
    import subprocess
    import tempfile
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        version = subprocess.run([*cc, "--version"], capture_output=True,
                                 timeout=60, check=True).stdout
        source = SOURCE.read_bytes()
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(COMPILE_FLAGS + LINK_FLAGS).encode(), version]))
    name = f"euler-{key.hexdigest()[:20]}.so"
    try:
        for directory in _cache_dirs():
            try:
                directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            except OSError:
                continue
            if not _private(directory):
                continue
            library = directory / name
            if not _private(library):
                if not os.access(directory, os.W_OK):
                    continue
                if not _compile(cc, library):
                    return None
            return _bind(library)
        with tempfile.TemporaryDirectory(prefix="qcasim-") as fresh:
            library = Path(fresh) / name
            return _bind(library) if _compile(cc, library) else None
    except OSError:  # a library that does not load
        return None


def _check(name: str, array, dtype, shape: tuple, output: bool = False) -> None:
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous
            and (array.flags.writeable or not output)):
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")


def coherence_euler_c(kink, zones, driven, drive_values, n_steps, dt,
                      total_time, periods, clock_shift, clock_amplitude,
                      clock_low, clock_high, tau, temperature, boltzmann_k,
                      hbar, stride, rec_times, rec_clocks, rec_pols):
    """The batched integrator in C, with the arguments and results of
    ``coherence_euler_numpy`` and the failure semantics of the loop kernel
    run once per point: a point that leaves the unit ball stops at that
    cell, mid-sweep, and is no longer recorded. Every array is checked for
    dtype, C-contiguity and shape before its pointer is passed."""
    kernel = _library()
    if kernel is None:
        raise RuntimeError("the compiled coherence kernel is not available")
    batch, n = np.shape(drive_values)
    n_rec = np.shape(rec_times)[0] if np.ndim(rec_times) == 1 else -1
    for spec in (
        ("kink", kink, np.float64, (batch, n, n)),
        ("zones", zones, np.int64, (n,)),
        ("driven", driven, np.bool_, (n,)),
        ("drive_values", drive_values, np.float64, (batch, n)),
        ("temperature", temperature, np.float64, (batch,)),
        ("rec_times", rec_times, np.float64, (n_rec,), True),
        ("rec_clocks", rec_clocks, np.float64, (n_rec, 4), True),
        ("rec_pols", rec_pols, np.float64, (batch, n_rec, n), True)):
        _check(*spec)
    if n and not 0 <= zones.min() <= zones.max() <= 3:
        raise ValueError("clock zones must be 0..3")
    if n_steps < 0 or stride < 1:
        raise ValueError("n_steps must be >= 0 and stride >= 1")
    # a stride beyond n_steps records step 0 only, as n_steps + 1 does; the
    # smaller value fits the C int64
    stride = min(int(stride), int(n_steps) + 1)
    # CSR over the rows (b, i): nonzero entries, ascending column per row
    rows, cols = np.nonzero(kink.reshape(batch * n, n))
    offsets = np.zeros(batch * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=batch * n), out=offsets[1:])
    cols = np.ascontiguousarray(cols, dtype=np.int64)  # nonzero gives strided views
    vals = kink.reshape(batch * n, n)[rows, cols]
    final = np.empty((batch, n))
    ok = np.empty(batch, dtype=np.bool_)
    bad_step = np.empty(batch, dtype=np.int64)
    lam = np.empty(batch * n * 3)
    fields = np.empty(n)
    kernel(batch, n, offsets.ctypes.data, cols.ctypes.data, vals.ctypes.data,
           zones.ctypes.data, driven.ctypes.data, drive_values.ctypes.data,
           int(n_steps), dt, total_time, periods, clock_shift, clock_amplitude,
           clock_low, clock_high, tau, temperature.ctypes.data, boltzmann_k,
           hbar, UNIT_BALL_LIMIT_SQ, stride, n_rec, rec_times.ctypes.data,
           rec_clocks.ctypes.data, rec_pols.ctypes.data, final.ctypes.data,
           ok.ctypes.data, bad_step.ctypes.data, lam.ctypes.data,
           fields.ctypes.data)
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


def kernel_path(batch: int, n: int, width: int) -> str:
    """The kernel ``coherence_euler`` runs for `batch` points of n cells,
    `width` of them free: "c" whenever the compiled library loads, else
    ``uncompiled_kernel``'s choice, "numpy" or "loop"."""
    if _library() is not None:
        return "c"
    if uncompiled_kernel(batch, n, width) is coherence_euler_loop:
        return "loop"
    return "numpy"


KERNELS = {"c": coherence_euler_c, "numpy": coherence_euler_numpy,
           "loop": coherence_euler_loop}


def coherence_euler(kink, zones, driven, drive_values, *args):
    """The batched integrator: the kernel ``kernel_path`` names for this
    size, called with the arguments of ``coherence_euler_numpy``."""
    batch, n = drive_values.shape
    width = n - int(np.count_nonzero(driven))
    kernel = KERNELS[kernel_path(batch, n, width)]
    return kernel(kink, zones, driven, drive_values, *args)
