"""Hot numeric kernels: the coherence-vector integrator and the bistable
Gauss-Seidel sweep of the two engines, and the CSV number formatter.

The integrator entry point ``coherence_euler`` is batched: B points that
share the cell order, clock zones, driven cells, time grid and clock
advance in lockstep, each with its own kink energies ``energies[b]``,
drive values ``drive_values[b]`` (n,) and temperature ``temperature[b]``.
The recorded times and clock values are shared by the batch; the recorded
polarizations are per point, ``rec_pols[b]``. A single run is the B=1 case.
It returns ``(final, bad_step)``: the final polarizations (B, n), and per
point the step at which it failed, -1 for a point that ran to the end.
The times and clocks are recorded at every recording step, those after
every point has failed included.

The sweep entry point ``bistable_sweep`` relaxes one point: each free cell,
in the order given, takes P <- f(field / (2 gamma)) with
f(x) = x / sqrt(1 + x^2), until the largest change of a sweep is below
the tolerance.

The formatter entry point ``format_sci`` writes the "%.5e" text of each
value of a float64 array (six significant digits, ``sweeps.sci``), with
the bytes of Python's `%`.

The two engine kernels read the coupling as a neighbor list: with
``k = slice(offsets[i], offsets[i + 1])``, the neighbors of cell i are
``cols[k]``, in ascending position, and the kink energies to them are
``energies[k]`` (``energies[b, k]`` for point b of a batch, 0.0 where
that point lacks the pair). ``engines.coupling`` builds it from the kink
matrices. A step or a sweep costs O(nnz): the local field of a cell is
summed over its row only.

Each entry point has two kernels that give bit-identical results, so the
output never depends on which one ran:

* ``c``: ``coherence_euler_c``, ``bistable_sweep_c`` and
  ``format_sci_c``: three entry points of one library, built from
  ``_kernels.c`` (shipped with the package) and loaded through
  ``ctypes``. The first kernel call in a process compiles it with ``$CC``
  (default ``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/qcasim/``, or,
  where that directory cannot be used, into ``qcasim-<uid>`` under the
  temporary directory, and failing that into a fresh temporary directory;
  later processes load the cached library. The library name carries a
  sha256 of the source, the flags and ``$CC --version``.
* ``loop``: ``coherence_euler_loop`` and ``bistable_sweep_loop``, the
  engine kernels over Python lists, and ``format_sci_loop``, Python's
  `%`: the references the C kernels are tested against, and the kernels
  that run where no compiler works (``CC=/nonexistent``, say).

``kernel_path`` names the path that ``coherence_euler``,
``bistable_sweep`` and ``format_sci`` run: "c" whenever the library
loads, else "loop". ``format_sci`` loads it too, so ``kink``, which
runs no engine, loads it to print its energies.

In the engine kernels every ``+``, ``*``, ``/`` and ``sqrt`` is the same
IEEE operation in the same order in both, and ``cos`` and ``tanh`` are
libm's, as ``math.cos`` and ``math.tanh`` are. The library is built with
``-ffp-contract=off`` and never with ``-ffast-math``, since a fused
multiply-add would change the bits, and the formatter's error bound
assumes correctly rounded operations. ``benchmarks/bench_coherence.py``
times the two coherence kernels and ``benchmarks/bench_coupling.py`` the
bistable relaxation.

The C integrator skips work whose result it already has. Per point and
free cell it keeps, in scratch that each C call allocates and frees, the
last steady state it computed, ``gz = field / hbar``, ``ss_x`` and ``ss_z``,
with the bit patterns of the clock term ``gx`` and the local field they
came from. Where a step's ``gx`` and field match those bits, it reuses
the three values and skips the division, ``sqrt``, ``tanh`` and the
|Gamma|^2 overflow check; otherwise it computes them and refreshes the
entry. At step 0 every cell computes. This is exact: the three values
are a pure function of ``gx``, the field, the point's fixed temperature,
``hbar`` and kB, ``tanh`` is deterministic, and the stored values passed
the overflow check when computed. Matching bits, not ``==``, keeps -0.0,
0.0 and NaNs apart. About half the cell updates of the temperature sweep
hit, where a zone's clock is clamped at ``clock_low`` or ``clock_high``
and the fields have settled. The loop kernel stays the plain reference
and recomputes at every step: in Python the reuse saved under 5%.

The C integrator splits a batch of B points into k = min(B, usable
cores) chunks, the usable cores being ``len(os.sched_getaffinity(0))``,
or ``os.cpu_count()`` where the platform has no affinity (macOS). Chunk
j holds the points j, j + k, j + 2k, ...: interleaved, since the points
of a sweep grow costlier along it (at 10,000 steps, the 8 points of the
temperature sweep at 7-30 K take 7.8 ms, its 7 points at 0-6 K 5.4 ms).
Chunk 0 runs on the calling thread and each other chunk on a
``threading.Thread`` of its own; ctypes releases the GIL for the call,
so the chunks run in parallel. Each chunk fills the caller's recorded
polarizations, finals and bad steps in place, so nothing is gathered
and the recording, up to ``engines.MAX_RECORD_BYTES``, is never copied.
Its working memory is its own, allocated by the C call in whole 64-byte
cache lines. Chunk 0 alone records the shared times and clocks. The
results are those of one call, bit for bit, at any k. A single point
(B = 1) and a one-core machine make one call and start no thread. There
is no option, setting or size threshold for k. The loop kernel holds
the GIL, so it runs its batch serially.

The C formatter writes a value only where it can prove the rounding, and
hands every other value back to `%`, which rounds correctly (Gay,
"Correctly Rounded Binary-Decimal and Decimal-Binary Conversions",
1990). For |v| in [1e-38, 1e38] with decimal exponent e10 (from
``log10``, corrected by at most 3 rescalings), it scales s = |v| *
10^(5 - e10) into [1e5, 1e6) with at most two correctly rounded
multiplications or divisions by the exact powers 1e0 ... 1e22, so s lies
within 2 roundings of the true S: |s - S| < 2.3e-10. It writes the value
only where s lies at least 1e-7 from the nearest half-integer, over 400
times that bound; there s and S round to the same six-digit mantissa (a
mantissa of 1000000 carries into the exponent). Exact ties, which `%`
rounds half to even, and near-ties fall back, as do +-0, subnormals,
values outside the range, inf and NaN: about 2 values in 10 million of
uniform physical-scale data, and every value out of the range. It
returns one buffer of LF-terminated texts, an empty line for each value
it left out, with the indices of those; ``format_sci`` decodes and
splits the buffer once and fills those in with `%`.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from pathlib import Path

import numpy as np

# perfbench/run.py reads this name; there is no numba kernel.
NUMBA_ENABLED = False

SOURCE = Path(__file__).with_name("_kernels.c")
COMPILE_FLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-shared")
LINK_FLAGS = ("-lm",)

UNIT_BALL_LIMIT_SQ = (1.0 + 1e-6) ** 2

# The CSV number format, scientific notation with six significant digits
# (`sweeps.sci`); qcasim_format_sci writes it too.
SCI_FORMAT = "%.5e"
_SCI_WIDTH = 14  # the most bytes qcasim_format_sci writes per value


def clock_value(t: float, zone: int, periods: float, total_time: float,
                shift: float, amplitude: float, low: float, high: float) -> float:
    value = shift + amplitude * math.cos(
        2.0 * math.pi * periods * t / total_time - zone * math.pi / 2.0)
    if value < low:
        return low
    if value > high:
        return high
    return value


def coherence_euler_loop(energies, zones, driven, drive_values, n_steps, dt,
                         total_time, periods, clock_shift, clock_amplitude,
                         clock_low, clock_high, tau, temperature, boltzmann_k,
                         hbar, stride, rec_times, rec_clocks, rec_pols,
                         offsets, cols):
    """Integrate d(lambda)/dt = Gamma x lambda - (lambda - lambda_ss)/tau
    for B points in lockstep: energies (B, nnz) over the neighbor list
    (offsets (n + 1,), cols (nnz,)), drive_values (B, n), temperature (B,),
    rec_pols (B, n_rec, n); zones and driven (n,) and the rest are shared.

    Gamma = (-2*gamma_z(t), 0, E_i(t))/hbar per cell; lambda_ss is the
    thermal steady state tanh(hbar*|Gamma|/(2 kB T)) * Gamma/|Gamma|, and
    0 when |Gamma| = 0; the polarization is lambda_z. Driven cells hold
    their drive value. Updates are synchronous: all local fields are
    evaluated from the previous step's polarizations. Returns
    (final_pol (B, n), bad_step (B,)), bad_step[b] being -1 for a point
    that ran to the end.

    A point whose |lambda| exceeds 1 + 1e-6 (or becomes NaN) stops at that
    cell, mid-sweep: bad_step[b] = the step, its polarizations stay as
    they are and it is no longer recorded. A point where |Gamma|**2
    overflows to inf fails the same way, at that cell and before its
    update, since lambda_ss would silently read 0 there. The batch ends
    once every point has failed. The recordings are filled every `stride`
    steps (step 0 included); each point's rows stop when it fails, while
    the times and clocks are recorded at every such step up to n_steps,
    those after every point has failed included.
    """
    batch, n = drive_values.shape
    offsets = offsets.tolist()
    cols = cols.tolist()
    free = [i for i in range(n) if not driven[i]]
    zone_of = zones.tolist()
    pols = np.where(driven, drive_values, 0.0).tolist()
    bad_step = np.full(batch, -1, dtype=np.int64)
    # per point: index, polarizations, coherence vectors of the free cells,
    # (cell, zone, neighbor row of (col, energy)) per free cell, and 2 kB T,
    # 0.0 where T <= 0 (or 2 kB T underflows), which takes th = 1.0 as the
    # C kernel's tanh(inf) does
    points = []
    for b in range(batch):
        row_energies = energies[b].tolist()
        cells = [(i, zone_of[i],
                  list(zip(cols[offsets[i]:offsets[i + 1]],
                           row_energies[offsets[i]:offsets[i + 1]])))
                 for i in free]
        temp = float(temperature[b])
        thermal = 2.0 * boltzmann_k * temp if temp > 0.0 else 0.0
        points.append((b, pols[b], [(0.0, 0.0, 0.0)] * len(free), cells,
                       thermal))
    sqrt, tanh, inf = math.sqrt, math.tanh, math.inf
    limit_sq = UNIT_BALL_LIMIT_SQ
    n_rec = rec_times.shape[0]
    rec = 0
    for step in range(n_steps + 1):
        t = step * dt
        gammas = [clock_value(t, z, periods, total_time, clock_shift,
                              clock_amplitude, clock_low, clock_high)
                  for z in range(4)]
        record = step % stride == 0 and rec < n_rec
        if record:
            rec_times[rec] = t
            rec_clocks[rec] = gammas
            for b, pol, _, _, _ in points:
                rec_pols[b, rec] = pol
            rec += 1
        if step == n_steps:
            break
        gx_zone = [-2.0 * g / hbar for g in gammas]
        failed = False
        for b, pol, lam, cells, thermal in points:
            # local fields from the previous step's polarizations
            fields = []
            for _, _, row in cells:
                acc = 0.0
                for j, energy in row:
                    acc += energy * pol[j]
                fields.append(acc)
            for k, (i, zone, _) in enumerate(cells):
                gx = gx_zone[zone]
                gz = fields[k] / hbar
                mag = sqrt(gx * gx + gz * gz)
                if mag == inf:  # |Gamma|**2 overflows: lambda_ss would be 0
                    bad_step[b] = step
                    failed = True
                    break
                th = tanh(hbar * mag / thermal) if thermal else 1.0
                if mag == 0.0:
                    ss_x = 0.0
                    ss_z = 0.0
                else:
                    ss_x = th * gx / mag
                    ss_z = th * gz / mag
                lx, ly, lz = lam[k]
                # Gamma x lambda with Gamma = (gx, 0, gz)
                dx = -gz * ly - (lx - ss_x) / tau
                dy = gz * lx - gx * lz - ly / tau
                dz = gx * ly - (lz - ss_z) / tau
                nx = lx + dt * dx
                ny = ly + dt * dy
                nz = lz + dt * dz
                lam[k] = (nx, ny, nz)
                pol[i] = nz
                if not nx * nx + ny * ny + nz * nz <= limit_sq:
                    bad_step[b] = step
                    failed = True
                    break
        if failed:
            points = [point for point in points if bad_step[point[0]] < 0]
            if not points:
                break
    # the rows of the recording steps left after every point has failed
    for rec in range(rec, min(n_rec, n_steps // stride + 1)):
        t = rec * stride * dt
        rec_times[rec] = t
        rec_clocks[rec] = [clock_value(t, z, periods, total_time, clock_shift,
                                       clock_amplitude, clock_low, clock_high)
                           for z in range(4)]
    return np.array(pols).reshape(batch, n), bad_step


def _saturate(x: float) -> float:
    """The bistable update f(x) = x / sqrt(1 + x^2)."""
    square = x * x
    if square == math.inf:  # |x| > ~1.3e154 overflows; the true value rounds to +-1
        return math.copysign(1.0, x)
    return x / math.sqrt(1.0 + square)


def bistable_sweep_loop(energies, offsets, cols, pols, free, two_gamma,
                        tolerance, max_iterations):
    """Relax the free cells of one point Gauss-Seidel: energies (nnz,) over
    the neighbor list (offsets (n + 1,), cols (nnz,)), pols (n,) the
    starting polarizations (the drive values at driven cells), free (m,)
    the positions of the free cells in sweep order.

    Each sweep sets pols[k] <- f(field_k / two_gamma) for each free
    position k in turn, the field summed from +0.0 over row k in ascending
    column; it stops once the largest change of a sweep is below
    `tolerance`, or after `max_iterations` sweeps. pols is updated in
    place. Returns (converged, sweeps run, the position whose change was
    the largest in the last sweep, the first such, or -1 where no change
    was above 0).
    """
    energies = energies.tolist()
    offsets = offsets.tolist()
    cols = cols.tolist()
    values = pols.tolist()
    # (position, neighbor row of (position, energy)) per free cell, in
    # sweep order
    rows = [(k, list(zip(cols[offsets[k]:offsets[k + 1]],
                         energies[offsets[k]:offsets[k + 1]])))
            for k in free.tolist()]
    sweeps = 0
    worst_k = -1
    converged = False
    for _ in range(max_iterations):
        sweeps += 1
        worst = 0.0
        worst_k = -1
        for k, row in rows:
            field = 0.0
            for j, energy in row:
                field += energy * values[j]
            new = _saturate(field / two_gamma)
            change = abs(new - values[k])
            if change > worst:
                worst = change
                worst_k = k
            values[k] = new
        if worst < tolerance:
            converged = True
            break
    pols[:] = values
    return converged, sweeps, worst_k


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
    """The library at `path`, its three entry points typed."""
    import ctypes
    library = ctypes.CDLL(str(path))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    euler = library.qcasim_coherence_euler
    euler.argtypes = ([i64] * 4 + [ptr] * 6 + [i64] + [f64] * 8 + [ptr]
                      + [f64] * 3 + [i64, i64] + [ptr] * 5)
    euler.restype = i64
    sweep = library.qcasim_bistable_sweep
    sweep.argtypes = [i64] + [ptr] * 5 + [f64, f64, i64, ptr, ptr]
    sweep.restype = i64
    text = library.qcasim_format_sci
    text.argtypes = [i64] + [ptr] * 4
    text.restype = i64
    return library


@functools.lru_cache(maxsize=None)
def _library():
    """The compiled library of the kernels, built on first use;
    None where there is no working compiler. Loads a cached library only
    from a directory that the current user owns and no one else can write;
    if neither cache directory qualifies, builds into a fresh temporary
    directory."""
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
    name = f"kernels-{key.hexdigest()[:20]}.so"
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


def _check_neighbors(offsets, cols, n: int) -> int:
    """Check a neighbor list of n cells, as both C entry points read it;
    returns nnz."""
    _check("offsets", offsets, np.int64, (n + 1,))
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("offsets must start at 0 and never decrease")
    nnz = int(offsets[-1])
    _check("cols", cols, np.int64, (nnz,))
    if nnz and not 0 <= cols.min() <= cols.max() < n:
        raise ValueError(f"cols must be cell positions 0..{n - 1}")
    return nnz


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (not on macOS), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def coherence_euler_c(energies, zones, driven, drive_values, n_steps, dt,
                      total_time, periods, clock_shift, clock_amplitude,
                      clock_low, clock_high, tau, temperature, boltzmann_k,
                      hbar, stride, rec_times, rec_clocks, rec_pols,
                      offsets, cols, *, _chunks=None):
    """The batched integrator in C, with the arguments, results and
    failure semantics of ``coherence_euler_loop``. Every array is checked
    for dtype, C-contiguity and shape, and the neighbor list for
    consistency, before its pointer is passed.

    The B points run as k = min(B, usable cores) interleaved chunks,
    points j, j + k, j + 2k, ... in chunk j: chunk 0 on the calling
    thread, each other on a thread of its own (ctypes releases the GIL for
    the call). ``_chunks`` sets k, for the tests. Raises MemoryError if a
    chunk cannot allocate its scratch."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    batch, n = np.shape(drive_values)
    nnz = _check_neighbors(offsets, cols, n)
    n_rec = np.shape(rec_times)[0] if np.ndim(rec_times) == 1 else -1
    for spec in (
        ("energies", energies, np.float64, (batch, nnz)),
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
    chunks = max(1, min(batch, _chunks or _usable_cores()))
    final = np.empty((batch, n))
    bad_step = np.empty(batch, dtype=np.int64)
    shared = (
        n, offsets.ctypes, cols.ctypes, energies.ctypes, zones.ctypes,
        driven.ctypes, drive_values.ctypes, int(n_steps), dt, total_time,
        periods, clock_shift, clock_amplitude, clock_low, clock_high, tau,
        temperature.ctypes, boltzmann_k, hbar, UNIT_BALL_LIMIT_SQ, stride,
        n_rec)
    # only chunk 0 records the times and clocks
    calls = [(batch, j, chunks, *shared,
              *((rec_times.ctypes, rec_clocks.ctypes) if j == 0 else (None, None)),
              rec_pols.ctypes, final.ctypes, bad_step.ctypes)
             for j in range(chunks)]
    status = [0] * chunks

    def run(j):
        status[j] = library.qcasim_coherence_euler(*calls[j])

    threads = [threading.Thread(target=run, args=(j,)) for j in range(1, chunks)]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if min(status) < 0:
        raise MemoryError("the coherence kernel could not allocate its scratch")
    return final, bad_step


def bistable_sweep_c(energies, offsets, cols, pols, free, two_gamma,
                     tolerance, max_iterations):
    """The bistable sweep in C, with the arguments and results of
    ``bistable_sweep_loop``. Every array is checked for dtype,
    C-contiguity and shape, the neighbor list for consistency and the free
    positions for range, before its pointer is passed."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    n = np.size(pols)
    nnz = _check_neighbors(offsets, cols, n)
    _check("energies", energies, np.float64, (nnz,))
    _check("pols", pols, np.float64, (n,), output=True)
    n_free = np.size(free)
    _check("free", free, np.int64, (n_free,))
    if n_free and not 0 <= free.min() <= free.max() < n:
        raise ValueError(f"free must be cell positions 0..{n - 1}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    # no run reaches 2**63 - 1 sweeps; the smaller value fits the C int64
    max_iterations = min(int(max_iterations), 2**63 - 1)
    sweeps = np.zeros(1, dtype=np.int64)
    worst = np.zeros(1, dtype=np.int64)
    converged = library.qcasim_bistable_sweep(
        n_free, free.ctypes.data, offsets.ctypes.data, cols.ctypes.data,
        energies.ctypes.data, pols.ctypes.data, two_gamma, tolerance,
        max_iterations, sweeps.ctypes.data, worst.ctypes.data)
    return bool(converged), int(sweeps[0]), int(worst[0])


def format_sci_loop(values) -> list[str]:
    """The "%.5e" text of each value of a float64 array: Python's `%`,
    the reference the C formatter is tested against."""
    return [SCI_FORMAT % value for value in values.tolist()]


def format_sci_c(values) -> tuple[list[str], np.ndarray]:
    """The "%.5e" texts of a C-contiguous float64 array (n,) as far as the
    C formatter can certify them: returns (texts, rejected), with "" at
    each index in `rejected` (int64, ascending), the values it left out."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    n = np.size(values)
    _check("values", values, np.float64, (n,))
    text = np.empty(_SCI_WIDTH * n, dtype=np.uint8)
    length = np.zeros(1, dtype=np.int64)
    rejected = np.empty(n, dtype=np.int64)
    count = library.qcasim_format_sci(n, values.ctypes.data, text.ctypes.data,
                                      length.ctypes.data, rejected.ctypes.data)
    texts = str(text[:length[0]], "ascii").split("\n")
    texts.pop()  # what follows the last LF
    return texts, rejected[:count]


def format_sci(values) -> list[str]:
    """The "%.5e" text of each value of a C-contiguous float64 array, as
    Python's `%` writes it: in C where the library loads and the rounding
    is certified, by `%` otherwise."""
    if _library() is None:
        return format_sci_loop(values)
    texts, rejected = format_sci_c(values)
    for i, text in zip(rejected.tolist(), format_sci_loop(values[rejected])):
        texts[i] = text
    return texts


def kernel_path() -> str:
    """The kernels ``coherence_euler``, ``bistable_sweep`` and
    ``format_sci`` run: "c" whenever the compiled library loads, else
    "loop"."""
    return "c" if _library() is not None else "loop"


def coherence_euler(*args):
    """The batched integrator: the kernel ``kernel_path`` names, called
    with the arguments of ``coherence_euler_loop``."""
    kernel = coherence_euler_c if _library() is not None else coherence_euler_loop
    return kernel(*args)


def bistable_sweep(*args):
    """The bistable sweep: the kernel ``kernel_path`` names, called with
    the arguments of ``bistable_sweep_loop``."""
    kernel = bistable_sweep_c if _library() is not None else bistable_sweep_loop
    return kernel(*args)
