"""Hot numeric kernels: the coherence-vector integrator and the bistable
Gauss-Seidel sweep of the two engines, the CSV number formatter and the
CSV row writer.

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
the bytes of Python's `%`, as a text table: ``(data, offsets)``, entry k
being the UTF-8 bytes ``data[offsets[k]:offsets[k + 1]]`` (``text_table``
builds one from strings, ``table_texts`` reads one back).

The row writer entry point ``write_rows`` writes a block of CSV rows from
one text table: field (r, c) is entry ``indices[c, r]``, every field ends
in "," and the last of a row in LF. In C (``qcasim_write_rows``) it
gathers the rows into one byte buffer; it returns the block's text,
decoded from UTF-8 once. ``sweeps.write_csv`` makes one call per block of
rows.

The two engine kernels read the coupling as a neighbor list: with
``k = slice(offsets[i], offsets[i + 1])``, the neighbors of cell i are
``cols[k]``, in ascending position, and the kink energies to them are
``energies[k]`` (``energies[b, k]`` for point b of a batch, 0.0 where
that point lacks the pair). ``engines.coupling`` builds it from the kink
matrices. A step or a sweep costs O(nnz): the local field of a cell is
summed over its row only.

Each entry point has two kernels that give bit-identical results, so the
output never depends on which one ran:

* ``c``: ``coherence_euler_c``, ``bistable_sweep_c``, ``format_sci_c``
  and ``write_rows_c``: four entry points of one library, built from
  ``_kernels.c`` (shipped with the package) and loaded through
  ``ctypes``. The first kernel call in a process compiles it with ``$CC``
  (default ``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/qcasim/``, or,
  where that directory cannot be used, into ``qcasim-<uid>`` under the
  temporary directory, and failing that into a fresh temporary directory;
  later processes load the cached library without running the compiler.
  The library name carries a CRC-32 of the source, the flags and the
  ``$CC`` argv.
* ``loop``: ``coherence_euler_loop`` and ``bistable_sweep_loop``, the
  engine kernels over Python lists, ``format_sci_loop``, Python's `%`,
  and ``write_rows_loop``, ``",".join`` over the table's texts: the
  references the C kernels are tested against, and the kernels that run
  where no compiler works (``CC=/nonexistent``, say).

``kernel_path`` names the path that ``coherence_euler``,
``bistable_sweep``, ``format_sci`` and ``write_rows`` run: "c" whenever
the library loads, else "loop". ``format_sci`` and ``write_rows`` load it
too, so ``kink``, which runs no engine, loads it to print its rows.

In the engine kernels every ``+``, ``*``, ``/`` and ``sqrt`` is the same
IEEE operation in the same order in both, and ``cos`` and ``tanh`` are
libm's, as ``math.cos`` and ``math.tanh`` are. The library is built with
``-ffp-contract=off`` and never with ``-ffast-math``, since a fused
multiply-add would change the bits, and the formatter's error bound
assumes correctly rounded operations. The header of ``_kernels.c``
explains how the C integrator reuses steady states and splits a batch
over threads, and why the C formatter's texts are those of `%`.
``tests/test_kernels.py`` compares each C kernel with its loop kernel, bit
for bit, and ``tests/test_sweeps.py`` the row writers on drawn tables;
``benchmarks/bench_coherence.py`` times the coherence kernels and
``benchmarks/bench_coupling.py`` the bistable relaxation and the ``kink``
output, which ``write_rows`` gathers.

The C integrator splits a batch over the usable cores (see
``coherence_euler_c``); its results are those of one call, bit for bit,
at any split. A single point (B = 1) and a one-core machine start no
thread. The loop kernel holds the GIL, so it runs its batch serially.

The C formatter writes a value only where it can prove the rounding and
returns the indices of the others; ``format_sci`` fills those in with
`%`.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import zlib
from pathlib import Path
from typing import Sequence

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
_SCI_WIDTH = 13  # the most bytes qcasim_format_sci writes per value


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
    """The library at `path`, its four entry points typed."""
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
    rows = library.qcasim_write_rows
    rows.argtypes = [i64, i64] + [ptr] * 4
    rows.restype = i64
    return library


@functools.lru_cache(maxsize=None)
def _library():
    """The compiled library of the kernels, built on first use;
    None where there is no working compiler (``$CC`` not found, or the
    build fails). Loads a cached library only from a directory that the
    current user owns and no one else can write, so its name need only
    tell builds apart: it carries a CRC-32 of the source, the flags and
    the ``$CC`` argv, and a cache hit runs no compiler. A build into a
    cache directory removes the other ``kernels-*.so`` and ``euler-*.so``
    there, which earlier sources, flags or compilers left; a cache hit
    removes nothing. If neither cache directory qualifies, builds into a
    fresh temporary directory."""
    if os.name != "posix":
        return None
    import shlex
    import shutil
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        source = SOURCE.read_bytes()
    except (OSError, ValueError):
        return None
    if not cc or shutil.which(cc[0]) is None:
        return None
    key = b"\0".join([source, " ".join(COMPILE_FLAGS + LINK_FLAGS).encode(),
                      *map(os.fsencode, cc)])
    name = f"kernels-{zlib.crc32(key):08x}.so"
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
                for stale in [*directory.glob("kernels-*.so"),
                              *directory.glob("euler-*.so")]:
                    if stale.name != name:
                        try:
                            stale.unlink()
                        except OSError:
                            pass
            return _bind(library)
        import tempfile
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
                      offsets, cols):
    """The batched integrator in C, with the arguments, results and
    failure semantics of ``coherence_euler_loop``. Every array is checked
    for dtype, C-contiguity and shape, and the neighbor list for
    consistency, before its pointer is passed.

    The B points run as k = min(B, usable cores) interleaved chunks,
    points j, j + k, j + 2k, ... in chunk j: chunk 0 on the calling
    thread, each other on a thread of its own (ctypes releases the GIL for
    the call). Raises MemoryError if a chunk cannot allocate its scratch."""
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
    chunks = max(1, min(batch, _usable_cores()))
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


def text_table(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The text table of `texts`, each a `str`: (data, offsets), entry k
    being the UTF-8 bytes data[offsets[k]:offsets[k + 1]] of texts[k]. A
    lone surrogate passes as its own three bytes, so every str reads back
    as itself."""
    joined = "".join(texts)
    data = joined.encode("utf-8", "surrogatepass")
    if len(data) == len(joined):  # ASCII: a byte per character
        lengths = map(len, texts)
    else:
        lengths = (len(text.encode("utf-8", "surrogatepass")) for text in texts)
    offsets = np.fromiter(itertools.accumulate(lengths, initial=0), np.int64,
                          len(texts) + 1)
    return np.frombuffer(data, dtype=np.uint8), offsets


def table_texts(table) -> list[str]:
    """The texts of a text table, entry by entry."""
    data, offsets = table
    raw = data.tobytes()
    bounds = offsets.tolist()
    return [str(raw[a:b], "utf-8", "surrogatepass")
            for a, b in zip(bounds, bounds[1:])]


def format_sci_loop(values) -> list[str]:
    """The "%.5e" text of each value of a float64 array: Python's `%`,
    the reference the C formatter is tested against."""
    return [SCI_FORMAT % value for value in values.tolist()]


def format_sci_c(values) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The "%.5e" texts of a C-contiguous float64 array (n,) as far as the
    C formatter can certify them: returns (text table, rejected), with an
    empty entry at each index in `rejected` (int64, ascending), the values
    it left out."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    n = np.size(values)
    _check("values", values, np.float64, (n,))
    text = np.empty(_SCI_WIDTH * n, dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    rejected = np.empty(n, dtype=np.int64)
    count = library.qcasim_format_sci(n, values.ctypes.data, text.ctypes.data,
                                      offsets[1:].ctypes.data, rejected.ctypes.data)
    return (text[:offsets[-1]], offsets), rejected[:count]


def format_sci(values) -> tuple[np.ndarray, np.ndarray]:
    """The text table of the "%.5e" texts of a C-contiguous float64 array,
    as Python's `%` writes them: in C where the library loads and the
    rounding is certified, by `%` otherwise."""
    if _library() is None:
        return text_table(format_sci_loop(values))
    (data, offsets), rejected = format_sci_c(values)
    if not rejected.size:
        return data, offsets
    # each fallback's bytes go where its empty entry starts
    extra, extra_offsets = text_table(format_sci_loop(values[rejected]))
    lengths = np.diff(offsets)
    lengths[rejected] = np.diff(extra_offsets)
    data = np.insert(data, np.repeat(offsets[rejected], lengths[rejected]), extra)
    return data, np.concatenate(([0], np.cumsum(lengths)))


def write_rows_loop(table, indices) -> str:
    """The text of a block of CSV rows: field (r, c) is entry
    indices[c, r] of the text table `table` (indices (columns, rows)),
    every field ends in "," and the last of a row in LF. ``",".join``
    over the table's texts: the reference the C row writer is tested
    against."""
    texts = table_texts(table)
    block = [[texts[k] for k in column] for column in indices.tolist()]
    return "".join(f"{row}\n" for row in map(",".join, zip(*block)))


def write_rows_c(table, indices) -> str:
    """The row writer in C, with the arguments and result of
    ``write_rows_loop``: gathers the rows into one byte buffer, decoded
    once. The table and the indices are checked for dtype, C-contiguity,
    shape and range before their pointers are passed."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    data, offsets = table
    _check("data", data, np.uint8, (np.size(data),))
    n_entries = np.size(offsets) - 1
    _check("offsets", offsets, np.int64, (n_entries + 1,))
    lengths = np.diff(offsets)
    if n_entries < 0 or offsets[0] != 0 or (lengths < 0).any() or offsets[-1] > data.size:
        raise ValueError("offsets must start at 0, never decrease and end "
                         "within data")
    if np.ndim(indices) != 2:
        raise ValueError("indices must be a 2-D array (columns, rows)")
    n_cols, n_rows = np.shape(indices)
    _check("indices", indices, np.int64, (n_cols, n_rows))
    if indices.size and not 0 <= indices.min() <= indices.max() < n_entries:
        raise ValueError(f"indices must be table entries 0..{n_entries - 1}")
    # the longest entry and its "," or LF, per field
    out = np.empty((int(lengths.max(initial=0)) + 1) * indices.size, dtype=np.uint8)
    size = library.qcasim_write_rows(n_rows, n_cols, data.ctypes.data,
                                     offsets.ctypes.data, indices.ctypes.data,
                                     out.ctypes.data)
    return str(out[:size], "utf-8", "surrogatepass")


def kernel_path() -> str:
    """The kernels ``coherence_euler``, ``bistable_sweep``, ``format_sci``
    and ``write_rows`` run: "c" whenever the compiled library loads, else
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


def write_rows(*args):
    """The row writer: the kernel ``kernel_path`` names, called with the
    arguments of ``write_rows_loop``."""
    kernel = write_rows_c if _library() is not None else write_rows_loop
    return kernel(*args)
