"""Hot numeric kernels: the coherence-vector integrator and the bistable
Gauss-Seidel sweep of the two engines, the CSV number formatter, the CSV
row writer, the pair search, the pass from cells to the pairs and
geometry groups of the kink matrix, and the certified pass over the cell
lines of a .qcl document.

The integrator entry point ``coherence_euler`` is batched: B points that
share the cell order, clock zones, driven cells, time grid and clock
advance in lockstep, each with its own kink energies ``energies[b]``,
drive values ``drive_values[b]`` (n,) and temperature ``temperature[b]``.
The recorded times and clock values are shared by the batch; the recorded
polarizations are per point, ``rec_pols[b]``. A single run is the B=1 case.
It returns ``(final, bad_step)``: the final polarizations (B, n), and per
point the step at which it failed, -1 for a point that ran to the end.

The sweep entry point ``bistable_sweep`` relaxes one point Gauss-Seidel.

The formatter entry point ``format_sci`` writes the "%.5e" text of each
value of a float64 array (six significant digits, ``sweeps.sci``), with
the bytes of Python's `%`, as a text table: ``(data, offsets)``, entry k
being the UTF-8 bytes ``data[offsets[k]:offsets[k + 1]]`` (``text_table``
builds one from strings, ``table_texts`` reads one back).

The row writer entry point ``write_rows`` writes a block of CSV rows from
one text table: field (r, c) is entry ``indices[c, r]``, every field ends
in "," and the last of a row in LF; ``sweeps.write_csv`` makes one call
per block of rows.

The pair search entry point ``near_pairs`` returns exactly the index
pairs (i, j), i < j, of cells within a reach of each other along both
axes, in (i, j) order; the layout overlap check runs it. The kink pair
entry point ``kink_pairs`` returns the pairs of ``kink_matrix``, those
within the radius of effect as ``math.dist`` measures it, in (i, j)
order, each numbered by its geometry (the kinds of both cells and the
center difference), groups in the order of their first pairs, so that
each geometry's energy is computed once. Both its kernels decide the
radius by squares where a margin proves them right and hand the other
pairs back, a geometry group at a time, to ``kink_pairs``, which decides
them with ``math.hypot``.

The parse entry point ``parse_cells`` reads the cell lines of a .qcl
document after a first line ``qcl 1`` into the layout columns, up to the
first line it cannot certify, and returns where that line starts;
``geometry.parse_cells_loop``, the per-line parse, reads on from there and
gives every diagnostic. It certifies only lines that the loop reads into
the same cells, bit for bit, and a number only where one correctly
rounded operation converts it (see ``qcasim_parse_cells``).

The two engine kernels read the coupling as a neighbor list: with
``k = slice(offsets[i], offsets[i + 1])``, the neighbors of cell i are
``cols[k]``, in ascending position, and the kink energies to them are
``energies[k]`` (``energies[b, k]`` for point b of a batch, 0.0 where
that point lacks the pair). ``engines.coupling`` builds it from the kink
matrices. A step or a sweep costs O(nnz): the local field of a cell is
summed over its row only.

Each entry point has two kernels that give bit-identical results, so the
output never depends on which one ran:

* ``c``: the seven ``*_c`` wrappers (``coherence_euler_c`` and so on) of
  the seven entry points of one library, built from ``_kernels.c``
  (shipped with the package) and loaded through ``ctypes``. The first
  kernel call in a process compiles it with ``$CC`` (default ``cc``)
  into a private cache directory (see ``_library``); later processes
  load the cached library without running the compiler.
* ``loop``: ``coherence_euler_loop`` and ``bistable_sweep_loop``, the
  engine kernels over Python lists, ``format_sci_loop``, Python's `%`,
  ``write_rows_loop``, ``",".join`` over the table's texts,
  ``near_pairs_loop`` and ``kink_pairs_loop``, in numpy (the latter
  drops the pairs of ``near_pairs_loop`` that ``_by_squares`` puts surely
  beyond the radius and groups the rest with ``group_keys_loop``), and
  ``geometry.parse_cells_loop``, which reads every line of a document
  where the C pass certifies none: the references the C kernels are
  tested against, and the kernels that run where no compiler works
  (``CC=/nonexistent``, say).

``kernel_path`` names the path that every dispatcher runs: "c" whenever
the library loads, else "loop". Every ``Layout`` built runs
``near_pairs`` in its overlap check, so any command loads the library.

The C boundary is declared once: ``_bind`` types each entry point from
its row of one table, ``_SIGNATURES``, and every pointer passed to C is an
address from one check, ``_pointer`` (dtype, shape, C order and, where C
writes, writability; one ValueError text). Each C wrapper checks its
arguments in one function (``_euler_args``, ``_sweep_args``,
``_row_args``, ``_pair_args``, ``_kink_args``; ``_vector`` for
``format_sci``), and the dispatcher runs it on the loop path too, so both
paths reject the same inputs with the same ValueError.

In the engine kernels every ``+``, ``*``, ``/`` and ``sqrt`` is the same
IEEE operation in the same order in both, and ``cos`` and ``tanh`` are
libm's, as ``math.cos`` and ``math.tanh`` are. The library is built with
``-ffp-contract=off`` and never with ``-ffast-math``, since a fused
multiply-add would change the bits, and the formatter's error bound
assumes correctly rounded operations. The C integrator skips, exactly, a
step that would repeat the last one bit for bit (no vector changed a bit
and the clock of every zone in use kept its bits): it only records. The
loop kernel never skips. The header of ``_kernels.c`` gives that rule
and why it is exact, how the C integrator splits a batch over threads
(its results are those of one call at any split; the loop kernel holds
the GIL and runs its batch serially), why the C formatter's texts are
those of `%` (it writes a value only where it can prove the rounding,
and ``format_sci`` fills in the others with `%`), how the C pair search
orders its pairs without comparing them, which pairs the C kink pass
decides and how it numbers their groups, and what the C parse certifies
and why its numbers are those of Python's `float`.
``tests/test_kernels.py``, ``tests/test_sweeps.py``,
``tests/test_coupling.py`` and ``tests/test_geometry.py`` compare each C
kernel with its loop kernel, bit for bit; ``benchmarks/`` times both.
"""

from __future__ import annotations

import ctypes
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
    once every point has failed. The polarizations are recorded every
    `stride` steps (step 0 included), each point's rows stopping when it
    fails. A step evaluates the clock only for the zones that hold a free
    cell; the time and the four clocks of every recording step up to
    n_steps, those after every point has failed included, are written
    once, after the last step.
    """
    batch, n = drive_values.shape
    offsets = offsets.tolist()
    cols = cols.tolist()
    free = [i for i in range(n) if not driven[i]]
    zone_of = zones.tolist()
    used = [any(zone_of[i] == z for i in free) for z in range(4)]
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
        if step % stride == 0 and rec < n_rec:
            for b, pol, _, _, _ in points:
                rec_pols[b, rec] = pol
            rec += 1
        if step == n_steps:
            break
        t = step * dt
        # the clock of the zones that hold a free cell
        gx_zone = [-2.0 * clock_value(t, z, periods, total_time, clock_shift,
                                      clock_amplitude, clock_low, clock_high) / hbar
                   if used[z] else 0.0 for z in range(4)]
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
    # the time and clocks of every recording row, at the t of its step
    for rec in range(min(n_rec, n_steps // stride + 1)):
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


# The prototypes of the entry points of _kernels.c, a letter per argument
# in C order: i an int64_t, d a double, p a pointer (an address from
# `_pointer`, or None for NULL). Each returns an int64_t.
_SIGNATURES = {
    "qcasim_coherence_euler": "iiii pppppp i dddddddd p ddd ii ppppp",
    "qcasim_bistable_sweep": "i ppppp ddi pp",
    "qcasim_format_sci": "i pppp",
    "qcasim_write_rows": "ii pppp",
    "qcasim_near_pairs": "i pp di pp",
    "qcasim_kink_pairs": "i pp d ppp i pppppp",
    "qcasim_parse_cells": "i p iii ppppp",
}


def _bind(path: Path):
    """The library at `path`, its entry points typed from _SIGNATURES."""
    library = ctypes.CDLL(str(path))
    kinds = {"i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}
    for name, letters in _SIGNATURES.items():
        entry = getattr(library, name)
        entry.argtypes = [kinds[letter] for letter in letters.replace(" ", "")]
        entry.restype = ctypes.c_int64
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


def _compiled():
    """The compiled library; RuntimeError where it does not load."""
    library = _library()
    if library is None:
        raise RuntimeError("the compiled kernels are not available")
    return library


def _pointer(name: str, array, dtype, shape: tuple, output: bool = False) -> int:
    """The address of `array` for C, once it is checked: an ndarray of
    `dtype` and `shape`, C-contiguous, and writable where C writes to it
    (`output`); ValueError otherwise."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous
            and (array.flags.writeable or not output)):
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")
    return array.ctypes.data


def _vector(name: str, array, dtype=np.float64) -> tuple[int, int]:
    """The length n of a C-contiguous array (n,) of `dtype`, and its address."""
    n = np.size(array)
    return n, _pointer(name, array, dtype, (n,))


def _output(name: str, shape: tuple, dtype=np.float64) -> tuple[np.ndarray, int]:
    """A fresh array for C to fill, and its address. Its check cannot
    fail; it runs so that every address C gets comes from `_pointer`."""
    array = np.empty(shape, dtype)
    return array, _pointer(name, array, dtype, shape, output=True)


def _neighbors(offsets, cols, n: int) -> tuple[int, int, int]:
    """Check a neighbor list of n cells, as both C entry points read it;
    returns nnz and the addresses of offsets and cols."""
    offsets_at = _pointer("offsets", offsets, np.int64, (n + 1,))
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("offsets must start at 0 and never decrease")
    nnz = int(offsets[-1])
    cols_at = _pointer("cols", cols, np.int64, (nnz,))
    if nnz and not 0 <= cols.min() <= cols.max() < n:
        raise ValueError(f"cols must be cell positions 0..{n - 1}")
    return nnz, offsets_at, cols_at


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (not on macOS), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _euler_args(energies, zones, driven, drive_values, n_steps, dt,
                total_time, periods, clock_shift, clock_amplitude, clock_low,
                clock_high, tau, temperature, boltzmann_k, hbar, stride,
                rec_times, rec_clocks, rec_pols, offsets, cols):
    """Check the arguments of an integrator call, as ``qcasim_coherence_euler``
    reads them, the neighbor list and the clock zones for range too. Returns
    B, the C arguments that every chunk shares (n to n_rec), the addresses
    of rec_times and rec_clocks, and that of rec_pols."""
    batch, n = np.shape(drive_values)
    nnz, offsets_at, cols_at = _neighbors(offsets, cols, n)
    n_rec = np.shape(rec_times)[0] if np.ndim(rec_times) == 1 else -1
    energies_at = _pointer("energies", energies, np.float64, (batch, nnz))
    zones_at = _pointer("zones", zones, np.int64, (n,))
    driven_at = _pointer("driven", driven, np.bool_, (n,))
    drive_at = _pointer("drive_values", drive_values, np.float64, (batch, n))
    temperature_at = _pointer("temperature", temperature, np.float64, (batch,))
    times_at = _pointer("rec_times", rec_times, np.float64, (n_rec,), True)
    clocks_at = _pointer("rec_clocks", rec_clocks, np.float64, (n_rec, 4), True)
    pols_at = _pointer("rec_pols", rec_pols, np.float64, (batch, n_rec, n), True)
    if n and not 0 <= zones.min() <= zones.max() <= 3:
        raise ValueError("clock zones must be 0..3")
    if n_steps < 0 or stride < 1:
        raise ValueError("n_steps must be >= 0 and stride >= 1")
    # a stride beyond n_steps records step 0 only, as n_steps + 1 does; the
    # smaller value fits the C int64
    stride = min(int(stride), int(n_steps) + 1)
    shared = (
        n, offsets_at, cols_at, energies_at, zones_at, driven_at, drive_at,
        int(n_steps), dt, total_time, periods, clock_shift, clock_amplitude,
        clock_low, clock_high, tau, temperature_at, boltzmann_k, hbar,
        UNIT_BALL_LIMIT_SQ, stride, n_rec)
    return batch, shared, (times_at, clocks_at), pols_at


def coherence_euler_c(*args):
    """The batched integrator in C, with the arguments, results and
    failure semantics of ``coherence_euler_loop``, checked by
    ``_euler_args``.

    The B points run as k = min(B, usable cores) interleaved chunks,
    points j, j + k, j + 2k, ... in chunk j: chunk 0 on the calling
    thread, each other on a thread of its own (ctypes releases the GIL for
    the call). Raises MemoryError if a chunk cannot allocate its scratch.

    A chunk evaluates the clock only for the zones that hold a free cell,
    and skips the point work of each step after one that changed no bit
    of any of its vectors and failed no point, while each of those clocks
    keeps its bits: such a step would repeat the last one. Its points
    still fill their recording rows. Chunk 0 writes the time and clocks of
    every recording row once, after its last step."""
    library = _compiled()
    batch, shared, recording, pols_at = _euler_args(*args)
    chunks = max(1, min(batch, _usable_cores()))
    final, final_at = _output("final", (batch, shared[0]))
    bad_step, bad_step_at = _output("bad_step", (batch,), np.int64)
    # only chunk 0 records the times and clocks
    calls = [(batch, j, chunks, *shared, *(recording if j == 0 else (None, None)),
              pols_at, final_at, bad_step_at)
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


def _sweep_args(energies, offsets, cols, pols, free, two_gamma, tolerance,
                max_iterations) -> tuple:
    """Check the arguments of a bistable sweep, as ``qcasim_bistable_sweep``
    reads them, the neighbor list and the free positions for range too.
    Returns its C arguments up to max_iterations."""
    n = np.size(pols)
    nnz, offsets_at, cols_at = _neighbors(offsets, cols, n)
    energies_at = _pointer("energies", energies, np.float64, (nnz,))
    pols_at = _pointer("pols", pols, np.float64, (n,), output=True)
    n_free, free_at = _vector("free", free, np.int64)
    if n_free and not 0 <= free.min() <= free.max() < n:
        raise ValueError(f"free must be cell positions 0..{n - 1}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    # no run reaches 2**63 - 1 sweeps; the smaller value fits the C int64
    return (n_free, free_at, offsets_at, cols_at, energies_at, pols_at, two_gamma,
            tolerance, min(int(max_iterations), 2**63 - 1))


def bistable_sweep_c(*args):
    """The bistable sweep in C, with the arguments and results of
    ``bistable_sweep_loop``, checked by ``_sweep_args``."""
    library = _compiled()
    sweep_args = _sweep_args(*args)
    sweeps, sweeps_at = _output("sweeps", (1,), np.int64)
    worst, worst_at = _output("worst", (1,), np.int64)
    converged = library.qcasim_bistable_sweep(*sweep_args, sweeps_at, worst_at)
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
    """The texts of a text table, entry by entry: slices of one decoded
    str where the table is ASCII, a byte per character."""
    data, offsets = table
    raw = data.tobytes()
    bounds = offsets.tolist()
    if raw.isascii():
        raw = raw.decode("ascii")
        return [raw[a:b] for a, b in zip(bounds, bounds[1:])]
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
    library = _compiled()
    n, values_at = _vector("values", values)
    text, text_at = _output("text", (_SCI_WIDTH * n,), np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    rejected, rejected_at = _output("rejected", (n,), np.int64)
    ends_at = _pointer("ends", offsets[1:], np.int64, (n,), True)
    count = library.qcasim_format_sci(n, values_at, text_at, ends_at, rejected_at)
    return (text[:offsets[-1]], offsets), rejected[:count]


def format_sci(values) -> tuple[np.ndarray, np.ndarray]:
    """The text table of the "%.5e" texts of a C-contiguous float64 array,
    as Python's `%` writes them: in C where the library loads and the
    rounding is certified, by `%` otherwise."""
    if _library() is None:
        _vector("values", values)
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


def _row_args(table, indices) -> tuple[int, tuple]:
    """The length of the longest entry of a text table, and the C
    arguments of a block of rows of it (n_rows, n_cols and the addresses
    of data, offsets and indices), all checked."""
    data, offsets = table
    _, data_at = _vector("data", data, np.uint8)
    n_entries, offsets_at = _vector("offsets", offsets, np.int64)
    n_entries -= 1
    lengths = np.diff(offsets)
    if n_entries < 0 or offsets[0] != 0 or (lengths < 0).any() or offsets[-1] > data.size:
        raise ValueError("offsets must start at 0, never decrease and end "
                         "within data")
    if np.ndim(indices) != 2:
        raise ValueError("indices must be a 2-D array (columns, rows)")
    n_cols, n_rows = np.shape(indices)
    indices_at = _pointer("indices", indices, np.int64, (n_cols, n_rows))
    if indices.size and not 0 <= indices.min() <= indices.max() < n_entries:
        raise ValueError(f"indices must be table entries 0..{n_entries - 1}")
    return int(lengths.max(initial=0)), (n_rows, n_cols, data_at, offsets_at, indices_at)


def write_rows_c(table, indices) -> str:
    """The row writer in C, with the arguments and result of
    ``write_rows_loop``: gathers the rows into one byte buffer, decoded
    once."""
    library = _compiled()
    longest, args = _row_args(table, indices)
    # the longest entry and its "," or LF, per field
    out, out_at = _output("out", ((longest + 1) * indices.size,), np.uint8)
    size = library.qcasim_write_rows(*args, out_at)
    return str(out[:size], "utf-8", "surrogatepass")


# A bin as a complex number, column + 1j * row: the offsets of a cell's own
# bin and of four of its eight neighboring bins. Each of the other four
# pairs with this one from its own side.
_FORWARD = np.array([0, 1 - 1j, 1, 1 + 1j, 1j])[:, None]

_NEAR_PAIRS_DOMAIN = "near_pairs needs finite coordinates and a finite reach > 0"


def near_pairs_loop(x, y, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``near_pairs`` in numpy, the reference the C pair
    search is tested against: centers binned on the grid of
    ``qcasim_near_pairs`` (see its comment in ``_kernels.c``), and every
    pair of neighboring bins found by sorted search. Bins are complex
    numbers, which numpy orders lexicographically. The candidates are cut
    to the exact box, then put in (i, j) order by one sort of their keys
    i * n + j."""
    n = len(x)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    centers = np.array((x, y), dtype=np.float64)
    if not (math.isfinite(reach) and reach > 0 and np.isfinite(centers).all()):
        raise ValueError(_NEAR_PAIRS_DOMAIN)
    extent = float(np.abs(centers).max())
    pitch = reach + (reach + extent) * 2.0 ** -40
    column, row = np.floor(centers / pitch)
    key = column + 1j * row
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    target = key + _FORWARD
    starts = np.searchsorted(sorted_key, target, "left")
    # in its own bin a cell pairs only with the members after it
    starts[0, order] = np.arange(1, n + 1)
    counts = (np.searchsorted(sorted_key, target, "right") - starts).ravel()
    first = np.repeat(np.arange(5 * n) % n, counts)
    # run k of partners is sorted positions starts[k], starts[k] + 1, ...
    shift = np.repeat(starts.ravel() + counts - np.cumsum(counts), counts)
    second = order[shift + np.arange(len(first))]
    x, y = centers
    with np.errstate(over="ignore"):  # a difference that overflows is out
        box = ((np.abs(x[first] - x[second]) <= reach)
               & (np.abs(y[first] - y[second]) <= reach))
    first, second = first[box], second[box]
    pair_key = np.minimum(first, second) * n + np.maximum(first, second)
    # stable: the default sort maps another 0.25 MB of numpy code into memory
    pair_key.sort(kind="stable")
    return np.divmod(pair_key, n)


def _pair_args(x, y) -> tuple[int, int, int]:
    """n and the addresses of the centers x and y, float64 arrays (n,)."""
    n, x_at = _vector("x", x)
    return n, x_at, _pointer("y", y, np.float64, (n,))


def _offer(n: int, names: Sequence[str], search, message: str):
    """Run a pair search of n cells whose pair count is known only after
    the search: ``search(capacity, *addresses)`` fills int64 arrays of
    `capacity` entries, one per name, and returns the count. The first
    call offers room for min(n(n-1)/2, 64n) pairs, and a search that finds
    more runs once more with room for them all. Returns the count and the
    arrays; a count of -2 raises ValueError, another below 0
    MemoryError(message)."""
    capacity = min(n * (n - 1) // 2, 64 * n)
    while True:
        arrays, addresses = zip(*(_output(name, (capacity,), np.int64)
                                  for name in names))
        count = search(capacity, *addresses)
        if count == -2:
            raise ValueError(_NEAR_PAIRS_DOMAIN)
        if count < 0:
            raise MemoryError(message)
        if count <= capacity:
            return count, arrays
        capacity = count


def near_pairs_c(x, y, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair search in C, with the arguments and results of
    ``near_pairs_loop``, offered room for its pairs by ``_offer``."""
    library = _compiled()
    n, x_at, y_at = _pair_args(x, y)
    count, (first, second) = _offer(
        n, ("first", "second"),
        lambda capacity, *out: library.qcasim_near_pairs(
            n, x_at, y_at, float(reach), capacity, *out),
        "the pair search could not allocate its scratch")
    return first[:count], second[:count]


def _by_squares(dx, dy, r2: float) -> np.ndarray:
    """``by_squares`` of ``_kernels.c`` for each pair whose centers differ
    by (dx, dy), for r2 = radius**2 in [2**-900, 2**900]: 1 where the pair
    is surely within the radius, -1 where it is surely beyond it, and 0
    where |d2 - r2| <= 2**-40 r2, d2 = dx**2 + dy**2, leaves it to
    math.hypot; the same operations in the same order (see there why the
    margin is safe)."""
    d2 = dx * dx + dy * dy
    sure = (d2 <= r2).astype(np.int8) * 2 - 1
    sure[np.abs(d2 - r2) <= r2 * 2.0 ** -40] = 0
    return sure


def _bits(values) -> np.ndarray:
    """The bit patterns of `values + 0.0`, as int64: equal where the values
    are equal, -0.0 and 0.0 included (the values are never NaN)."""
    return (values + 0.0).view(np.int64)


def group_keys_loop(keys) -> tuple[np.ndarray, np.ndarray]:
    """The groups of equal rows of `keys`, an int64 array (rows, columns):
    each row's group, the groups numbered in the order of their first
    rows, and the first row of each group (ascending). A stable lexsort
    of the rows, a group starting wherever a column changes, and the
    groups renumbered in the order of their first rows."""
    order = np.lexsort(keys.T)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for part in keys.T:
        part = part[order]
        fresh[1:] |= part[1:] != part[:-1]
    # lexsort is stable, so a group's first row in sorted order is its first
    first = order[fresh]
    rank = np.argsort(first)
    renumber = np.empty(len(rank), dtype=np.int64)
    renumber[rank] = np.arange(len(rank))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = renumber[np.cumsum(fresh) - 1]
    return group, first[rank]


def kink_pairs_loop(x, y, radius: float, rotation, dot_offset, size):
    """The C pass of ``kink_pairs`` in numpy, a transcription of
    ``qcasim_kink_pairs`` with the arguments and results of
    ``kink_pairs_c``, and the reference it is tested against: the pairs of
    ``near_pairs_loop`` at reach `radius` less those that ``_by_squares``
    puts surely beyond the radius (none where r2 leaves [2**-900, 2**900]:
    the squares decide nothing there), grouped twice by
    ``group_keys_loop``, the cells by kind and the pairs by geometry; a
    group is unsure where its first pair is."""
    first, second = near_pairs_loop(x, y, radius)
    with np.errstate(over="ignore"):  # as Python floats, overflow gives inf
        r2 = radius * radius
        dx, dy = x[second] - x[first], y[second] - y[first]
        if 2.0 ** -900 <= r2 <= 2.0 ** 900:
            sure = _by_squares(dx, dy, r2)
        else:
            sure = np.zeros(len(first), dtype=np.int8)
    kept = sure >= 0
    first, second, dx, dy, sure = (a[kept] for a in (first, second, dx, dy, sure))
    # a kind of cell: one size, dot offset and rotation
    kind, _ = group_keys_loop(np.stack(
        (rotation, _bits(dot_offset), _bits(size)), axis=1))
    group, representative = group_keys_loop(np.stack(
        (kind[second], kind[first], _bits(dy), _bits(dx)), axis=1))
    return first, second, group, representative, np.flatnonzero(sure[representative] == 0)


def _kink_args(x, y, rotation, dot_offset, size) -> tuple[int, ...]:
    """n and the addresses of the columns of n cells: centers x and y,
    dot offsets and sizes float64 (n,), rotations int64 (n,)."""
    n, x_at, y_at = _pair_args(x, y)
    return (n, x_at, y_at, _pointer("rotation", rotation, np.int64, (n,)),
            _pointer("dot_offset", dot_offset, np.float64, (n,)),
            _pointer("size", size, np.float64, (n,)))


def kink_pairs_c(x, y, radius: float, rotation, dot_offset, size):
    """The C pass of ``kink_pairs``, with its arguments: returns (first,
    second, group, representative, unsure), the pairs that the squares put
    within the radius or cannot decide, in (i, j) order, each numbered by
    geometry as ``kink_pairs`` numbers its pairs, the first pair of each
    group, and `unsure`, ascending, the groups whose pairs the squares
    cannot decide (see ``qcasim_kink_pairs``). ``_offer`` gives it room for
    the box pairs, those within the radius along both axes."""
    library = _compiled()
    n, x_at, y_at, *columns = _kink_args(x, y, rotation, dot_offset, size)
    counts, counts_at = _output("counts", (2,), np.int64)
    count, (first, second, group, representative, unsure) = _offer(
        n, ("first", "second", "group", "representative", "unsure"),
        lambda capacity, *out: library.qcasim_kink_pairs(
            n, x_at, y_at, float(radius), *columns, capacity, *out, counts_at),
        "the kink pair pass could not allocate its scratch")
    groups, n_unsure = counts.tolist()
    return (first[:count], second[:count], group[:count],
            representative[:groups], unsure[:n_unsure])


# The header line of a .qcl document, after which qcasim_parse_cells reads.
_QCL_HEADER = "qcl 1\n"


def parse_cells_c(data: bytes, start: int, lineno: int):
    """The C pass over the lines of a .qcl document, `data` its UTF-8
    bytes, from byte offset `start`, which begins line `lineno` and follows
    the header line: returns (reals, ints, ids, stop, stop_lineno). The
    cells of the lines it certifies are columns: reals (5, k) float64 x, y,
    size, offset and pol (NaN where not given); ints (5, k) int64 rot,
    clock, the role's index in `geometry.ROLES`, 1 where pol is given else
    0, and the line number; ids a text table. `stop` and `stop_lineno` are
    the offset and number of the first line it does not certify, past the
    end where it certifies them all. See ``qcasim_parse_cells`` for what it
    certifies."""
    library = _compiled()
    if not (isinstance(data, bytes) and 0 <= start <= len(data)):
        raise ValueError("data must be bytes and start an offset in it")
    # a cell per line at most, and an id of at most the bytes left
    capacity = data.count(b"\n", start) + 1
    _, text_at = _vector("data", np.frombuffer(data, np.uint8), np.uint8)
    reals, reals_at = _output("reals", (5, capacity))
    ints, ints_at = _output("ints", (5, capacity), np.int64)
    id_data, id_data_at = _output("id_data", (len(data) - start,), np.uint8)
    id_offsets = np.zeros(capacity + 1, dtype=np.int64)
    stop, stop_at = _output("stop", (2,), np.int64)
    count = library.qcasim_parse_cells(
        len(data), text_at, start, lineno, capacity, reals_at, ints_at, id_data_at,
        _pointer("id_ends", id_offsets[1:], np.int64, (capacity,), True), stop_at)
    id_offsets = id_offsets[:count + 1]
    return (reals[:, :count], ints[:, :count], (id_data[:id_offsets[-1]], id_offsets),
            int(stop[0]), int(stop[1]))


def parse_cells(text: str):
    """The cells that the C pass certifies in the .qcl document `text`,
    from the line after a first line that reads exactly ``qcl 1``: returns
    (reals, ints, ids, start, lineno), the columns of ``parse_cells_c``
    with the ids as a list of str, and the offset in `text` and the number
    of the first line it leaves to ``geometry.parse_cells_loop``, the
    per-line parse it is tested against. Every line before that offset is
    ASCII, so the offset is that of its UTF-8 bytes too. Where the library
    does not load or the document starts otherwise, it certifies nothing:
    the loop reads the document from offset 0, line 1."""
    if _library() is None or not text.startswith(_QCL_HEADER):
        return np.empty((5, 0)), np.empty((5, 0), dtype=np.int64), [], 0, 1
    reals, ints, ids, stop, lineno = parse_cells_c(
        text.encode("utf-8", "surrogatepass"), len(_QCL_HEADER), 2)
    return reals, ints, table_texts(ids), stop, lineno


def kernel_path() -> str:
    """The kernels that every dispatcher runs: "c" whenever the compiled
    library loads, else "loop"."""
    return "c" if _library() is not None else "loop"


def coherence_euler(*args):
    """The batched integrator: the kernel ``kernel_path`` names, called
    with the arguments of ``coherence_euler_loop``."""
    if _library() is not None:
        return coherence_euler_c(*args)
    _euler_args(*args)
    return coherence_euler_loop(*args)


def bistable_sweep(*args):
    """The bistable sweep: the kernel ``kernel_path`` names, called with
    the arguments of ``bistable_sweep_loop``."""
    if _library() is not None:
        return bistable_sweep_c(*args)
    _sweep_args(*args)
    return bistable_sweep_loop(*args)


def write_rows(table, indices) -> str:
    """The row writer: the kernel ``kernel_path`` names, called with the
    arguments of ``write_rows_loop``."""
    if _library() is not None:
        return write_rows_c(table, indices)
    _row_args(table, indices)
    return write_rows_loop(table, indices)


def near_pairs(x, y, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, of the cells centered at (x, y) with
    |x[i] - x[j]| <= reach and |y[i] - y[j]| <= reach, each difference
    computed in floating point (one that overflows is out), as two int64
    arrays in lexicographic (i, j) order: exactly those, no farther pair.
    Coordinates must be finite and the reach finite and > 0 (ValueError
    otherwise), unless there are fewer than two cells. The kernel
    ``kernel_path`` names: ``near_pairs_c`` or ``near_pairs_loop``, which
    bin the centers on a grid to pair only neighboring bins; the bins do
    not show in the result."""
    if _library() is not None:
        return near_pairs_c(x, y, reach)
    _pair_args(x, y)
    return near_pairs_loop(x, y, reach)


def kink_pairs(x, y, radius: float, rotation, dot_offset, size):
    """The pairs of ``kink_matrix``: of the cells with centers (x, y),
    rotations, dot offsets and sizes (columns (n,), int64 rotations, the
    rest float64), the index pairs (i, j), i < j, whose center distance
    as math.dist computes it is at most `radius`, finite and > 0. Returns
    (first, second, group, representative): the pairs as two int64 arrays
    in (i, j) order; each pair's geometry, the groups of equal (kind of j,
    kind of i, dy, dx) with (dx, dy) = center j - center i, -0.0 and 0.0
    alike, and a cell's kind its (rotation, dot offset, size), numbered in
    the order of their first pairs; and the first pair of each group. The
    kernel ``kernel_path`` names, ``kink_pairs_c`` or ``kink_pairs_loop``,
    whose unsure groups are decided here, each once, by math.hypot: the one
    place where math.hypot decides the radius."""
    if _library() is None:
        _kink_args(x, y, rotation, dot_offset, size)
        kernel = kink_pairs_loop
    else:
        kernel = kink_pairs_c
    first, second, group, representative, unsure = kernel(
        x, y, radius, rotation, dot_offset, size)
    if not unsure.size:
        return first, second, group, representative
    # the pairs of a group share the bits of dx + 0.0 and dy + 0.0, so
    # its first pair decides it
    k = representative[unsure]
    dx, dy = x[second[k]] - x[first[k]], y[second[k]] - y[first[k]]
    beyond = np.array([not math.hypot(a, b) <= radius
                       for a, b in zip(np.abs(dx).tolist(), np.abs(dy).tolist())],
                      dtype=bool)
    if not beyond.any():
        return first, second, group, representative
    # drop those groups whole; the others keep their order
    keep = np.ones(len(representative), dtype=bool)
    keep[unsure[beyond]] = False
    kept = keep[group]
    group_number = np.cumsum(keep) - 1  # of each group among those kept
    place = np.cumsum(kept) - 1  # of each pair among those kept
    return (first[kept], second[kept], group_number[group[kept]],
            place[representative[keep]])
