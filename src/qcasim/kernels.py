"""Hot numeric kernels for the coherence-vector integrator.

The integrator entry point ``coherence_euler`` is batched: B points that
share the cell order, clock zones, driven cells, time grid and clock
advance in lockstep, each with its own kink energies ``energies[b]``,
drive values ``drive_values[b]`` (n,) and temperature ``temperature[b]``.
The recorded times and clock values are shared by the batch; the recorded
polarizations are per point, ``rec_pols[b]``. A single run is the B=1 case.

The coupling is a neighbor list shared by the points: with
``k = slice(offsets[i], offsets[i + 1])``, the neighbors of cell i are
``cols[k]``, in ascending position, and point b's kink energies to them
are ``energies[b, k]`` (0.0 where that point lacks the pair).
``engines.coupling`` builds it from the kink matrices. A step costs
O(nnz): the local field of a cell is summed over its row only.

Two kernels give bit-identical results, so the output never depends on
which one ran; ``kernel_path`` names the one ``coherence_euler`` runs:

* ``c``: ``coherence_euler_c``, a C transcription of the loop kernel
  (``_euler.c``, shipped with the package) loaded through ``ctypes``. The
  first coherence call in a process compiles it with ``$CC`` (default
  ``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/qcasim/``, or, where that
  directory cannot be used, into ``qcasim-<uid>`` under the temporary
  directory, and failing that into a fresh temporary directory; later
  processes load the cached library. The library name carries a sha256 of
  the source, the flags and ``$CC --version``.
* ``loop``: ``coherence_euler_loop``, the same integrator over Python
  lists: the reference the C kernel is tested against, and the kernel
  that runs where no compiler works (``CC=/nonexistent``, say).

Every ``+``, ``*``, ``/`` and ``sqrt`` is the same IEEE operation in the
same order in both, and ``cos`` and ``tanh`` are libm's, as ``math.cos``
and ``math.tanh`` are. The C kernel is built with ``-ffp-contract=off``
and never with ``-ffast-math``, since a fused multiply-add would change
the bits. ``benchmarks/bench_coherence.py`` times the two kernels.
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
    (final_pol (B, n), ok (B,), bad_step (B,)).

    A point whose |lambda| exceeds 1 + 1e-6 (or becomes NaN) stops at that
    cell, mid-sweep: ok[b] = False, bad_step[b] = the step, its
    polarizations stay as they are and it is no longer recorded. The batch
    ends once every point has failed. Recording arrays are filled every
    `stride` steps (step 0 included) while some point is still running.
    """
    batch, n = drive_values.shape
    offsets = offsets.tolist()
    cols = cols.tolist()
    free = [i for i in range(n) if not driven[i]]
    zone_of = zones.tolist()
    pols = np.where(driven, drive_values, 0.0).tolist()
    ok = np.ones(batch, dtype=np.bool_)
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
    sqrt, tanh = math.sqrt, math.tanh
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
                    ok[b] = False
                    bad_step[b] = step
                    failed = True
                    break
        if failed:
            points = [point for point in points if ok[point[0]]]
            if not points:
                break
    return np.array(pols).reshape(batch, n), ok, bad_step


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


def coherence_euler_c(energies, zones, driven, drive_values, n_steps, dt,
                      total_time, periods, clock_shift, clock_amplitude,
                      clock_low, clock_high, tau, temperature, boltzmann_k,
                      hbar, stride, rec_times, rec_clocks, rec_pols,
                      offsets, cols):
    """The batched integrator in C, with the arguments, results and
    failure semantics of ``coherence_euler_loop``. Every array is checked
    for dtype, C-contiguity and shape, and the neighbor list for
    consistency, before its pointer is passed."""
    kernel = _library()
    if kernel is None:
        raise RuntimeError("the compiled coherence kernel is not available")
    batch, n = np.shape(drive_values)
    _check("offsets", offsets, np.int64, (n + 1,))
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("offsets must start at 0 and never decrease")
    nnz = int(offsets[-1])
    _check("cols", cols, np.int64, (nnz,))
    if nnz and not 0 <= cols.min() <= cols.max() < n:
        raise ValueError(f"cols must be cell positions 0..{n - 1}")
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
    final = np.empty((batch, n))
    ok = np.empty(batch, dtype=np.bool_)
    bad_step = np.empty(batch, dtype=np.int64)
    lam = np.empty(batch * n * 3)
    fields = np.empty(n)
    kernel(batch, n, offsets.ctypes.data, cols.ctypes.data, energies.ctypes.data,
           zones.ctypes.data, driven.ctypes.data, drive_values.ctypes.data,
           int(n_steps), dt, total_time, periods, clock_shift, clock_amplitude,
           clock_low, clock_high, tau, temperature.ctypes.data, boltzmann_k,
           hbar, UNIT_BALL_LIMIT_SQ, stride, n_rec, rec_times.ctypes.data,
           rec_clocks.ctypes.data, rec_pols.ctypes.data, final.ctypes.data,
           ok.ctypes.data, bad_step.ctypes.data, lam.ctypes.data,
           fields.ctypes.data)
    return final, ok, bad_step


def kernel_path() -> str:
    """The kernel ``coherence_euler`` runs: "c" whenever the compiled
    library loads, else "loop"."""
    return "c" if _library() is not None else "loop"


def coherence_euler(*args):
    """The batched integrator: the kernel ``kernel_path`` names, called
    with the arguments of ``coherence_euler_loop``."""
    kernel = coherence_euler_c if _library() is not None else coherence_euler_loop
    return kernel(*args)
