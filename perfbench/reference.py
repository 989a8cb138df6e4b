"""Fixed reference work that measures how fast the host runs right now.

Usage: python reference.py

Reads one line from standard input per request, runs one fixed slice of
work and answers with one line: the slice's wall time, its CPU time and
a checksum of its result. It exits at the end of its input. It runs one
slice before it reads its first request, so imports and first-call costs
are paid before anything is measured.

A slice is the kind of work the simulator does per sample: small complex
Jacobi eigen-solves written in Python over numpy scalars and 4x4 arrays,
Kronecker and matrix products, and partial transposes. It uses no
`bispinor` code, so a change to the program never changes its cost.

On a shared host the speed of the cores drifts by half within seconds,
in wall and CPU time alike. The benchmark pauses each timed unit every
`run.SLICE_EVERY_S` seconds of its run, has this process run one slice,
and divides the unit's time by the mean time of the slices taken during
it. Both sides of that ratio are measured over the same stretch of time,
so the ratio cancels most of the drift.
"""

import sys
import time

import numpy as np

ROUNDS = 150


def jacobi(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small Hermitian matrix by complex Jacobi rotations."""
    n = A.shape[0]
    mask = ~np.eye(n, dtype=bool)
    for _ in range(50):
        if float(np.sqrt(np.sum(np.abs(A[mask]) ** 2))) <= 1e-13:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                tau = (A[q, q].real - A[p, p].real) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                J = np.eye(n, dtype=complex)
                J[p, p] = J[q, q] = c
                J[p, q] = t * c * apq / r
                J[q, p] = -np.conj(J[p, q])
                A = J.conj().T @ A @ J
    return np.sort(np.diag(A).real)


def work() -> float:
    rng = np.random.default_rng(12345)
    x = rng.normal(size=(ROUNDS, 4, 4)) + 1j * rng.normal(size=(ROUNDS, 4, 4))
    k = np.array([[0.9, 0.1], [0.1, 0.8]], dtype=complex)
    kk = np.kron(k, k)
    total = 0.0
    for m in x:
        rho = kk @ (m @ m.conj().T) @ kk.conj().T
        rho /= np.trace(rho).real
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        total += float(np.abs(jacobi(pt)).sum()) + float(jacobi(rho)[0])
    return total


def main() -> None:
    work()
    for _ in sys.stdin:
        wall, cpu = time.perf_counter(), time.process_time()
        total = work()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(f"{wall:.9f} {cpu:.9f} {total:.6f}", flush=True)


if __name__ == "__main__":
    main()
